"""Random-order streaming maximum matching: greedy baseline, two-phase
sparsifier, augmentation pipeline, structural verifiers, adversarial
instance generators, and a benchmark harness."""

from .analyzer import (
    DichotomyReport,
    EdcsReport,
    PathCensus,
    UnknownEdgeError,
    check_dichotomy,
    check_edcs,
    classify_lucky,
    path_census,
)
from .augmenter import (
    AppliedPath,
    TrialDiagnostics,
    beats23_match,
    build_t,
    greedy_match,
    phase2b,
)
from .bench import (
    Aggregate,
    CheckConfig,
    GeneratorSpec,
    TrialConfig,
    TrialRecord,
    TrialReport,
    canonical_hash,
    emit_report,
    report_to_dict,
    run_trials,
)
from .graph import (
    Graph,
    Matching,
    NotAugmentingError,
    NotBipartiteError,
    brute_force_matching_size,
    edge_key,
    max_matching,
    read_edge_list,
)
from .instances import (
    HardInstance,
    NotInducedError,
    XorGadget,
    build_hard_instance,
    gen_random,
    load_family,
    matched_base,
    mu_with_and_without_special,
    removed_special_bound,
    save_hard_instance,
    trivial_family,
    verify_induced,
    xor_gadget,
)
from .sparsifier import (
    AlgoParams,
    SafetyCapExceeded,
    Sparsifier,
    bernstein_match,
    default_u_cap,
    params_with_betas,
    phase1_build_h,
    phase2_collect_u,
    run_sparsifier,
)
from .stream import (
    EdgeStream,
    Phase,
    PhaseSplit,
    make_stream,
    phase1_cut,
    sample_binomial,
    split_phases,
)

__version__ = "0.1.0"
