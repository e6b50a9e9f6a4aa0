"""Non-adaptive sublinear-query testers for the gap edit distance problem.

Layers: exact string oracles (`strings`), metered access and seeded
randomness (`metering`), block reductions (`reductions`), recursive and
batched testers (`testers`), and an experiment harness with a CLI
(`harness`, `cli`).
"""

from .strings import (
    EXCEEDS,
    GAP,
    NO,
    YES,
    GapInstance,
    ShiftedInstance,
    Symbol,
    View,
    as_view,
    ed_exact,
    ed_lower_bound,
    ed_solve_gap,
    gap_ed_banded,
    shifted_ed_exact,
    symbols,
)
from .metering import (
    CertificationResult,
    MeteredString,
    RandomStream,
    SamplePlan,
    certify_non_adaptive,
)
from .reductions import (
    Batch,
    KeyLemmaReport,
    ParameterError,
    ReductionOutcome,
    exact_gap_oracle,
    exact_shifted_oracle,
    gap_to_shifted,
    key_lemma_check,
    multilevel_reduce,
    oracle_call_tally,
    per_block,
    per_member,
    shift_grid,
    shift_grid_spread,
    shifted_threshold,
    shifted_to_gap,
    single,
    single_level_plan,
    single_level_reduce,
)
from .testers import (
    TesterConfig,
    UnsupportedRegimeError,
    baseline_gap,
    baseline_shifted,
    batched_equality,
    batched_gap_h1,
    batched_gap_h2,
    batched_shifted_h0,
    batched_shifted_h1,
    equality_test,
    main_gap,
    main_shifted,
    plan_gap_dispatch,
    plan_shifted_dispatch,
)
from .harness import (
    CSV_COLUMNS,
    CSV_SCHEMA_VERSION,
    GridConfig,
    InstanceSpec,
    TrialRecord,
    TruthCert,
    UnsatisfiableSpecError,
    adjudicate,
    generate,
    parse_config_text,
    run_grid,
    wilson_interval,
)

__version__ = "0.1.0"
