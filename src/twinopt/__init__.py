"""Twin-set greedy maximization of non-monotone submodular functions."""

from .core import (
    CallableOracle,
    ContractViolation,
    GroundSet,
    IndependenceOracle,
    InsertionLog,
    ParameterError,
    RunReport,
    ValueOracle,
    bitmask,
    members,
    submodularity_check,
)
from .constraints import (
    IntersectionSystem,
    PartitionMatroid,
    SeedMatroid,
    UniformMatroid,
    rank,
    verify_matroid,
)
from .objectives import (
    CutMonitorObjective,
    MarketingObjective,
    ModularObjective,
    RRSetCollection,
    WeightedGraph,
    rr_estimate,
)
from .generators import (
    RNG_ID,
    assign_groups,
    assign_weights_uniform,
    gen_ba,
    gen_er,
    gen_rr_sets,
    ic_exact_spread,
    set_indegree_probabilities,
)
from .solvers import (
    ExactResult,
    classic_greedy,
    exact_max,
    sample_greedy,
    solve,
    twin_greedy,
    twin_greedy_fast,
)
from .certify import (
    CertificationError,
    CertificationReport,
    ClassifiedOptimal,
    PiMapping,
    build_pi,
    certify_run,
    check_gain_bounds,
    check_global_bound,
    classify,
)

__version__ = "0.1.0"
