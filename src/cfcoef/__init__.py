"""Optimal integer coefficient vectors for compute-and-forward relaying.

The quadratic-form minimization behind the relay's rate maximization is
turned into a shortest vector problem through a closed-form implicit
Cholesky factorization and solved exactly with a constrained
Schnorr-Euchner sphere search, in O(n) memory and without ever forming
the Gram matrix.  A list-output variant supports relay coordination, a
brute-force oracle provides ground truth for validation, and a seeded
Monte-Carlo harness produces reproducible shortcut-frequency and
tree-size statistics.
"""

from .bench import (
    MODES,
    TrialConfig,
    TrialReport,
    emit_report,
    run_trials,
    sample_channel,
    trial_rng,
)
from .core import (
    ChannelInstance,
    NumericDegeneracyError,
    ScaledChannel,
    SignedPermutation,
    cholesky_factor,
    computation_rate,
    e1_is_optimal,
    objective_lower_bound,
    restore,
    scale_channel,
)
from .listsearch import Candidate, CandidateList, list_search, list_solve
from .oracle import (
    OracleInfeasibleError,
    brute_force_svp,
    brute_force_topl,
    svp_box_bound,
    topl_box_bound,
)
from .search import (
    SearchResult,
    SolveResult,
    baseline_search,
    count_visited_nodes,
    modified_search,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelInstance",
    "SignedPermutation",
    "ScaledChannel",
    "NumericDegeneracyError",
    "scale_channel",
    "restore",
    "cholesky_factor",
    "computation_rate",
    "e1_is_optimal",
    "objective_lower_bound",
    "SearchResult",
    "SolveResult",
    "baseline_search",
    "modified_search",
    "solve",
    "count_visited_nodes",
    "Candidate",
    "CandidateList",
    "list_search",
    "list_solve",
    "OracleInfeasibleError",
    "svp_box_bound",
    "topl_box_bound",
    "brute_force_svp",
    "brute_force_topl",
    "MODES",
    "TrialConfig",
    "TrialReport",
    "trial_rng",
    "sample_channel",
    "run_trials",
    "emit_report",
    "__version__",
]
