"""frugal: data-dependent discretization of infinite parameter spaces.

Learns a finite set of provably promising algorithm parameters for
configuration problems whose capped loss is piecewise constant in the
parameter, then optionally reduces the set to a single near-optimal
parameter with an empirical selector.  Ships three domains: an exactly
solvable synthetic family, branch-and-bound over small binary programs, and
budget-capped linkage clustering.
"""
from .core import (
    CappedRunOutcome,
    ConfigProblem,
    ParamCell,
    ParamPoint,
    ParamSpace,
    PartitionCell,
)
from .learner import (
    LearnerConfig,
    OptimalSubsetResult,
    compute_eta,
    learn_subset,
    select_finite,
)
from .stats import GammaInputs, gamma_bound
from .synthetic import SyntheticFamily, SyntheticProblem, synthetic_exact_opt

__version__ = "0.1.0"

__all__ = [
    "CappedRunOutcome",
    "ConfigProblem",
    "ParamCell",
    "ParamPoint",
    "ParamSpace",
    "PartitionCell",
    "LearnerConfig",
    "OptimalSubsetResult",
    "compute_eta",
    "learn_subset",
    "select_finite",
    "GammaInputs",
    "gamma_bound",
    "SyntheticFamily",
    "SyntheticProblem",
    "synthetic_exact_opt",
    "__version__",
]
