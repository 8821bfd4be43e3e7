"""Anytime-valid confidence sequences for bounded random vectors via
gambling wealth processes."""

from .baselines import (
    bonferroni_membership,
    clopper_pearson_interval,
    coordinate_log_wealths,
    mardia_membership,
    mixture_membership,
    sanov_membership,
)
from .boxreduce import box_membership, embed
from .confset import (
    ConfidenceSet,
    kt_kl_threshold,
    membership,
    simplex_candidate_grid,
    thm3b_lower_bound,
    thm3c_asymptotic_threshold,
)
from .harness import ExperimentConfig, emit, run_experiment
from .numerics import kl_divergence, log_multi_beta, shannon_entropy
from .simplex import empirical_mean, enumerate_grid, grid_size, rank, unrank
from .wealth import (
    DirichletPrior,
    UPState,
    constant_bettor_log_wealth,
    kt_log_wealth,
    ppr_log_wealth,
    q_kt,
)
from .wor import AuditState, category_count_bounds, rank_decided, stopping_time

__version__ = "0.1.0"
