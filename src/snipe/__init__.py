"""Estimation of total treatment effects under neighborhood network
interference with low-order interactions, built around the SNIPE family of
inverse-propensity weighted estimators for Bernoulli randomized designs."""

from .baselines import (
    RegressionFit,
    UndefinedEstimateError,
    dm_thresh_tte,
    dm_tte,
    ht_tte,
    ls_fit,
    ls_tte,
)
from .design import (
    Design,
    load_design,
    load_treatment,
    sample,
    save_design,
    save_treatment,
    uniform_design,
)
from .estimators import (
    design_matrix,
    design_matrix_inverse,
    subset_coeff,
    implicit_tte_weight,
    snipe_ate,
    snipe_cate,
    snipe_te_alpha,
    snipe_tte,
    snipe_tte_uniform,
    snipe_weight,
    snipe_weights,
)
from .graph import (
    CausalGraph,
    gen_erdos_renyi,
    in_neighborhood,
    load_graph,
    save_graph,
)
from .harness import (
    ExperimentConfig,
    ReplicationStats,
    VarianceRow,
    run_experiment,
    run_variance_report,
    substream,
)
from .oracle import ExactMoments, exact_moments, exact_product_expectation
from .outcomes import (
    DegenerateModelError,
    GroundTruth,
    OutcomesModel,
    evaluate,
    expand_power,
    gen_experiment_model,
    ground_truth,
    load_model,
    save_model,
)
from .variance import (
    VarianceReport,
    confidence_interval,
    conservative_variance,
    make_report,
    worst_case_variance_bound,
)

__version__ = "0.1.0"
