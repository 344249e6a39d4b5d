"""Iterative model retraining under label noise.

One memory-corrected retraining engine for Gaussian-mixture and
generalized-linear ground truths, the deterministic state-evolution recursions
that predict their test error, Bayes-optimal label aggregation, and the
practical bimodal-mixture soft-label recipe.
"""

__version__ = "0.2.0"

from .errors import (
    AmpRetrainError,
    BracketError,
    ConfigError,
    DegenerateFitError,
    DegenerateModelError,
    DivergenceError,
    DomainError,
    ParseError,
    ShapeError,
)
from .numerics import (
    RngStream,
    find_root_bisect,
    gaussian_rule,
    stable_logistic,
    std_normal_cdf,
)
from .gmm import (
    GmmDataset,
    GmmParams,
    IdentityAggregator,
    OptimalGmm,
    SmoothedConsensusRT,
    SmoothedFullRT,
    eval_aggregator,
    eval_aggregator_deriv,
    sample_gmm_dataset,
    gmm_evaluator,
    test_error_gmm,
    vanilla_estimator,
)
from .gmm_se import (
    CobwebTrace,
    PStarResult,
    SeMapSpec,
    SeStateGmm,
    cobweb_trace,
    eta_map_ct,
    eta_map_ft,
    eta_map_opt,
    find_crossover,
    find_fixed_points,
    opt_se_trace_gmm,
    p_star,
    se_error_from_eta,
    se_error_gmm,
    se_init_gmm,
    se_step_gmm,
)
from .glm import (
    GlmDataset,
    GlmParams,
    LogisticLink,
    OptimalGlm,
    OptimalSign,
    ProbitLink,
    SignLink,
    error_curve_glm,
    glm_evaluator,
    hat_h_p,
    link_from_name,
    optimal_aggregator_glm,
    optimal_aggregator_sign,
    sample_glm_dataset,
    test_error_glm,
)
from .glm_se import (
    SeStateGlm,
    opt_se_trace_glm,
    quadrature_init_mu_glm,
    se_error_glm,
    se_init_glm,
    se_step_glm_generic,
    se_step_glm_opt,
)
from .bayesmix import (
    BayesMixConfig,
    BimodalFit,
    LogitRecord,
    RetrainDemoResult,
    bayesmix_aggregate,
    bayesmix_retrain_demo,
    em_loglik_history,
    emit_targets,
    fit_bimodal_em,
)
from .retrain import (
    AmpState,
    Trajectory,
    TrajectoryPoint,
    amp_step,
    onsager_coefficient,
    run_hard_baseline,
    run_retraining,
)
from .harness import (
    ExperimentConfig,
    SimulationResult,
    build_params,
    se_trace,
    simulate,
    write_simulation_outputs,
)
