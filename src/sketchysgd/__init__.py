"""Stochastic quasi-Newton optimization with randomized Nystrom preconditioning.

The package turns a finite-sum GLM objective (ridge or l2-regularized
logistic regression, dense or sparse data) into metrics: minibatch SGD whose
gradients are reshaped by the regularized low-rank approximation of a
subsampled Hessian, with an automated learning rate, plus SGD/SVRG
baselines, spectral diagnostics, and a config-driven CLI.
"""

from .data import (
    Dataset,
    FeatureMap,
    LibsvmParseError,
    StandardizeStats,
    condition_lower_bound,
    load_libsvm,
    normalize_rows,
    parse_libsvm,
    random_features,
    save_libsvm,
    serialize_libsvm,
    singular_values,
    split,
    standardization_stats,
    standardize,
)
from .diagnostics import (
    SpectrumReport,
    conditioning_report,
    dissimilarity_upper_bound,
    effective_dimension,
    rho_dissimilarity,
    sandwich_check,
)
from .linalg import (
    DegenerateMatrixError,
    DiagnosticCapError,
    IndefiniteMatrixError,
    Rng,
    cholesky,
    eigh_small,
    gaussian_matrix,
    make_rng,
    qr_econ,
    spectral_norm,
    thin_svd,
    top_eig_diag_plus_rank1,
)
from .nystrom import (
    NystromApprox,
    SketchNotPsdError,
    precond_inv_sqrt,
    precond_solve,
    rand_nys_approx,
)
from .optimizers import (
    DivergenceError,
    LearningRateError,
    MetricsRecord,
    OptimizerConfig,
    RunResult,
    estimate_learning_rate,
    resolve_baseline_config,
    resolve_config,
    sgd_run,
    sketchysgd_run,
    sketchysgd_theoretical_run,
    svrg_run,
)
from .oracles import ProblemOracle, sample_batch
from .synthetic import gaussian_dataset, planted_least_squares, planted_spectrum

__version__ = "0.3.1"
