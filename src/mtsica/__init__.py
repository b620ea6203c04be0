"""Multi-trial ICA with optional label supervision.

Joint estimation of a shared unmixing matrix across trials and, when
labels are present, per-target predictive heads that read individual
unmixed sources.  See the README for the model, the solver, and the CLI.
"""

__version__ = "0.1.0"

from .data import (Dataset, DatasetFormatError, TargetSchema,
                   concat_trials, load_dataset, preprocess, save_dataset)
from .likelihood import (DENSITIES, SuperGaussianDensity, aux_exact,
                         aux_proximal, get_density)
from .metrics import (FobiResult, TargetMetric, amari_distance,
                      evaluate_predictions, fobi, success_rate, whiten)
from .solver import (FitResult, RateGuards, SolverAbort, SolverConfig, Trace,
                     TraceRecord, compute_rate_guards, fit_full_batch,
                     fit_stochastic)
from .supervision import (FeatureMapConfig, OptimizerState,
                          SupervisedTargetModel, feature_map_batch,
                          init_model, make_optimizer, optimizer_step,
                          predict_batch)
from .synthgen import (RECIPES, gen_dataset, gen_gaussian_mixing,
                       gen_hilbert_mixing, gen_laplace_sources,
                       gen_regression_targets)
from .unmixing import (FactorizationError, UnmixingState, compute_B,
                       cyclic_sweep, row_update)

__all__ = [name for name in dir() if not name.startswith("_")]
