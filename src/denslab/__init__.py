"""denslab: a desk-scale laboratory for 1D density-dependent diffusions.

Builds laws of diffusions whose drift depends pointwise on the solution's own
density (the most singular mean-field coupling) as fixed points of a
frozen-density Fokker-Planck map, simulates them with interacting particles,
and verifies the quantitative estimates that govern them: smoothing rates,
super-continuity, entropy-cost inequalities, power-divergence structure, and
two-regime exponential moment bounds.
"""

from .density_core import (
    DensityFlow,
    Grid1D,
    GridDensity,
    TimeGrid,
    gaussian_density,
    kde,
    load_density,
    normalize,
    save_density,
    save_flow,
    tilde_norm,
    tilde_spacetime_norm,
    uniform_density,
)
from .dynamics import (
    DiffusionSpec,
    DriftSpec,
    PicardResult,
    SolverOptions,
    builtin_drift,
    constant_diffusion,
    frozen_semigroup,
    picard_fixed_point,
    validate_drift,
)
from .errors import DenslabError
from .experiments import (
    RenyiReport,
    ScalingReport,
    experiment_entropy_cost,
    experiment_khasminskii,
    experiment_renyi,
    experiment_smoothing,
    experiment_supercontinuity,
    fit_loglog,
)
from .metrics import (
    FlowMetricSpec,
    exp_wasserstein,
    relative_entropy,
    renyi_entropy,
    total_variation,
    wasserstein_1d,
)
from .particles import (
    KhasminskiiReport,
    ParticleEnsemble,
    builtin_field,
    euler_maruyama_mkv,
    girsanov_log_weights_mc,
    khasminskii_mc,
    path_relative_entropy_mc,
)

__version__ = "0.1.0"
