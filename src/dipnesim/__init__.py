"""Truncated Fock-space simulation of differential photon-number encodings."""

from ._version import __version__

from .analytics import (
    GaussianMoments,
    MatchResult,
    c_equal,
    c_equal_bruteforce,
    gaussian_propagate,
    interference_loss_theory,
    mean_photons_from_moments,
    squeeze_fraction_strong,
    squeeze_to_match,
    vacuum_moments,
)
from .catfit import CatFitResult, fit_squeezed_cat, fit_squeezed_cats
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ResultTable,
    make_config,
    read_config_file,
    run_experiment,
)
from .circuits import (
    GadgetSpec,
    apply_element,
    beamsplit,
    displace,
    displacements,
    phase_shift,
    squeeze_op,
)
from .fock import (
    GUARD_BAND,
    LEAK_THRESHOLD,
    MAX_JOINT_DIM,
    FockState,
    LeakageWarning,
    ModeLayout,
    basis_state,
    marginal_number_distribution,
    tensor,
    vacuum_state,
)
from .kitten import (
    KittenSpec,
    KittenState,
    kitten_direct,
    kitten_probability,
    peak_estimate,
)
from .measure import (
    joint_number_distribution,
    l_intf,
    mean_quadrature,
)
from .states import (
    Squeeze,
    coherent,
    squeezed_vacuum,
)

__all__ = [
    "EXPERIMENTS",
    "GUARD_BAND",
    "LEAK_THRESHOLD",
    "MAX_JOINT_DIM",
    "CatFitResult",
    "ExperimentConfig",
    "FockState",
    "GadgetSpec",
    "GaussianMoments",
    "KittenSpec",
    "KittenState",
    "LeakageWarning",
    "MatchResult",
    "ModeLayout",
    "ResultTable",
    "Squeeze",
    "apply_element",
    "basis_state",
    "beamsplit",
    "c_equal",
    "c_equal_bruteforce",
    "coherent",
    "displace",
    "displacements",
    "fit_squeezed_cat",
    "fit_squeezed_cats",
    "gaussian_propagate",
    "interference_loss_theory",
    "joint_number_distribution",
    "kitten_direct",
    "kitten_probability",
    "l_intf",
    "make_config",
    "marginal_number_distribution",
    "mean_photons_from_moments",
    "mean_quadrature",
    "peak_estimate",
    "phase_shift",
    "read_config_file",
    "run_experiment",
    "squeeze_fraction_strong",
    "squeeze_op",
    "squeeze_to_match",
    "squeezed_vacuum",
    "tensor",
    "vacuum_moments",
    "vacuum_state",
]
