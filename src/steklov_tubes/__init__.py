"""Steklov spectra of manifolds with tubular neighbourhoods excised.

Model eigenvalue families on product annuli (exact radial solves),
two-sided bracketing of the true spectrum, closed forms for a sphere
with two caps removed, flat 2D finite element benchmarks, and the
explicit lower/upper bound constants.
"""

from .errors import CompletenessError, ConfigurationError, NumericalError
from .harmonics import (
    Circle,
    ExcisionScenario,
    FlatTorus,
    ModeEigenvalue,
    Point,
    RoundSphere,
    SubmanifoldSpec,
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    sphere_eigenvalue,
    sphere_multiplicity,
    sphere_volume,
    transverse_spectrum,
)
from .radial import (
    RadialMode,
    mixed_spectrum,
    sigma_annulus_pair,
    sigma_mixed,
    sn_log_normalizer,
)
from .families import (
    RateFit,
    bracket,
    expand_values,
    family,
    predicted_limit,
    rate_fit,
    truncated_spectrum,
)
from .bounds import (
    BoundReport,
    constant_C,
    lower_bound_check,
    quasi_ratio_bound,
    upper_bound_limit,
)
from . import bessel, fem, spherecaps, tables

__version__ = "0.1.0"
