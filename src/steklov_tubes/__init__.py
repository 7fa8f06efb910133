"""Steklov spectra of manifolds with tubular neighbourhoods excised.

Model eigenvalue families on product annuli (exact radial solves),
two-sided bracketing of the true spectrum, closed forms for a sphere
with two caps removed, flat 2D finite element benchmarks, and the
explicit lower/upper bound constants.

Importing the package loads no submodule.  Each name below, and each
submodule, is imported on first use (PEP 562), so a caller that needs
only the closed forms never loads numpy, scipy or the FEM layer.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("CompletenessError", "ConfigurationError", "NumericalError"),
    "harmonics": (
        "Circle", "ExcisionScenario", "FlatTorus", "ModeEigenvalue", "Point",
        "RoundSphere", "SubmanifoldSpec", "load_scenario", "save_scenario",
        "scenario_from_json", "scenario_to_json", "sphere_eigenvalue",
        "sphere_multiplicity", "sphere_volume", "transverse_spectrum",
    ),
    "radial": (
        "RadialMode", "mixed_spectrum", "sigma_annulus_pair", "sigma_mixed",
        "sn_log_normalizer",
    ),
    "families": (
        "RateFit", "bracket", "expand_values", "family", "predicted_limit",
        "rate_fit", "truncated_spectrum",
    ),
    "bounds": (
        "BoundReport", "constant_C", "lower_bound_check", "quasi_ratio_bound",
        "upper_bound_limit",
    ),
}
_SUBMODULES = tuple(sorted({*_EXPORTS, "bessel", "fem", "spherecaps", "tables"}))
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN) + list(_SUBMODULES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _ORIGIN:
        return getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
