"""Explicit eigenvalue bounds attached to an excision scenario.

The first nonzero Steklov eigenvalue of the complement of b >= 2 tubes
admits the lower bound

    sigma_1(Omega_eps) >= C * eps^{-1/(m+1)}        (eps small),

where C is the minimum of three explicit terms built from the ambient
dimension m, the spectral gap lambda_1(M), and the boundary volume
prefactors P_j = |N_j| * omega_{d_j}:

    dimension: max(min_j(m - n_j - 2), 1) / 4
    volume:    min_j P_j^2 / (16 b (b-1)^2)
    spectral:  lambda_1 * min_j P_j^2 / (128 m b (b-1)^2 max_j P_j^2)

On the complementary side, eps * sigma_ell stays below
max(1, m - min_j n_j - 2) in the limit, and a K-quasi-isometry of the
ambient metric moves any eigenvalue by at most a factor K^{m+1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .harmonics import ExcisionScenario, sphere_volume

_TERM_NAMES = ("dimension", "volume", "spectral")


@dataclass(frozen=True)
class BoundReport:
    constant_C: float
    exponent: float
    term_dimension: float
    term_volume: float
    term_spectral: float
    binding_term: str

    def to_json(self) -> dict:
        return {
            "C": self.constant_C,
            "exponent": self.exponent,
            "terms": {
                "dimension": self.term_dimension,
                "volume": self.term_volume,
                "spectral": self.term_spectral,
            },
            "binding": self.binding_term,
        }


def constant_C(scenario: ExcisionScenario) -> BoundReport:
    """Lower bound constant for sigma_1; needs at least two submanifolds."""
    b = scenario.b
    if b < 2:
        raise ConfigurationError(
            f"the lower bound constant needs b >= 2 submanifolds, got {b}"
        )
    m = scenario.m
    prefactors = [
        s.volume * sphere_volume(scenario.sphere_dim(j))
        for j, s in enumerate(scenario.submanifolds)
    ]
    p_min = min(prefactors) ** 2
    p_max = max(prefactors) ** 2
    gap = min(m - s.dim - 2 for s in scenario.submanifolds)

    terms = (
        max(gap, 1) / 4.0,
        p_min / (16.0 * b * (b - 1) ** 2),
        scenario.lambda1_M * p_min / (128.0 * m * b * (b - 1) ** 2 * p_max),
    )
    binding = _TERM_NAMES[min(range(3), key=lambda i: terms[i])]
    return BoundReport(
        constant_C=min(terms),
        exponent=1.0 / (m + 1),
        term_dimension=terms[0],
        term_volume=terms[1],
        term_spectral=terms[2],
        binding_term=binding,
    )


@dataclass(frozen=True)
class LowerBoundCheck:
    holds: bool
    sigma1: float
    threshold: float
    eps: float


def lower_bound_check(
    scenario: ExcisionScenario, eps: float, sigma1: float, slack: float = 0.0
) -> LowerBoundCheck:
    """Does a computed sigma_1 respect C * eps^{-1/(m+1)} (up to slack)?"""
    for name, value in (("eps", eps), ("sigma1", sigma1), ("slack", slack)):
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")
    if not 0 <= slack < 1:  # slack >= 1 makes every check hold
        raise ConfigurationError(f"slack must be in [0, 1), got {slack}")
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    report = constant_C(scenario)
    threshold = report.constant_C * eps ** (-report.exponent)
    return LowerBoundCheck(
        holds=sigma1 >= (1.0 - slack) * threshold,
        sigma1=sigma1,
        threshold=threshold,
        eps=eps,
    )


def upper_bound_limit(scenario: ExcisionScenario) -> float:
    """Limsup of eps * sigma_ell for fixed ell: max(1, m - min_j n_j - 2)."""
    n_min = min(s.dim for s in scenario.submanifolds)
    return float(max(1, scenario.m - n_min - 2))


def quasi_ratio_bound(k_const: float, m: int) -> float:
    """Eigenvalue ratio envelope K^{m+1/2} for a K-quasi-isometry."""
    if k_const < 1:
        raise ValueError(f"quasi-isometry constant must be >= 1, got {k_const}")
    if m < 2:
        raise ValueError(f"dimension must be >= 2, got {m}")
    return float(k_const ** (m + 0.5))
