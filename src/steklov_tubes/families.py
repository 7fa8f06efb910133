"""Merged model spectra for a scenario, bracketing, and rate extraction.

Each excised submanifold N_j contributes one family of mixed eigenvalues
on its model annulus.  The merged SN spectrum of the disjoint union is a
lower bound family and the merged SD spectrum an upper bound family for
the Steklov spectrum of the ambient domain with the tubes removed:

    sigma_ell^SN(A)  <=  sigma_ell(Omega_eps)  <=  sigma_{ell+1}^SD(A),

with the SN list 0-indexed (it starts with b zeros, one per tube) and
the SD list 1-indexed (its smallest value is called sigma_1).  bracket()
returns that pair for every ell up to ell_max, from one certified SN and
one certified SD spectrum.

predicted_limit encodes the small-eps behaviour of an individual mode:
eps * sigma -> m - n - 2 + q, except that for q = 0 on a codimension-2
submanifold (n = m - 2, so d = 1) the correct normalization is
eps |log eps| * sigma -> 1.  rate_fit extracts the limit from a finite
eps sweep by Richardson extrapolation in eps.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from . import radial
from .errors import CompletenessError
from .harmonics import ExcisionScenario, ModeEigenvalue, transverse_spectrum

DELTA_DEFAULT = 0.5

_KQ_CAP = 256


def family(
    scenario: ExcisionScenario,
    j: int,
    eps: float,
    delta: float,
    outer: str,
    k_max: int,
    q_max: int,
) -> radial.MixedSpectrum:
    """Mode family of submanifold j on its model annulus [eps, delta]."""
    if not (0 <= j < scenario.b):
        raise ValueError(f"submanifold index {j} out of range 0..{scenario.b - 1}")
    sub = scenario.submanifolds[j]
    d = scenario.sphere_dim(j)
    trans = transverse_spectrum(sub.kind, k_max + 2)
    if len(trans) > k_max + 1:
        next_lam = trans[k_max + 1][0]
        trans = trans[: k_max + 1]
    else:
        next_lam = None  # transverse spectrum exhausted (a point)
    spec = radial.mixed_spectrum(d, trans, eps, delta, outer, q_max, next_lam)
    modes = tuple(dataclasses.replace(mode, j=j) for mode in spec.modes)
    return radial.MixedSpectrum(
        modes=modes,
        omitted_lower_bound=spec.omitted_lower_bound,
        complete=spec.complete,
    )


def _merged(
    scenario: ExcisionScenario,
    eps: float,
    delta: float,
    outer: str,
    k_max: int,
    q_max: int,
    drop_zeros: bool,
) -> tuple[list[ModeEigenvalue], float]:
    entries: list[ModeEigenvalue] = []
    bound = math.inf
    for j in range(scenario.b):
        fam = family(scenario, j, eps, delta, outer, k_max, q_max)
        entries.extend(fam.modes)
        bound = min(bound, fam.omitted_lower_bound)
    if drop_zeros:
        entries = [m for m in entries if not (m.k == 0 and m.q == 0)]
    entries.sort(key=lambda m: (m.value, m.j, m.k, m.q))
    return entries, bound


def _truncate_certified(
    entries: list[ModeEigenvalue], bound: float, count: int
) -> list[ModeEigenvalue] | None:
    out = []
    cum = 0
    for m in entries:
        out.append(m)
        cum += m.multiplicity
        if cum >= count:
            return out if m.value < bound else None
    return None


def truncated_spectrum(
    scenario: ExcisionScenario,
    eps: float,
    delta: float,
    count: int,
    family_kind: str = "SN",
    k_max: int | None = None,
    q_max: int | None = None,
    include_zero_modes: bool = False,
) -> list[ModeEigenvalue]:
    """First eigenvalues of the merged family, certified complete.

    family_kind is "SN" or "SD".  For SN the b zero modes (k = q = 0,
    one per submanifold) are removed unless include_zero_modes is set.
    Entries are grouped by mode and carry multiplicities; the list is
    truncated once the cumulative multiplicity reaches count.  With
    explicit k_max/q_max a window too small to certify completeness
    raises CompletenessError; left as None the window grows as needed.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if family_kind not in ("SN", "SD"):
        raise ValueError(f"family_kind must be 'SN' or 'SD', got {family_kind!r}")
    outer = "Dirichlet" if family_kind == "SD" else "Neumann"
    drop = family_kind == "SN" and not include_zero_modes
    explicit = k_max is not None or q_max is not None
    kw = 6 if k_max is None else k_max
    qw = 6 if q_max is None else q_max
    while True:
        entries, bound = _merged(scenario, eps, delta, outer, kw, qw, drop)
        got = _truncate_certified(entries, bound, count)
        if got is not None:
            return got
        if explicit:
            raise CompletenessError(
                f"k_max={kw}, q_max={qw} cannot certify the first {count} "
                f"{family_kind} eigenvalues at eps={eps}"
            )
        if kw >= _KQ_CAP and qw >= _KQ_CAP:
            raise CompletenessError(
                f"window cap reached certifying {count} {family_kind} "
                f"eigenvalues at eps={eps}"
            )
        kw = min(2 * kw, _KQ_CAP)
        qw = min(2 * qw, _KQ_CAP)


def expand_values(entries: list[ModeEigenvalue], count: int) -> list[float]:
    """Eigenvalues repeated by multiplicity, truncated to count."""
    out: list[float] = []
    for m in entries:
        out.extend([m.value] * m.multiplicity)
        if len(out) >= count:
            return out[:count]
    raise ValueError(f"only {len(out)} eigenvalues available, need {count}")


def bracket(
    scenario: ExcisionScenario,
    eps: float,
    delta: float,
    ell_max: int,
) -> list[tuple[float, float]]:
    """Two-sided bounds for the Steklov eigenvalues of Omega_eps.

    Returns the pairs (sigma_ell^SN(A), sigma_{ell+1}^SD(A)) for
    ell = 0..ell_max, with the index conventions from the module
    docstring; ell = 0 gives (0, sigma_1^SD).  Each family is certified
    once at ell_max + 1 values: a certified list ends below the omitted
    lower bound, so a larger window adds no value at an index <= ell and
    every pair equals the one certified at ell + 1 values alone.
    """
    if ell_max < 0:
        raise ValueError(f"ell_max must be >= 0, got {ell_max}")
    count = ell_max + 1
    sn = truncated_spectrum(scenario, eps, delta, count, "SN", include_zero_modes=True)
    sd = truncated_spectrum(scenario, eps, delta, count, "SD")
    return list(zip(expand_values(sn, count), expand_values(sd, count)))


# ---------------------------------------------------------------------------
# limits and rates


def predicted_limit(m: int, n: int, q: int) -> tuple[float, bool]:
    """Small-eps limit constant for one mode, with its normalization.

    Returns (m - n - 2 + q, log_flag).  log_flag False means
    eps * sigma tends to the constant; True (q = 0 on a codimension-2
    submanifold) means the constant degenerates to 0 and the correct
    statement is eps |log eps| * sigma -> 1.
    """
    if m < 2 or n < 0 or n > m - 2 or q < 0:
        raise ValueError(f"bad mode parameters m={m}, n={n}, q={q}")
    return float(m - n - 2 + q), (q == 0 and n == m - 2)


@dataclass(frozen=True)
class RateFit:
    """Result of extrapolating a normalized eigenvalue sweep to eps -> 0."""

    limit: float
    eps: tuple[float, ...]
    scaled: tuple[float, ...]
    normalization: str
    monotone: bool
    warning: str | None = None


def rate_fit(samples: list[tuple[float, float]], normalization: str) -> RateFit:
    """Extrapolate eps -> 0 from (eps, sigma) samples.

    normalization "inverse_eps" rescales to eps * sigma,
    "inverse_eps_log" to eps |log eps| * sigma, and "identity" takes
    the samples as already scaled.  The limit comes from Richardson
    extrapolation (linear in eps) on the two smallest eps; a
    non-monotone scaled sequence falls back to the last value and
    carries a warning.
    """
    if normalization == "inverse_eps":
        scale = lambda e: e
    elif normalization == "inverse_eps_log":
        scale = lambda e: e * abs(math.log(e))
    elif normalization == "identity":
        scale = lambda e: 1.0
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    if not samples:
        raise ValueError("need at least one sample")
    ordered = sorted(samples, key=lambda t: -t[0])
    eps = tuple(e for e, _ in ordered)
    if len(set(eps)) != len(eps):
        raise ValueError("duplicate eps values in samples")
    if any(e <= 0 for e in eps) or (normalization == "inverse_eps_log" and 1.0 in eps):
        raise ValueError("eps values must be positive (and != 1 for log scaling)")
    scaled = tuple(scale(e) * s for (e, s) in ordered)

    if len(scaled) == 1:
        return RateFit(scaled[0], eps, scaled, normalization, True, "single sample")

    diffs = [b - a for a, b in zip(scaled, scaled[1:])]
    tol = 1e-13 * max(abs(s) for s in scaled)
    monotone = all(d >= -tol for d in diffs) or all(d <= tol for d in diffs)
    if not monotone:
        return RateFit(
            scaled[-1],
            eps,
            scaled,
            normalization,
            False,
            "scaled values are not monotone in eps; reporting the last value",
        )
    e1, e2 = eps[-2], eps[-1]
    s1, s2 = scaled[-2], scaled[-1]
    limit = (s2 * e1 - s1 * e2) / (e1 - e2)
    return RateFit(limit, eps, scaled, normalization, True, None)


# ---------------------------------------------------------------------------
# representative modes for limit verification


@dataclass(frozen=True)
class RateCase:
    """One representative mode family tracked across an eps sweep."""

    j: int
    family: str  # "SN" or "SD"
    k: int
    q: int
    lam: float
    normalization: str  # "inverse_eps", "inverse_eps_log" or "sn_log"
    predicted: float


def rate_cases(scenario: ExcisionScenario, q_max: int = 2) -> list[RateCase]:
    """Lowest-k nonzero representative per (j, family, q).

    SD families are tracked at k = 0.  SN families at q = 0 have the
    zero mode at k = 0, so the representative moves to k = 1 when the
    submanifold has nonconstant Laplace modes, and q = 0 is skipped
    entirely for points.  Normalization is plain eps * sigma except in
    the codimension-2 q = 0 cases, where SD scales by eps |log eps|
    (limit 1) and SN with k != 0 by the Bessel-corrected collar
    normalizer (limit 1).
    """
    cases: list[RateCase] = []
    m = scenario.m
    for j, sub in enumerate(scenario.submanifolds):
        trans = transverse_spectrum(sub.kind, 2)
        for q in range(q_max + 1):
            predicted, log_flag = predicted_limit(m, sub.dim, q)
            cases.append(
                RateCase(
                    j,
                    "SD",
                    0,
                    q,
                    0.0,
                    "inverse_eps_log" if log_flag else "inverse_eps",
                    1.0 if log_flag else predicted,
                )
            )
            if q > 0:
                cases.append(RateCase(j, "SN", 0, q, 0.0, "inverse_eps", predicted))
            elif len(trans) > 1:
                lam = trans[1][0]
                cases.append(
                    RateCase(
                        j,
                        "SN",
                        1,
                        0,
                        lam,
                        "sn_log" if log_flag else "inverse_eps",
                        1.0 if log_flag else predicted,
                    )
                )
    return cases


def scaled_sigma(
    scenario: ExcisionScenario, case: RateCase, eps: float, delta: float
) -> float:
    """The case's eigenvalue at eps, in the case's normalization."""
    outer = "Dirichlet" if case.family == "SD" else "Neumann"
    d = scenario.sphere_dim(case.j)
    mode = radial.RadialMode(d, case.q, case.lam)
    sig = radial.sigma_mixed(mode, eps, delta, outer)
    if case.normalization == "inverse_eps":
        return eps * sig
    if case.normalization == "inverse_eps_log":
        return eps * abs(math.log(eps)) * sig
    if case.normalization == "sn_log":
        return radial.sn_log_normalizer(case.lam, eps, delta) * sig
    raise ValueError(f"unknown normalization {case.normalization!r}")


def rate_table(
    scenario: ExcisionScenario,
    eps_grid: list[float],
    delta: float,
    q_max: int = 2,
) -> list[dict]:
    """Fit every representative mode family against its predicted limit.

    Returns one row per case with the fitted limit from rate_fit on the
    already-normalized samples.
    """
    rows = []
    for case in rate_cases(scenario, q_max):
        samples = [(e, scaled_sigma(scenario, case, e, delta)) for e in eps_grid]
        fit = rate_fit(samples, "identity")
        rows.append(
            {
                "j": case.j,
                "k": case.k,
                "q": case.q,
                "family": case.family,
                "normalization": case.normalization,
                "predicted": case.predicted,
                "fitted": fit.limit,
                "monotone": fit.monotone,
            }
        )
    return rows
