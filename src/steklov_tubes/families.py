"""Merged model spectra for a scenario, bracketing, and rate extraction.

Each excised submanifold N_j contributes one family of mixed eigenvalues
on its model annulus.  The merged SN spectrum of the disjoint union is a
lower bound family and the merged SD spectrum an upper bound family for
the Steklov spectrum of the ambient domain with the tubes removed:

    sigma_ell^SN(A)  <=  sigma_ell(Omega_eps)  <=  sigma_{ell+1}^SD(A),

with the SN list 0-indexed (it starts with b zeros, one per tube) and
the SD list 1-indexed (its smallest value is called sigma_1).  bracket()
returns that pair for every ell up to ell_max, from one SN and one SD
listing.  Each collar lists its modes as an ascending stream (see
radial.mixed_spectrum), and truncated_spectrum merges the b streams, so
only the listed modes and their frontier are ever evaluated.

predicted_limit encodes the small-eps behaviour of an individual mode:
eps * sigma -> m - n - 2 + q, except that for q = 0 on a codimension-2
submanifold (n = m - 2, so d = 1) the correct normalization is
eps |log eps| * sigma -> 1.  scaled_sigma applies a case's normalization,
and rate_fit extracts the limit from the normalized eps sweep by
Richardson extrapolation in eps.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from dataclasses import dataclass

from . import radial
from .errors import CompletenessError
from .harmonics import ExcisionScenario, ModeEigenvalue, transverse_spectrum

DELTA_DEFAULT = 0.5


def family(
    scenario: ExcisionScenario,
    j: int,
    eps: float,
    delta: float,
    outer: str,
) -> Iterator[ModeEigenvalue]:
    """Ascending mode stream of submanifold j on its model annulus [eps, delta].

    The transverse spectrum of N_j is computed as far as the stream
    reads it (each k once, in order), doubling the list when it runs out.
    """
    if not (0 <= j < scenario.b):
        raise ValueError(f"submanifold index {j} out of range 0..{scenario.b - 1}")
    kind = scenario.submanifolds[j].kind
    known: list[tuple[float, int]] = []

    def transverse(k: int) -> tuple[float, int] | None:
        nonlocal known
        if k >= len(known):
            known = transverse_spectrum(kind, 2 * k + 1)
        return known[k] if k < len(known) else None  # None: a point ends at k = 0

    return radial.mixed_spectrum(
        scenario.sphere_dim(j), transverse, eps, delta, outer, j
    )


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
    """First eigenvalues of the merged family, in ascending order.

    family_kind is "SN" or "SD".  For SN the b zero modes (k = q = 0,
    one per submanifold) are removed unless include_zero_modes is set.
    The b ordered collar streams are merged by (value, j, k, q), and
    the list ends once the cumulative multiplicity reaches count, so it
    is the true beginning of the spectrum.
    k_max/q_max cap the walk: a listed mode beyond a cap raises
    CompletenessError.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    outer = radial.outer_condition(family_kind)
    drop = family_kind == "SN" and not include_zero_modes
    streams = [family(scenario, j, eps, delta, outer) for j in range(scenario.b)]
    out: list[ModeEigenvalue] = []
    cum = 0
    for m in heapq.merge(*streams, key=lambda m: (m.value, m.j, m.k, m.q)):
        if drop and m.k == 0 and m.q == 0:
            continue
        if (k_max is not None and m.k > k_max) or (q_max is not None and m.q > q_max):
            raise CompletenessError(
                f"k_max={k_max}, q_max={q_max} cannot certify the first {count} "
                f"{family_kind} eigenvalues at eps={eps}"
            )
        out.append(m)
        cum += m.multiplicity
        if cum >= count:
            return out
    raise AssertionError("mode streams never end")


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
    docstring; ell = 0 gives (0, sigma_1^SD).  Each family is listed
    once, at ell_max + 1 values: a listing is a prefix of the ordered
    mode stream, so every pair equals the one listed at ell + 1 values
    alone.
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
    monotone: bool
    warning: str | None = None


def rate_fit(samples: list[tuple[float, float]]) -> RateFit:
    """Extrapolate eps -> 0 from (eps, scaled sigma) samples.

    The samples are already normalized (see scaled_sigma).  The limit
    comes from Richardson extrapolation (linear in eps) on the two
    smallest eps; a non-monotone scaled sequence falls back to the last
    value and carries a warning.
    """
    if not samples:
        raise ValueError("need at least one sample")
    ordered = sorted(samples, key=lambda t: -t[0])
    eps = tuple(e for e, _ in ordered)
    if len(set(eps)) != len(eps):
        raise ValueError("duplicate eps values in samples")
    if any(e <= 0 for e in eps):
        raise ValueError("eps values must be positive")
    scaled = tuple(s for _, s in ordered)

    if len(scaled) == 1:
        return RateFit(scaled[0], eps, scaled, True, "single sample")

    diffs = [b - a for a, b in zip(scaled, scaled[1:])]
    tol = 1e-13 * max(abs(s) for s in scaled)
    monotone = all(d >= -tol for d in diffs) or all(d <= tol for d in diffs)
    if not monotone:
        return RateFit(
            scaled[-1],
            eps,
            scaled,
            False,
            "scaled values are not monotone in eps; reporting the last value",
        )
    e1, e2 = eps[-2], eps[-1]
    s1, s2 = scaled[-2], scaled[-1]
    limit = (s2 * e1 - s1 * e2) / (e1 - e2)
    return RateFit(limit, eps, scaled, True, None)


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
    if q_max < 0:
        raise ValueError(f"q_max must be >= 0, got {q_max}")
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
    outer = radial.outer_condition(case.family)
    mode = radial.RadialMode(scenario.sphere_dim(case.j), case.q, case.lam)
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
        fit = rate_fit(samples)
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
