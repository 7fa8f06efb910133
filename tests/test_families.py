"""Merged mode families, bracketing, and rate extrapolation."""

import dataclasses
import math
from pathlib import Path

import pytest

from steklov_tubes.errors import CompletenessError
from steklov_tubes.families import (
    DELTA_DEFAULT,
    bracket,
    expand_values,
    predicted_limit,
    rate_cases,
    rate_fit,
    rate_table,
    scaled_sigma,
    truncated_spectrum,
)
from steklov_tubes.harmonics import (
    Circle,
    ExcisionScenario,
    ModeEigenvalue,
    Point,
    RoundSphere,
    SubmanifoldSpec,
    load_scenario,
    sphere_multiplicity,
    transverse_spectrum,
)
from steklov_tubes.radial import RadialMode, outer_condition, sigma_mixed

PI = math.pi
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def torus_points() -> ExcisionScenario:
    point = SubmanifoldSpec(0, 1.0, Point())
    return ExcisionScenario(m=2, lambda1_M=4 * PI**2, submanifolds=(point, point))


def circle_scenario() -> ExcisionScenario:
    circ = SubmanifoldSpec(1, 2 * PI, Circle(2 * PI))
    return ExcisionScenario(m=4, lambda1_M=1.0, submanifolds=(circ,))


def test_truncated_spectrum_two_points():
    # two identical points on a surface: SN keeps one zero per
    # submanifold when zero modes are included
    eps, delta = 0.03, 0.12
    entries = truncated_spectrum(
        torus_points(), eps, delta, 10, family_kind="SN", include_zero_modes=True
    )
    values = expand_values(entries, 10)
    assert values[0] == 0.0 and values[1] == 0.0
    # q = 1 cluster: one value per submanifold, multiplicity 2 each
    want_q1 = sigma_mixed(RadialMode(1, 1, 0.0), eps, delta, "Neumann")
    assert values[2:6] == pytest.approx([want_q1] * 4, rel=1e-14)
    # dropping zero modes shifts the list
    entries = truncated_spectrum(torus_points(), eps, delta, 4, family_kind="SN")
    assert expand_values(entries, 4) == pytest.approx([want_q1] * 4, rel=1e-14)


def test_truncated_spectrum_sd():
    eps, delta = 0.03, 0.12
    entries = truncated_spectrum(torus_points(), eps, delta, 6, family_kind="SD")
    values = expand_values(entries, 6)
    want_q0 = sigma_mixed(RadialMode(1, 0, 0.0), eps, delta, "Dirichlet")
    want_q1 = sigma_mixed(RadialMode(1, 1, 0.0), eps, delta, "Dirichlet")
    assert values == pytest.approx([want_q0] * 2 + [want_q1] * 4, rel=1e-14)


def test_truncated_spectrum_errors():
    with pytest.raises(ValueError):
        truncated_spectrum(torus_points(), 0.03, 0.12, 0)
    with pytest.raises(ValueError):
        truncated_spectrum(torus_points(), 0.03, 0.12, 3, family_kind="XX")
    # scaled_sigma reads the same family table, and refuses what it lacks
    case = dataclasses.replace(rate_cases(torus_points())[0], family="XX")
    with pytest.raises(ValueError, match="'XX'"):
        scaled_sigma(torus_points(), case, 0.03, 0.12)
    # an explicit window too small to certify must refuse, not truncate
    with pytest.raises(CompletenessError):
        truncated_spectrum(circle_scenario(), 0.1, 0.5, 40, k_max=1, q_max=1)


def window_spectrum(scenario, eps, delta, count, family_kind, include_zero_modes):
    """The window algorithm the ordered walk replaced, kept as a reference.

    Evaluates every mode with k <= kw, q <= qw, sorts, and accepts the
    first count values once the last lies below the cheapest modes just
    outside the window; otherwise doubles both kw and qw and starts over.
    """
    outer = "Dirichlet" if family_kind == "SD" else "Neumann"
    drop = family_kind == "SN" and not include_zero_modes
    kw = qw = 6
    while True:
        entries, bound = [], math.inf
        for j, sub in enumerate(scenario.submanifolds):
            d = scenario.sphere_dim(j)
            trans = transverse_spectrum(sub.kind, kw + 2)
            for k, (lam, mult_k) in enumerate(trans[: kw + 1]):
                for q in range(qw + 1):
                    if drop and k == q == 0:
                        continue
                    value = sigma_mixed(RadialMode(d, q, lam), eps, delta, outer)
                    mult = mult_k * sphere_multiplicity(d, q)
                    entries.append(ModeEigenvalue(value, j, k, q, mult, family_kind))
            probes = [RadialMode(d, qw + 1, 0.0)]
            if len(trans) > kw + 1:
                probes.append(RadialMode(d, 0, trans[kw + 1][0]))
            for mode in probes:
                bound = min(bound, sigma_mixed(mode, eps, delta, outer))
        entries.sort(key=lambda m: (m.value, m.j, m.k, m.q))
        cum = 0
        for i, m in enumerate(entries):
            cum += m.multiplicity
            if cum >= count:
                break
        if cum >= count and m.value < bound:
            return entries[: i + 1]
        kw, qw = 2 * kw, 2 * qw


@pytest.mark.parametrize("name", ["torus-2-points", "sphere-2-points", "torus3-circle"])
def test_walk_matches_window_reference(name):
    scenario = load_scenario(str(SCENARIOS / f"{name}.json"))
    for family_kind, zeros in (("SN", False), ("SN", True), ("SD", False)):
        for eps in (0.1, 0.01, 0.001):
            for count in (1, 7, 40):
                args = (scenario, eps, DELTA_DEFAULT, count, family_kind)
                want = window_spectrum(*args, zeros)
                assert truncated_spectrum(*args, include_zero_modes=zeros) == want


@pytest.mark.parametrize("name", ["torus-2-points", "sphere-2-points", "torus3-circle"])
def test_walk_assumptions_hold_on_listed_modes(name):
    # the walk's completeness rests on sigma nondecreasing in q and in
    # lam_k, and the bracket on SN <= SD; both hold on every listed mode
    # (zero modes included) and its next q and next k, the first exactly.
    # SN <= SD holds to 4 ulp: where sqrt(lam) delta >= 25 (torus3-circle
    # at k >= 8) the outer condition's term falls below rounding, and SN
    # exceeds SD by at most 2 ulp (4.4e-16 relative)
    scenario = load_scenario(str(SCENARIOS / f"{name}.json"))
    for family_kind in ("SN", "SD"):
        outer = outer_condition(family_kind)
        for eps in (1e-2, 1e-3):
            args = (scenario, eps, DELTA_DEFAULT, 100, family_kind)
            for m in truncated_spectrum(*args, include_zero_modes=True):
                d = scenario.sphere_dim(m.j)
                kind = scenario.submanifolds[m.j].kind
                lams = [lam for lam, _ in transverse_spectrum(kind, m.k + 2)]

                def sigma(q, lam, outer=outer):
                    return sigma_mixed(RadialMode(d, q, lam), eps, DELTA_DEFAULT, outer)

                assert sigma(m.q, lams[m.k]) == m.value
                assert sigma(m.q + 1, lams[m.k]) >= m.value
                assert all(sigma(m.q, lam) >= m.value for lam in lams[m.k + 1 :])
                sn, sd = sigma(m.q, lams[m.k], "Neumann"), sigma(m.q, lams[m.k], "Dirichlet")
                assert sn <= sd + 4 * math.ulp(sd)


def test_caps_refuse_modes_beyond():
    # an explicit cap passes when the listing stays inside it and refuses
    # as soon as a listed mode lies beyond it
    scenario = torus3_circle()
    free = truncated_spectrum(scenario, 0.01, DELTA_DEFAULT, 40, "SD")
    k_top = max(m.k for m in free)
    q_top = max(m.q for m in free)
    capped = truncated_spectrum(scenario, 0.01, DELTA_DEFAULT, 40, "SD", k_top, q_top)
    assert capped == free
    with pytest.raises(CompletenessError, match="k_max=None"):
        truncated_spectrum(scenario, 0.01, DELTA_DEFAULT, 40, "SD", q_max=q_top - 1)
    with pytest.raises(CompletenessError, match="q_max=None"):
        truncated_spectrum(scenario, 0.01, DELTA_DEFAULT, 40, "SD", k_max=k_top - 1)


def torus3_circle() -> ExcisionScenario:
    # scenarios/torus3-circle.json: a circle and a point in a flat 3-torus
    circ = SubmanifoldSpec(1, 1.0, Circle(1.0))
    point = SubmanifoldSpec(0, 1.0, Point())
    return ExcisionScenario(m=3, lambda1_M=4 * PI**2, submanifolds=(circ, point))


def test_bracket_ordering():
    # SN_ell <= SD_{ell+1} by the variational characterization
    pairs = bracket(torus_points(), 0.03, 0.12, 7)
    assert len(pairs) == 8
    assert all(lower <= upper for lower, upper in pairs)
    lower, upper = pairs[0]
    assert lower == 0.0
    assert upper == pytest.approx(
        sigma_mixed(RadialMode(1, 0, 0.0), 0.03, 0.12, "Dirichlet"), rel=1e-14
    )
    with pytest.raises(ValueError):
        bracket(torus_points(), 0.03, 0.12, -1)


def test_bracket_matches_per_ell_spectra():
    # one certified spectrum per family gives, bit for bit, the values
    # certified separately at ell + 1 for each ell (Bessel path included)
    scenario = torus3_circle()
    for eps in (0.01, 0.001):
        pairs = bracket(scenario, eps, DELTA_DEFAULT, 12)
        for ell, (lower, upper) in enumerate(pairs):
            sn = truncated_spectrum(
                scenario, eps, DELTA_DEFAULT, ell + 1, "SN", include_zero_modes=True
            )
            sd = truncated_spectrum(scenario, eps, DELTA_DEFAULT, ell + 1, "SD")
            assert lower == expand_values(sn, ell + 1)[ell]
            assert upper == expand_values(sd, ell + 1)[ell]


def test_predicted_limit():
    assert predicted_limit(2, 0, 1) == (1.0, False)
    assert predicted_limit(5, 0, 0) == (3.0, False)
    # codimension 2, q = 0: constant degenerates to 0, log flag set
    assert predicted_limit(4, 2, 0) == (0.0, True)
    assert predicted_limit(4, 2, 1) == (1.0, False)
    with pytest.raises(ValueError):
        predicted_limit(3, 2, 0)


def test_rate_fit_exact_inverse():
    # sigma = c/eps gives scaled values identically c: limit c, monotone
    c = 3.7
    samples = [(e, e * (c / e)) for e in (1e-2, 1e-3, 1e-4)]
    fit = rate_fit(samples)
    assert fit.limit == pytest.approx(c, rel=1e-12)
    assert fit.monotone and fit.warning is None


def test_rate_fit_richardson():
    # scaled = L + a eps: Richardson on the two smallest recovers L
    lim, slope = 2.0, 5.0
    samples = [(e, lim + slope * e) for e in (1e-2, 1e-3, 1e-4)]
    fit = rate_fit(samples)
    assert fit.limit == pytest.approx(lim, rel=1e-10)


def test_rate_fit_identity_and_warnings():
    fit = rate_fit([(0.1, 1.0), (0.01, 1.5), (0.001, 1.2)])
    assert not fit.monotone
    assert fit.warning is not None
    assert fit.limit == 1.2
    with pytest.raises(ValueError):
        rate_fit([(0.1, 1.0), (0.1, 1.1)])
    with pytest.raises(ValueError):
        rate_fit([(0.1, 1.0), (0.0, 1.0)])


def test_rate_cases_structure():
    cases = rate_cases(torus_points(), q_max=2)
    # per submanifold: SD q=0 (log), SD/SN q=1, SD/SN q=2; SN q=0 is the
    # zero mode for a point and is skipped
    per_j = [c for c in cases if c.j == 0]
    kinds = {(c.family, c.q, c.normalization) for c in per_j}
    assert ("SD", 0, "inverse_eps_log") in kinds
    assert ("SN", 1, "inverse_eps") in kinds
    assert ("SD", 2, "inverse_eps") in kinds
    assert not any(c.family == "SN" and c.q == 0 for c in per_j)
    # circle in m=3 is codimension 2: the SN q=0 representative sits at
    # k=1 and carries the corrected log normalization
    circ = SubmanifoldSpec(1, 2 * PI, Circle(2 * PI))
    codim2 = ExcisionScenario(m=3, lambda1_M=1.0, submanifolds=(circ,))
    cases = rate_cases(codim2, q_max=1)
    sn0 = [c for c in cases if c.family == "SN" and c.q == 0]
    assert len(sn0) == 1 and sn0[0].k == 1 and sn0[0].normalization == "sn_log"
    assert sn0[0].lam == pytest.approx(1.0)
    # circle in m=4 is codimension 3: plain modes everywhere, SD q=0
    # limit is m - n - 2 = 1
    cases = rate_cases(circle_scenario(), q_max=1)
    sd0 = [c for c in cases if c.family == "SD" and c.q == 0]
    assert len(sd0) == 1 and sd0[0].normalization == "inverse_eps"
    assert sd0[0].predicted == 1.0
    # a negative q range is refused, not answered with no cases
    with pytest.raises(ValueError):
        rate_cases(torus_points(), q_max=-1)


def test_scaled_sigma_matches_prediction():
    scenario = torus_points()
    for case in rate_cases(scenario, q_max=2):
        eps = 1e-6 if case.normalization != "inverse_eps" else 1e-5
        tol = 0.06 if case.normalization != "inverse_eps" else 0.01
        val = scaled_sigma(scenario, case, eps, DELTA_DEFAULT)
        assert val == pytest.approx(case.predicted, rel=tol)


def test_rate_table_rows():
    grid = [1e-4, 1e-5, 1e-6]
    rows = rate_table(torus_points(), grid, DELTA_DEFAULT, q_max=1)
    assert all(
        set(("j", "k", "q", "family", "normalization", "predicted", "fitted"))
        <= set(r)
        for r in rows
    )
    plain = [r for r in rows if r["normalization"] == "inverse_eps"]
    assert plain and all(
        r["fitted"] == pytest.approx(r["predicted"], rel=1e-6) for r in plain
    )
