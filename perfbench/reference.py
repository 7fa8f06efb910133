"""Reference checks that do not come from the code under test.

Every artifact a job writes is checked here, after the timed loop, in
the parent process.  The references are computed from the formulas of
the paper and the README, written out again in this file, never by
calling ``steklov_tubes``:

* lambda = 0 collar modes: power and log solutions of the radial ODE;
* lambda > 0 collar modes: the same ODE with modified Bessel functions
  from ``mpmath`` at 30 digits, on a seeded sample of rows (integer
  orders cost tens of milliseconds each in mpmath);
* disk and annulus P1 spectra against separated closed forms (the
  acceptance tolerance of 1%), torus Steklov spectra inside the paper's
  SN <= FEM <= SD bracket (2% slack) and torus Neumann spectra near the
  flat torus;
* the sphere band between two caps: closed forms, their boundary
  determinant, and the ODE oracle rows;
* the lower-bound constant from its three explicit terms;
* ``verify-all``: exit 0, a ``PASS`` line for every criterion asked
  for and a summary with no ``FAIL`` check;
* SN <= SD for every mode listed in both families.

CSV cells are parsed as numbers whether they read ``1.0`` or
``np.float64(1.0)``; the second form is counted, not rejected.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import random
import re

import mpmath

MP = mpmath.MPContext()
MP.dps = 30

DELTA_DEFAULT = 0.5  # the CLI's documented collar radius
MODEL_RTOL = 1e-10   # model values against the references
FEM_RTOL = 0.01      # FEM against closed forms (acceptance tolerance)
BRACKET_SLACK = 0.02
NEUMANN_RTOL = 0.10  # torus holes of radius 0.05 move Neumann values ~6%
ORACLE_RTOL = 1e-5   # ODE oracle at grid 4000
DET_TOL = 1e-9
# SN and SD values of one mode agree to the last digits once (eps/delta)^(2q)
# underflows; two formulas then round either way, so orderings allow this.
ORDER_RTOL = 1e-14
BESSEL_SAMPLE = 8    # lambda > 0 rows checked with mpmath per job

_NP_CELL = re.compile(r"^np\.float64\((.*)\)$")


def num(cell: str) -> float:
    """A CSV number, written either as a repr float or as np.float64(...)."""
    match = _NP_CELL.match(cell)
    return float(match.group(1) if match else cell)


def np_repr_cells(text: str) -> int:
    return text.count("np.float64(")


def read_csv(text: str) -> tuple[list[str], list[dict]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class Verdict:
    """Problems found in one artifact, plus the FEM errors it measured."""

    def __init__(self):
        self.problems: list[str] = []
        self.fem_errors: list[float] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def close(self, got: float, want, what: str, rtol: float = MODEL_RTOL) -> None:
        want = float(want)
        if want == 0.0:
            self.expect(abs(got) <= 1e-12, f"{what}: {got!r} vs 0")
        else:
            rel = abs(got - want) / abs(want)
            self.expect(rel <= rtol, f"{what}: {got!r} vs {want!r} (rel {rel:.2e})")

    def fem(self, got: float, want, what: str) -> None:
        want = float(want)
        if want == 0.0:
            self.expect(abs(got) <= 1e-8, f"{what}: {got!r} vs 0")
            return
        rel = abs(got - want) / want
        self.fem_errors.append(rel)
        self.expect(rel <= FEM_RTOL, f"{what}: {got!r} vs {want!r} (rel {rel:.2e})")


# ---------------------------------------------------------------------------
# model problems


def load_scenario(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def sphere_dim(scn: dict, j: int) -> int:
    return scn["m"] - scn["submanifolds"][j]["dim"] - 1


def sphere_mult(d: int, q: int) -> int:
    if q == 0:
        return 1
    return math.comb(d + q, d) - math.comb(d + q - 2, d)


def transverse(kind: dict, k: int) -> tuple[float, int] | None:
    """(lambda_k, multiplicity) of a point or a circle; None past the end."""
    if kind["type"] == "point":
        return (0.0, 1) if k == 0 else None
    if kind["type"] == "circle":
        return (0.0, 1) if k == 0 else ((2.0 * math.pi * k / kind["length"]) ** 2, 2)
    raise ValueError(f"no reference transverse spectrum for {kind['type']!r}")


def _solutions(d: int, q: int, lam: float):
    """Two fundamental solutions of the radial ODE as (value, derivative) maps."""
    if lam == 0.0:
        beta = q + d - 1
        if q == 0 and d == 1:
            return (lambda r: (MP.one, MP.zero)), (lambda r: (MP.log(r), 1 / r))
        return (
            lambda r: (r**q, q * r ** (q - 1)),
            lambda r: (r ** (-beta), -beta * r ** (-beta - 1)),
        )
    s = MP.mpf(d - 1) / 2
    nu = q + s
    t = MP.sqrt(MP.mpf(lam))

    def make(z, dz):
        def sol(r):
            x = t * r
            zx = z(nu, x)
            return r ** (-s) * zx, -s * r ** (-s - 1) * zx + t * r ** (-s) * dz(x, zx)

        return sol

    i_sol = make(MP.besseli, lambda x, ix: MP.besseli(nu + 1, x) + nu / x * ix)
    k_sol = make(MP.besselk, lambda x, kx: -MP.besselk(nu + 1, x) + nu / x * kx)
    return i_sol, k_sol


@functools.lru_cache(maxsize=None)
def sigma_ref(d: int, q: int, lam: float, eps: float, delta: float, outer: str):
    """-a'(eps)/a(eps) for the mode with a(delta) = 0 or a'(delta) = 0."""
    u1, u2 = _solutions(d, q, lam)
    eps, delta = MP.mpf(eps), MP.mpf(delta)
    slot = 0 if outer == "Dirichlet" else 1
    c1, c2 = u2(delta)[slot], u1(delta)[slot]
    (v1, dv1), (v2, dv2) = u1(eps), u2(eps)
    a, da = v1 * c1 - v2 * c2, dv1 * c1 - dv2 * c2
    return -da / a if da != 0 else MP.zero


def merged(
    scn: dict, eps: float, outer: str, count: int, zeros: bool, delta: float = DELTA_DEFAULT
) -> list[float]:
    """First count values of the merged family, by multiplicity.

    Walks the (k, q) grid of every submanifold from its corner; sigma is
    nondecreasing in k and q, so values come out in ascending order.
    """
    heap, seen, out = [], set(), []

    def push(j, k, q):
        lam = transverse(scn["submanifolds"][j]["kind"], k)
        if lam is None or (j, k, q) in seen:
            return
        seen.add((j, k, q))
        d = sphere_dim(scn, j)
        value = sigma_ref(d, q, lam[0], eps, delta, outer)
        heapq.heappush(heap, (value, j, k, q, lam[1] * sphere_mult(d, q)))

    for j in range(len(scn["submanifolds"])):
        push(j, 0, 0)
    while len(out) < count:
        value, j, k, q, mult = heapq.heappop(heap)
        if zeros or (k, q) != (0, 0) or outer == "Dirichlet":
            out.extend([float(value)] * mult)
        push(j, k + 1, q)
        push(j, k, q + 1)
    return out[:count]


def _needs_bessel(scn: dict) -> bool:
    return any(s["kind"]["type"] != "point" for s in scn["submanifolds"])


def check_bracket(job, text, v: Verdict, ctx) -> None:
    p = job["params"]
    scn = load_scenario(p["scenario"])
    _, rows = read_csv(text)
    count = p["ell_max"] + 1
    v.expect(len(rows) == len(p["eps"]) * count, f"{len(rows)} rows")
    closed = {}
    if not _needs_bessel(scn):
        for eps in p["eps"]:
            closed[eps] = (merged(scn, eps, "Neumann", count, True),
                           merged(scn, eps, "Dirichlet", count, False))
    for row in rows:
        eps, ell = num(row["eps"]), int(row["ell"])
        lower, upper = num(row["lower"]), num(row["upper"])
        v.expect(lower <= upper * (1 + ORDER_RTOL), f"eps={eps} ell={ell}: SN {lower!r} > SD {upper!r}")
        if eps in closed:
            v.close(lower, closed[eps][0][ell], f"lower eps={eps} ell={ell}")
            v.close(upper, closed[eps][1][ell], f"upper eps={eps} ell={ell}")
    ctx.setdefault("bracket", []).append((job["id"], scn, p["scenario"], rows))


def check_model_spectrum(job, text, v: Verdict, ctx) -> None:
    p = job["params"]
    scn = load_scenario(p["scenario"])
    outer = "Dirichlet" if p["family"] == "SD" else "Neumann"
    _, rows = read_csv(text)
    bessel_rows = []
    for eps in p["eps"]:
        mine = [r for r in rows if num(r["eps"]) == eps]
        values = []
        for r in mine:
            j, k, q = int(r["j"]), int(r["k"]), int(r["q"])
            sigma = num(r["sigma"])
            lam, mult_k = transverse(scn["submanifolds"][j]["kind"], k)
            d = sphere_dim(scn, j)
            v.expect(int(r["multiplicity"]) == mult_k * sphere_mult(d, q), f"multiplicity {r}")
            v.expect(r["family"] == p["family"], f"family {r}")
            if lam == 0.0:
                v.close(sigma, sigma_ref(d, q, lam, eps, DELTA_DEFAULT, outer), f"eps={eps} {(j, k, q)}")
            else:
                bessel_rows.append((d, q, lam, eps, sigma, (j, k, q)))
            values.extend([sigma] * int(r["multiplicity"]))
            ctx.setdefault("modes", {}).setdefault(
                (p["scenario"], eps, j, k, q), {}
            )[p["family"]] = (sigma, job["id"])
        ctx.setdefault("listing", {})[(p["scenario"], eps, p["family"])] = values
        v.expect(len(values) >= p["count"], f"eps={eps}: {len(values)} values < {p['count']}")
        if not _needs_bessel(scn):
            want = merged(scn, eps, outer, p["count"], False)
            for i, (got, ref) in enumerate(zip(values, want)):
                v.close(got, ref, f"eps={eps} value {i}")
    rng = random.Random(f"{ctx['seed']}/{job['id']}")
    for d, q, lam, eps, sigma, mode in rng.sample(bessel_rows, min(BESSEL_SAMPLE, len(bessel_rows))):
        v.close(sigma, sigma_ref(d, q, lam, eps, DELTA_DEFAULT, outer), f"mpmath eps={eps} {mode}")


def _rate_cases(scn: dict) -> dict:
    """(j, family, k, q) -> (lambda, normalization, predicted) per the paper."""
    m, cases = scn["m"], {}
    for j, sub in enumerate(scn["submanifolds"]):
        n = sub["dim"]
        for q in range(3):
            log_flag = q == 0 and n == m - 2
            limit = float(m - n - 2 + q)
            cases[(j, "SD", 0, q)] = (0.0, "inverse_eps_log" if log_flag else "inverse_eps",
                                      1.0 if log_flag else limit)
            if q > 0:
                cases[(j, "SN", 0, q)] = (0.0, "inverse_eps", limit)
            elif transverse(sub["kind"], 1) is not None:
                lam = transverse(sub["kind"], 1)[0]
                cases[(j, "SN", 1, 0)] = (lam, "sn_log" if log_flag else "inverse_eps",
                                          1.0 if log_flag else limit)
    return cases


def _scaled(scn, j, family, q, lam, norm, eps):
    outer = "Dirichlet" if family == "SD" else "Neumann"
    sig = sigma_ref(sphere_dim(scn, j), q, lam, eps, DELTA_DEFAULT, outer)
    e = MP.mpf(eps)
    if norm == "inverse_eps":
        return e * sig
    if norm == "inverse_eps_log":
        return e * abs(MP.log(e)) * sig
    rt = MP.sqrt(MP.mpf(lam))
    x2 = rt * DELTA_DEFAULT
    return e * (abs(MP.log(rt * e)) + MP.besselk(1, x2) / MP.besseli(1, x2)) * sig


def check_rates(job, text, v: Verdict, ctx) -> None:
    p = job["params"]
    scn = load_scenario(p["scenario"])
    _, rows = read_csv(text)
    cases = _rate_cases(scn)
    keys = {(int(r["j"]), r["family"], int(r["k"]), int(r["q"])) for r in rows}
    v.expect(keys == set(cases), f"rate cases {sorted(keys)} vs {sorted(cases)}")
    eps = sorted(p["eps"], reverse=True)
    for r in rows:
        key = (int(r["j"]), r["family"], int(r["k"]), int(r["q"]))
        if key not in cases:
            continue
        lam, norm, predicted = cases[key]
        v.expect(r["normalization"] == norm, f"{key}: normalization {r['normalization']}")
        v.close(num(r["predicted"]), predicted, f"{key}: predicted")
        scaled = [_scaled(scn, key[0], key[1], key[3], lam, norm, e) for e in eps]
        diffs = [b - a for a, b in zip(scaled, scaled[1:])]
        monotone = all(x >= 0 for x in diffs) or all(x <= 0 for x in diffs)
        v.expect(r["monotone"] == str(monotone), f"{key}: monotone {r['monotone']}")
        e1, e2 = MP.mpf(eps[-2]), MP.mpf(eps[-1])
        limit = (scaled[-1] * e1 - scaled[-2] * e2) / (e1 - e2) if monotone else scaled[-1]
        fitted = num(r["fitted"])
        v.close(fitted, limit, f"{key}: fitted")
        tol = 0.01 if norm == "inverse_eps" else 0.06
        v.expect(abs(fitted - predicted) <= tol * predicted,
                 f"{key}: fitted {fitted!r} misses the limit {predicted} by more than {tol}")


def check_bounds(job, text, v: Verdict, ctx) -> None:
    scn = load_scenario(job["params"]["scenario"])
    _, rows = read_csv(text)
    subs, m = scn["submanifolds"], scn["m"]
    b = len(subs)
    omega = lambda d: 2 * MP.pi ** (MP.mpf(d + 1) / 2) / MP.gamma(MP.mpf(d + 1) / 2)
    pre = [s["volume"] * omega(sphere_dim(scn, j)) for j, s in enumerate(subs)]
    p_min, p_max = min(pre) ** 2, max(pre) ** 2
    terms = {
        "dimension": max(min(m - s["dim"] - 2 for s in subs), 1) / MP.mpf(4),
        "volume": p_min / (16 * b * (b - 1) ** 2),
        "spectral": scn["lambda1_M"] * p_min / (128 * m * b * (b - 1) ** 2 * p_max),
    }
    binding = min(terms, key=terms.get)
    v.expect(len(rows) == 1, f"{len(rows)} rows")
    row = rows[0]
    v.close(num(row["constant_C"]), terms[binding], "constant_C")
    v.close(num(row["exponent"]), MP.one / (m + 1), "exponent")
    for name, value in terms.items():
        v.close(num(row[f"term_{name}"]), value, f"term_{name}")
    v.expect(row["binding_term"] == binding, f"binding {row['binding_term']} vs {binding}")


# ---------------------------------------------------------------------------
# sphere with two caps


def _caps_closed(n: int, eps: float):
    e = MP.mpf(eps)
    if n == 0:
        return MP.zero, 1 / (MP.sin(e) * MP.log(MP.cot(e / 2)))
    t = MP.tan(e / 2) ** (2 * n)
    return n * (1 - t) / (MP.sin(e) * (1 + t)), n * (1 + t) / (MP.sin(e) * (1 - t))


def _caps_determinant(n: int, eps: float, sigma: float):
    e = MP.mpf(eps)
    t2 = MP.tan(e / 2) ** (4 * n)
    csc = 1 / MP.sin(e)
    terms = ((1 - t2) * sigma**2, -2 * n * (1 + t2) * csc * sigma, n * n * (1 - t2) * csc**2)
    return abs(sum(terms)) / max(abs(x) for x in terms)


def check_sphere_caps(job, text, v: Verdict, ctx) -> None:
    p = job["params"]
    _, rows = read_csv(text)
    for eps in p["eps"]:
        mine = [r for r in rows if num(r["eps"]) == eps]
        if "n" in p:
            n = p["n"]
            lo, hi = _caps_closed(n, eps)
            by_family = {}
            for r in mine:
                by_family.setdefault(r["family"], []).append(num(r["sigma"]))
            v.expect(sorted(by_family) == ["even", "odd", "oracle"], f"families {sorted(by_family)}")
            for fam, want in (("even", lo), ("odd", hi)):
                for got in by_family.get(fam, []):
                    v.close(got, want, f"{fam} n={n} eps={eps}")
                    if n:
                        res = _caps_determinant(n, eps, MP.mpf(got))
                        v.expect(res <= DET_TOL, f"{fam} n={n}: determinant residual {res}")
            oracle = sorted(by_family.get("oracle", []))
            v.expect(len(oracle) == 2, f"{len(oracle)} oracle rows")
            for got, want in zip(oracle, (lo, hi)):
                v.close(got, want, f"oracle n={n} eps={eps}", ORACLE_RTOL if want else 1e-12)
        else:
            want = []
            for n in range(p["count"] + 1):
                lo, hi = _caps_closed(n, eps)
                mult = 1 if n == 0 else 2
                want += [float(lo)] * mult + [float(hi)] * mult
            want.sort()
            got = []
            for r in mine:
                got.extend([num(r["sigma"])] * int(r["multiplicity"]))
            v.expect(len(got) >= p["count"], f"eps={eps}: {len(got)} values")
            for i, (g, w) in enumerate(zip(got[: p["count"]], want)):
                v.close(g, w, f"caps eps={eps} value {i}")


# ---------------------------------------------------------------------------
# FEM


def _radial_pair(n: int):
    if n == 0:
        return (lambda r: (MP.one, MP.zero)), (lambda r: (MP.log(r), 1 / r))
    return (lambda r: (r**n, n * r ** (n - 1))), (lambda r: (r ** (-n), -n * r ** (-n - 1)))


def annulus_values(a: float, b: float, markers: dict, count: int) -> list[float]:
    """Closed-form spectrum of the annulus a < r < b (inner marker 0, outer 1)."""
    a, b = MP.mpf(a), MP.mpf(b)
    fixed = {m: bc for bc, ms in markers.items() for m in ms}
    values = []
    for n in range(count + 2):
        u1, u2 = _radial_pair(n)
        if not fixed:
            # outer u' = sigma u, inner -u' = sigma u: a quadratic in sigma
            (q1, p1), (q2, p2) = u1(b), u2(b)
            (s1, r1), (s2, r2) = u1(a), u2(a)
            r1, r2 = -r1, -r2
            coeffs = (q1 * s2 - q2 * s1, -(p1 * s2 + q1 * r2 - p2 * s1 - q2 * r1), p1 * r2 - p2 * r1)
            roots = [MP.re(x) for x in MP.polyroots(coeffs)] if coeffs[0] else [-coeffs[2] / coeffs[1]]
        else:
            (marker, bc), = fixed.items()
            at, free = (a, b) if marker == 0 else (b, a)
            slot = 0 if bc == "dirichlet" else 1
            c1, c2 = u2(at)[slot], u1(at)[slot]
            (v1, dv1), (v2, dv2) = u1(free), u2(free)
            val, der = v1 * c1 - v2 * c2, dv1 * c1 - dv2 * c2
            sign = 1 if marker == 0 else -1  # outward normal at the Steklov circle
            roots = [sign * der / val if der else MP.zero]
        for root in roots:
            values += [float(root)] * (1 if n == 0 else 2)
    # the zero root of the quadratic comes back as roundoff
    return sorted(0.0 if abs(x) < 1e-20 else x for x in values)[:count]


def _torus_bracket(eps: float, count: int):
    # two point holes on the flat 2-torus, collars of radius 4 eps
    scn = {"m": 2, "submanifolds": [{"dim": 0, "kind": {"type": "point"}}] * 2}
    lower = merged(scn, eps, "Neumann", count, True, 4.0 * eps)
    upper = merged(scn, eps, "Dirichlet", count, False, 4.0 * eps)
    return lower, upper


def check_fem(job, text, v: Verdict, ctx) -> None:
    p = job["params"]
    _, rows = read_csv(text)
    got = [num(r["sigma"]) for r in rows]
    v.expect(len(got) == p["count"], f"{len(got)} values")
    if p["domain"] == "disk":
        want = sorted([0.0] + [n / p["radius"] for n in range(1, p["count"]) for _ in (0, 1)])
        for i, (g, w) in enumerate(zip(got, want)):
            v.fem(g, w, f"disk sigma_{i}")
    elif p["domain"] == "annulus":
        want = annulus_values(p["r_in"], p["r_out"], p["markers"], p["count"])
        for i, (g, w) in enumerate(zip(got, want)):
            v.fem(g, w, f"annulus {p['markers']} sigma_{i}")
    elif p["neumann"]:
        flat = sorted(4 * math.pi**2 * (a * a + b * b) for a in range(-3, 4) for b in range(-3, 4))
        v.expect(abs(got[0]) <= 1e-8, f"Neumann lambda_0 {got[0]!r}")
        for i, (g, w) in enumerate(zip(got[1:], flat[1:]), 1):
            v.expect(abs(g - w) <= NEUMANN_RTOL * w, f"Neumann lambda_{i}: {g!r} vs flat {w!r}")
    else:
        lower, upper = _torus_bracket(p["eps"], p["count"])
        for i, g in enumerate(got):
            v.expect(lower[i] <= g * (1 + BRACKET_SLACK) and g <= upper[i] * (1 + BRACKET_SLACK),
                     f"torus sigma_{i}: {lower[i]!r} <= {g!r} <= {upper[i]!r} fails")


def _verify_all_fem(v: Verdict, summary: list) -> None:
    # criterion 9 prints its FEM values; compare them with our closed forms
    line = re.compile(r"^(?:ok|FAIL): (annulus|disk) sigma_(\d+): (\S+) vs")
    annulus = annulus_values(0.5, 1.0, {}, 8)
    disk = [0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0]
    seen = 0
    for crit in summary:
        if crit.get("index") != 9:
            continue
        for check in crit["checks"]:
            match = line.match(check)
            if match:
                domain, i, value = match.group(1), int(match.group(2)), float(match.group(3))
                v.fem(value, (annulus if domain == "annulus" else disk)[i], f"criterion 9 {domain} sigma_{i}")
                seen += 1
    v.expect(seen == 16, f"criterion 9 reported {seen} FEM values, expected 16")


def check_verify_all(job, text, v: Verdict, ctx) -> None:
    summary = json.loads(text)
    asked = set(job["params"]["criteria"])
    passed = {c["index"] for c in summary if c["passed"]}
    v.expect(passed == asked, f"passed criteria {sorted(passed)}")
    fails = [line for c in summary for line in c["checks"] if line.startswith("FAIL")]
    v.expect(not fails, f"failing checks {fails[:3]}")
    pass_lines = {int(m.group(1)) for m in re.finditer(r"^criterion\s+(\d+) PASS ", ctx["stdout"], re.M)}
    v.expect(pass_lines == asked, f"PASS lines for {sorted(pass_lines)}")
    if 9 in asked:
        _verify_all_fem(v, summary)


def check_suite(job, text, v: Verdict, ctx) -> None:
    p = job["params"]
    data = json.loads(text)
    v.close(data["sigma1_sn"], sigma_ref(1, 1, 0.0, p["eps"], p["delta"], "Neumann"), "sigma1_sn")
    lam = 4 * math.pi**2
    v.expect(abs(data["lambda1"] - lam) <= NEUMANN_RTOL * lam, f"lambda1 {data['lambda1']!r}")
    v.expect(len(data["checks"]) == 2 * p["functions"], f"{len(data['checks'])} checks")
    for name, holds, lhs, rhs in data["checks"]:
        v.expect(holds, f"{name}: {lhs!r} < {rhs!r}")


CHECKS = {
    "bracket": check_bracket,
    "model_spectrum": check_model_spectrum,
    "rates": check_rates,
    "bounds": check_bounds,
    "sphere_caps": check_sphere_caps,
    "fem": check_fem,
    "verify_all": check_verify_all,
    "suite": check_suite,
}


def check_artifact(job: dict, text: str, ctx: dict) -> Verdict:
    v = Verdict()
    try:
        CHECKS[job["kind"]](job, text, v, ctx)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        v.problems.append(f"unreadable artifact: {exc!r}")
    return v


def check_cross(ctx: dict) -> dict[str, list[str]]:
    """Checks across artifacts, as job id -> problems.

    SN <= SD for every mode listed in both families, and every bracket
    row equal to the model-spectrum listings at the same eps: the SN
    list with the b zero modes in front, and the SD list.
    """
    problems: dict[str, list[str]] = {}
    for (_, eps, *mode), fams in ctx.get("modes", {}).items():
        if len(fams) == 2 and not fams["SN"][0] <= fams["SD"][0] * (1 + ORDER_RTOL):
            problems.setdefault(fams["SN"][1], []).append(
                f"eps={eps} mode {tuple(mode)}: SN {fams['SN'][0]!r} > SD {fams['SD'][0]!r}"
            )
    listing = ctx.get("listing", {})
    for job_id, scn, scenario, rows in ctx.get("bracket", []):
        zeros = [0.0] * len(scn["submanifolds"])
        for row in rows:
            eps, ell = num(row["eps"]), int(row["ell"])
            sn, sd = listing.get((scenario, eps, "SN")), listing.get((scenario, eps, "SD"))
            if sn is None or sd is None:
                continue
            v = Verdict()
            v.close(num(row["lower"]), (zeros + sn)[ell], f"lower eps={eps} ell={ell} vs model-spectrum")
            v.close(num(row["upper"]), sd[ell], f"upper eps={eps} ell={ell} vs model-spectrum")
            problems.setdefault(job_id, []).extend(v.problems)
    return {k: v for k, v in problems.items() if v}
