"""The benchmark's three workloads, each a job list drawn from a seed.

A job is a plain dict: ``kind`` (the CLI subcommand with ``_`` for
``-``, or ``suite`` for a library-level check suite), ``id`` (unique in
the list, also the artifact file stem), ``params`` (what the reference
checks read; they never parse ``argv``) and, for CLI jobs, ``argv``
with the placeholder ``{out}`` for the artifact path.

Why each workload exists
------------------------

model-sweep
    The README's model commands on all three ``scenarios/``: ``bracket``
    for ell 0..49, ``model-spectrum`` SN and SD, ``rates`` down to eps
    1e-6, ``sphere-caps`` with ``--oracle-grid`` and ``bounds``.  The
    bessel, radial and families layers do nearly all of the work.
    ``bracket`` recomputes the same certified spectra for every ell (the
    reuse case of per-ell caching); one-shot ``model-spectrum`` and
    ``rates`` calls have no reuse.  The point scenarios take the lambda=0
    closed form and never reach the Bessel kernels.  One small disk FEM
    job (about 1% of a pass) is the closed-form sentinel that gives the
    ``fem_rel_err`` metric a value on this workload.
verify-all
    The ten-criterion acceptance suite, as two ``verify-all`` calls:
    criteria 1-9 with the benchmark seed, and criterion 10 with the
    CLI's default seed 0.  The dense Steklov Schur complement on the
    95k-dof annulus of criterion 9 is most of it; the model layers are a
    few percent.  Criterion 10 is not given the benchmark seed because
    it fails today for about 30% of seeds (e.g. ``verify-all --seed 4``:
    the radial scaling law misses its 1e-10 gate through cancellation in
    the Bessel path), and a benchmark run must not fail; that defect is
    open, and seed 0 is the seed the tests pass it with.  Only criterion
    8 draws from the seed among 1-9.
fem-torus
    The README ``fem`` commands: torus Steklov and Neumann, disk, and
    the annulus with Dirichlet and Neumann markers, plus seeded
    periodic-torus ``poincare_check`` and ``dirichlet_energy_check``
    suites, some with lambda_1 supplied and some without.  Many small
    assemblies, Neumann pencils and periodic mesh builds, and no large
    Schur complement.  The 2124-dof torus is below ``DENSE_CUTOFF``
    (dense ``eigh``) and the 3474-dof torus is above it (``eigsh``), so
    a change to that dual path is measured on both sides.

How the seed is used
--------------------

The seed perturbs every eps by at most +-4% around fixed anchors
(1e-2, 1e-3, ...) and picks the random functions of the check suites
and the seed of verify-all criteria 1-9.  Over that band the certified windows, and so
the number of kernel calls, do not change, which keeps the work per
run constant while the inputs differ between seeds.

Requests left out
-----------------

The Bessel kernels refuse orders above 50.  On ``torus3-circle`` a
``model-spectrum --count 100`` at eps <= 1e-3 needs such orders and
exits 1 today, so counts stay at 60 or below.  A later change that
lifts the ceiling would otherwise read as a slowdown (more work done)
or turn a failing job into a passing one, and neither would be a like
for like comparison.
"""

from __future__ import annotations

import math
import random

SCENARIOS = ("torus3-circle", "torus-2-points", "sphere-2-points")
TORUS_CENTERS = ((0.25, 0.25), (0.75, 0.75))
ELL_MAX = 49
MODEL_COUNT = 60
RATE_ANCHORS = (1e-3, 1e-4, 1e-5, 1e-6)
ORACLE_GRID = 4000
# (hole radius, edge length): 2124 dofs (dense eigh) and 3474 dofs (eigsh)
TORUS_MESHES = ((0.05, 0.01), (0.01, 0.002))
SUITE_FUNCTIONS = 24
SUITE_WITHOUT_LAMBDA1 = 2
COLLAR_DELTA = 0.2


def _jitter(rng: random.Random, anchor: float) -> float:
    return anchor * (1.0 + rng.uniform(-0.04, 0.04))


def _cli(kind: str, job_id: str, argv: list[str], **params) -> dict:
    return {
        "kind": kind,
        "id": job_id,
        "argv": [kind.replace("_", "-"), *argv, "--out", "{out}"],
        "params": params,
    }


def _model_sweep(rng: random.Random) -> list[dict]:
    jobs = []
    for name in SCENARIOS:
        path = f"scenarios/{name}.json"
        e2, e3 = _jitter(rng, 1e-2), _jitter(rng, 1e-3)
        # Only torus3-circle reaches the Bessel kernels; the bracket sweep
        # there is the expensive reuse case, so it runs at one eps.
        bracket_eps = [e2] if name == "torus3-circle" else [e2, e3]
        jobs.append(
            _cli(
                "bracket",
                f"bracket-{name}",
                ["--scenario", path, "--eps", *map(repr, bracket_eps),
                 "--ell-max", str(ELL_MAX)],
                scenario=path, eps=bracket_eps, ell_max=ELL_MAX,
            )
        )
        for family in ("SN", "SD"):
            jobs.append(
                _cli(
                    "model_spectrum",
                    f"model-spectrum-{family}-{name}",
                    ["--scenario", path, "--eps", repr(e2), repr(e3),
                     "--count", str(MODEL_COUNT), "--family", family],
                    scenario=path, eps=[e2, e3], count=MODEL_COUNT, family=family,
                )
            )
        rate_eps = [_jitter(rng, a) for a in RATE_ANCHORS]
        jobs.append(
            _cli(
                "rates",
                f"rates-{name}",
                ["--scenario", path, "--eps", *map(repr, rate_eps)],
                scenario=path, eps=rate_eps,
            )
        )
        jobs.append(
            _cli("bounds", f"bounds-{name}", ["--scenario", path], scenario=path)
        )
    cap_eps = _jitter(rng, math.pi / 4.0)
    n = rng.randint(1, 5)
    jobs.append(
        _cli(
            "sphere_caps",
            "sphere-caps-oracle",
            ["--eps", repr(cap_eps), "--n", str(n), "--oracle-grid", str(ORACLE_GRID)],
            eps=[cap_eps], n=n, oracle_grid=ORACLE_GRID,
        )
    )
    caps = [_jitter(rng, 1e-1), _jitter(rng, 1e-2)]
    jobs.append(
        _cli(
            "sphere_caps",
            "sphere-caps-count",
            ["--eps", *map(repr, caps), "--count", "40"],
            eps=caps, count=40,
        )
    )
    jobs.append(
        _cli(
            "fem",
            "fem-disk-sentinel",
            ["--domain", "disk", "--h", "0.05", "--count", "8"],
            domain="disk", radius=1.0, count=8,
        )
    )
    return jobs


def _verify_all(rng: random.Random, seed: int) -> list[dict]:
    seeded = list(range(1, 10))
    return [
        _cli("verify_all", "verify-all-c01-c09",
             ["--criteria", ",".join(map(str, seeded)), "--seed", str(seed)],
             criteria=seeded, seed=seed),
        _cli("verify_all", "verify-all-c10", ["--criteria", "10"], criteria=[10], seed=0),
    ]


def _fem_torus(rng: random.Random, seed: int) -> list[dict]:
    jobs = []
    for eps, h in TORUS_MESHES:
        centers = [f"{x},{y}" for x, y in TORUS_CENTERS]
        for neumann in (False, True):
            tag = "neumann" if neumann else "steklov"
            jobs.append(
                _cli(
                    "fem",
                    f"fem-torus-{tag}-{eps}",
                    ["--domain", "torus", "--h", repr(h), "--eps", repr(eps),
                     "--centers", *centers, "--count", "9",
                     *(["--neumann"] if neumann else [])],
                    domain="torus", eps=eps, h=h, count=9, neumann=neumann,
                )
            )
    jobs.append(
        _cli(
            "fem",
            "fem-disk",
            ["--domain", "disk", "--h", "0.02", "--count", "8"],
            domain="disk", radius=1.0, count=8,
        )
    )
    for markers in ({}, {"dirichlet": [0]}, {"neumann": [0]}, {"dirichlet": [1]}):
        flags = []
        for bc, ms in markers.items():
            flags += [f"--{bc}-markers", *map(str, ms)]
        tag = "-".join(f"{bc}{ms[0]}" for bc, ms in markers.items()) or "steklov"
        jobs.append(
            _cli(
                "fem",
                f"fem-annulus-{tag}",
                ["--domain", "annulus", "--h", "0.02", "--count", "8", *flags],
                domain="annulus", r_in=0.5, r_out=1.0, count=8, markers=markers,
            )
        )
    for i, (eps, h) in enumerate(TORUS_MESHES):
        jobs.append(
            {
                "kind": "suite",
                "id": f"suite-energy-{eps}",
                "params": {
                    "eps": eps, "h": h, "delta": COLLAR_DELTA,
                    "functions": SUITE_FUNCTIONS,
                    "without_lambda1": SUITE_WITHOUT_LAMBDA1,
                    "seed": seed * len(TORUS_MESHES) + i,
                },
            }
        )
    return jobs


WORKLOADS = {
    "model-sweep": lambda rng, seed: _model_sweep(rng),
    "verify-all": _verify_all,
    "fem-torus": _fem_torus,
}


def jobs_for(workload: str, seed: int) -> list[dict]:
    """The job list of a workload; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(seed), seed)
