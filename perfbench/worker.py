"""One fresh run process: import the CLI, then run a job list back to back.

    python3 worker.py --import-only
    python3 worker.py --jobs JOBS.json --workdir DIR --result OUT.json
                      (--seconds S | --passes N) [--trace]

``--import-only`` prints the time to import ``steklov_tubes.cli`` (numpy
and scipy included) and exits.  Otherwise the worker is the single
client of a closed loop: it runs every job of the list in order, each as
soon as the previous one returns, and repeats the whole list (one
*pass*, written to ``DIR/pass<i>/``) until ``S`` seconds have gone by,
or exactly ``N`` times.  CLI jobs call ``steklov_tubes.cli.main`` in
this process; suite jobs call the FEM check functions.  Nothing is
checked here: the parent process hashes and checks the artifacts after
this process has exited.

While the loop runs, ``SpeedSampler`` times a fixed pure-Python probe
on a side thread; each pass reports its time and the mean probe over
it, so the parent can normalize.  The import time comes with a probe
taken just before and after it.  With ``--trace`` every traced name is
wrapped before the first pass and restored after the last; each job is
the outermost span.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import math
import os
import resource
import sys
import threading
import time
import traceback


def blas_info() -> list[dict]:
    """Config string and thread count of each OpenBLAS numpy/scipy loaded."""
    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), "..", pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    found.append(
                        {
                            "package": pkg.__name__,
                            "config": get_config().decode().strip(),
                            "threads": int(get_threads()),
                        }
                    )
                    break
    return found


def _torus_functions(mesh, ndof, dof, rng, count):
    # Random trigonometric polynomials: periodic, so smooth across the seams.
    import numpy as np

    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    for _ in range(count):
        fv = np.zeros(len(x))
        for _ in range(3):
            kx, ky = rng.integers(-3, 4), rng.integers(-3, 4)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            fv += rng.standard_normal() * np.cos(2.0 * math.pi * (kx * x + ky * y) + phase)
        f = np.zeros(ndof)
        f[dof] = fv
        yield f


def energy_suite(params: dict, out_path: str) -> int:
    """Seeded poincare / dirichlet-energy checks on a periodic torus mesh."""
    import numpy as np
    from steklov_tubes import fem, radial
    from workloads import TORUS_CENTERS

    eps, delta = params["eps"], params["delta"]
    mesh = fem.mesh_torus_minus_disks(1.0, TORUS_CENTERS, eps, params["h"])
    dof, ndof = mesh.dof_map()
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)

    def near(cx, cy):
        d = np.abs(centroids - np.array([cx, cy])) % 1.0
        d = np.minimum(d, 1.0 - d)
        return np.flatnonzero(np.hypot(d[:, 0], d[:, 1]) < 0.15)

    tris_a, tris_b = near(0.25, 0.75), near(0.75, 0.25)
    sigma1 = radial.sigma_mixed(radial.RadialMode(1, 1, 0.0), eps, delta, "Neumann")
    lam1 = float(fem.neumann_spectrum(mesh, 2)[1])
    rng = np.random.default_rng(params["seed"])
    rows = []
    functions = _torus_functions(mesh, ndof, dof, rng, params["functions"])
    for i, f in enumerate(functions):
        supplied = None if i < params["without_lambda1"] else lam1
        for res in (
            fem.poincare_check(mesh, f, tris_a, tris_b, lambda1=supplied),
            fem.dirichlet_energy_check(mesh, f, sigma1, marker=i % 2),
        ):
            rows.append([res.name, bool(res.holds), res.lhs, res.rhs])
    with open(out_path, "w") as out:
        json.dump({"sigma1_sn": sigma1, "lambda1": lam1, "checks": rows}, out, indent=1)
        out.write("\n")
    return 0


def probe() -> float:
    """CPU time of a fixed pure-Python loop: how fast this core runs now."""
    start = time.thread_time()
    acc = 0.0
    for i in range(1, 40001):
        acc += math.sqrt(i) / i
    return time.thread_time() - start


class SpeedSampler:
    """Runs probe() on a side thread every interval seconds.

    Neighbours on a shared host slow pure-Python code and sparse solves
    by up to 2x for seconds to minutes at a time; the probe slows with
    them, so times divided by the mean probe of their interval compare
    across runs.  A probe costs about 4 ms of one core.
    """

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (perf_counter, probe seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.samples.append((time.perf_counter(), probe()))

    def __enter__(self):
        self.samples.append((time.perf_counter(), probe()))
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.samples.append((time.perf_counter(), probe()))
        return False

    def mean(self, start: float, end: float) -> float:
        """Mean probe over [start, end], or the sample nearest to it."""
        samples = list(self.samples)  # the side thread may still append
        inside = [p for t, p in samples if start <= t <= end]
        if inside:
            return sum(inside) / len(inside)
        return min(samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]


def run_job(job: dict, pass_dir: str, tracer) -> dict:
    from steklov_tubes import cli

    stem = os.path.join(pass_dir, job["id"])
    out = stem + (".json" if job["kind"] in ("verify_all", "suite") else ".csv")
    if job["kind"] == "suite":
        span, fn, args = "suite.energy", energy_suite, (job["params"], out)
    else:
        argv = [out if a == "{out}" else a for a in job["argv"]]
        span, fn, args = f"cli.{job['kind']}", cli.main, (argv,)
    error = None
    with open(stem + ".stdout", "w") as so, open(stem + ".stderr", "w") as se:
        with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            start = time.perf_counter()
            try:
                code = tracer.call(span, fn, *args) if tracer else fn(*args)
            except Exception as exc:  # a raising job is a failed job, not a dead run
                code, error = None, repr(exc)
                traceback.print_exc()
            seconds = time.perf_counter() - start
    return {"id": job["id"], "exit": code, "error": error, "seconds": seconds}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--jobs")
    parser.add_argument("--workdir")
    parser.add_argument("--result")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    before = probe()
    start = time.perf_counter()
    from steklov_tubes import cli  # noqa: F401  (the set-up being measured)

    setup_s = time.perf_counter() - start
    setup_probe_s = (before + probe()) / 2.0
    if args.import_only:
        print(json.dumps({"setup_s": setup_s, "probe_s": setup_probe_s}))
        return 0
    # verify-all imports acceptance lazily; load it now so that its
    # bindings exist when the tracer patches every namespace.
    from steklov_tubes import acceptance  # noqa: F401

    with open(args.jobs) as fh:
        jobs = json.load(fh)
    tracer = None
    if args.trace:
        from tracer import PACKAGE, Tracer, install

        tracer = Tracer(PACKAGE)
        install(tracer)
    passes: list[float] = []
    pass_probe: list[float] = []
    records: list[dict] = []
    try:
        with SpeedSampler() as sampler:
            loop_start = time.perf_counter()
            while True:
                pass_dir = os.path.join(args.workdir, f"pass{len(passes)}")
                os.makedirs(pass_dir)
                start = time.perf_counter()
                for job in jobs:
                    records.append(run_job(job, pass_dir, tracer) | {"pass": len(passes)})
                end = time.perf_counter()
                passes.append(end - start)
                pass_probe.append(sampler.mean(start, end))
                if args.passes:
                    if len(passes) >= args.passes:
                        break
                elif end - loop_start >= args.seconds:
                    break
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "pass_s": passes,
        "pass_probe_s": pass_probe,
        "jobs": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas": blas_info(),
    }
    if tracer is not None:
        result["spans"] = {k: list(v) for k, v in tracer.spans.items()}
        result["counts"] = dict(tracer.counts)
        result["patched"] = sorted(tracer.patched)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
