"""The steklov-tubes benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {model-sweep,verify-all,fem-torus}
                             --seed N --seconds S --trace {0,1}

Run it from the repository root.  The program under test is
``src/steklov_tubes``, imported from source; nothing is built.

Each run starts fresh processes (``worker.py``) and waits for each:

1. four that only import ``steklov_tubes.cli``; with the import timed in
   the measuring worker below, ``setup_s`` is the median of five;
2. the measuring worker, a single closed-loop client that runs the
   workload's job list back to back until ``S`` seconds have passed
   (at least once).  ``wall_s`` is the median time of one job list and
   ``peak_rss_mb`` the worker's maximum resident set.  Times are
   normalized by a speed probe sampled while they run (``normalized``);
3. with ``--trace 1`` also a traced worker that runs the list once with
   every traced name wrapped (see ``tracer.py``); for ``fem-torus`` one
   more traced worker runs with BLAS limited to one thread, as the
   plain baseline recorded in the results file.

Then, outside every timed region, each artifact is hashed and checked
against references that do not come from the code under test (see
``reference.py``).  A job fails when it raises, exits nonzero or misses
a reference.  Everything, including the sha256 of every artifact and
the environment, goes to ``.perfbench/results/``; the last line on
stdout is the JSON summary: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170.0
BLAS1_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MODEL_KINDS = ("bracket", "model_spectrum", "rates")
CLI_KINDS = ("bracket", "model_spectrum", "rates", "sphere_caps", "bounds", "fem", "verify_all")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fem_rel_err": "ratio"}


# Probe time (worker.probe) of the reference machine, a 2-vCPU Intel Xeon
# with Python 3.11.7, while no neighbour contends for its cores.
NOMINAL_PROBE_S = 0.004


def normalized(seconds: float, probe_s: float) -> float:
    """A time rescaled to the reference machine's uncontended speed."""
    return seconds * NOMINAL_PROBE_S / probe_s


def list_time(run: dict) -> float:
    """Median normalized time of one job list over a worker's passes."""
    return statistics.median(map(normalized, run["pass_s"], run["pass_probe_s"]))


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    def __init__(self, root: str, deadline: float):
        self.root = root
        self.deadline = deadline
        pythonpath = [os.path.join(root, "src"), HERE]
        if os.environ.get("PYTHONPATH"):
            pythonpath.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

    def worker(self, *args: str, extra_env: dict | None = None) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError("out of time before starting a worker")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), *args],
                cwd=self.root,
                env=dict(self.env, **(extra_env or {})),
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"worker {args[:2]} ran past the deadline") from exc
        if proc.returncode != 0:
            raise BenchmarkError(f"worker {args[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc.stdout

    def import_time(self) -> float:
        """Normalized time to import the CLI in a fresh process."""
        out = json.loads(self.worker("--import-only"))
        return normalized(out["setup_s"], out["probe_s"])

    def loop(self, workdir: str, jobs_path: str, *flags: str, extra_env=None) -> dict:
        result = os.path.join(workdir, "result.json")
        self.worker(
            "--jobs", jobs_path, "--workdir", workdir, "--result", result, *flags,
            extra_env=extra_env,
        )
        with open(result) as fh:
            out = json.load(fh)
        out["workdir"] = workdir
        return out


# ---------------------------------------------------------------------------
# checking


def _artifact(workdir: str, p: int, job: dict) -> str:
    ext = ".json" if job["kind"] in ("verify_all", "suite") else ".csv"
    return os.path.join(workdir, f"pass{p}", job["id"] + ext)


def check_runs(runs: dict, jobs: list[dict], seed: int) -> tuple[list[dict], list[float]]:
    """Hash and check every attempt; returns per-job attempts and the FEM errors."""
    by_id = {job["id"]: job for job in jobs}
    ctx = {"seed": seed}
    verdicts: dict[tuple[str, str], reference.Verdict] = {}
    attempts = {job["id"]: [] for job in jobs}
    fem_errors: list[float] = []
    for name, run in runs.items():
        for rec in run["jobs"]:
            job = by_id[rec["id"]]
            path = _artifact(run["workdir"], rec["pass"], job)
            attempt = {"run": name, "pass": rec["pass"], "exit": rec["exit"],
                       "seconds": rec["seconds"], "sha256": None, "problems": []}
            if rec["error"] or rec["exit"] != 0:
                attempt["problems"].append(f"exit {rec['exit']} {rec['error'] or ''}".strip())
            if not os.path.isfile(path):
                attempt["problems"].append("no artifact written")
            else:
                with open(path, "rb") as fh:
                    data = fh.read()
                attempt["sha256"] = hashlib.sha256(data).hexdigest()
                key = (job["id"], attempt["sha256"])
                if key not in verdicts:
                    with open(path[: path.rindex(".")] + ".stdout") as fh:
                        ctx["stdout"] = fh.read()
                    verdicts[key] = reference.check_artifact(job, data.decode(), ctx)
                    if name == "plain":
                        fem_errors += verdicts[key].fem_errors
                attempt["problems"] += verdicts[key].problems
            attempts[job["id"]].append(attempt)
    for job_id, problems in reference.check_cross(ctx).items():
        for attempt in attempts[job_id]:
            attempt["problems"] += problems
    records = [
        {"id": job["id"], "kind": job["kind"], "params": job["params"],
         "argv": job.get("argv"), "attempts": attempts[job["id"]]}
        for job in jobs
    ]
    return records, fem_errors


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass


def per_layer(traced: dict, plain_wall: float, jobs: list[dict]) -> dict:
    spans, counts = traced["spans"], traced["counts"]
    patched = set(traced["patched"])
    calls = lambda *n: sum(spans.get(x, [0])[0] for x in n)
    total = lambda *n: sum(spans.get(x, [0, 0.0])[1] for x in n)
    self_s = lambda *n: sum(spans.get(x, [0, 0.0, 0.0])[2] for x in n)
    ratio = lambda a, b: a / b if b else 0.0
    layer = lambda prefix: sorted(n for n in patched if n.startswith(prefix + "."))
    out: dict[str, float] = {}

    def put(name, needs, value):
        if all(n in patched for n in needs):
            out[name] = value()

    bessel = layer("bessel")
    if bessel:
        out["bessel.calls"] = calls(*bessel)
        out["bessel.s"] = self_s(*bessel)
        out["bessel.us_per_call"] = 1e6 * ratio(self_s(*bessel), calls(*bessel))
    sm, ms = "radial.sigma_mixed", "radial.mixed_spectrum"
    put("radial.sigma_mixed.calls", [sm], lambda: calls(sm))
    put("radial.sigma_mixed.self_s", [sm], lambda: self_s(sm))
    put("radial.mixed_spectrum.calls", [ms], lambda: calls(ms))
    put("radial.mixed_spectrum.self_s", [ms], lambda: self_s(ms))
    put("radial.us_per_mode", [sm], lambda: 1e6 * ratio(total(sm), calls(sm)))
    ts, fam = "families.truncated_spectrum", "families.family"
    put("families.truncated_spectrum.calls", [ts], lambda: calls(ts))
    put("families.family.calls", [fam], lambda: calls(fam))
    put("families.family_per_spectrum", [ts, fam], lambda: ratio(calls(fam), calls(ts)))
    model_rows = 0
    np_cells = 0
    size = 0
    for job in jobs:
        path = _artifact(traced["workdir"], 0, job)
        if not os.path.isfile(path):
            continue
        with open(path) as fh:
            text = fh.read()
        size += len(text.encode())
        np_cells += reference.np_repr_cells(text)
        if job["kind"] in MODEL_KINDS:
            model_rows += max(text.count("\n") - 1, 0)
    put("families.modes_per_row", [sm], lambda: ratio(calls(sm), model_rows))
    families = layer("families")
    if families:
        out["families.self_s"] = self_s(*families)
    tr = "harmonics.transverse_spectrum"
    put(f"{tr}.calls", [tr], lambda: calls(tr))
    put(f"{tr}.s", [tr], lambda: total(tr))
    put("spherecaps.ode_oracle.calls", ["spherecaps.ode_oracle"], lambda: calls("spherecaps.ode_oracle"))
    caps = layer("spherecaps")
    if caps:
        out["spherecaps.s"] = self_s(*caps)
    writers = [n for n in ("tables.write_csv", "tables.write_json") if n in patched]
    if writers:
        out["tables.write_s"] = total(*writers)
    out["tables.bytes"] = size
    out["tables.np_repr_cells"] = np_cells
    for kind in CLI_KINDS:
        out[f"cli.{kind}_s"] = total(f"cli.{kind}")
    out["cli.self_s"] = self_s(*(f"cli.{kind}" for kind in CLI_KINDS))
    out["suite.energy_s"] = total("suite.energy")
    if "acceptance.run" in patched:
        for i in range(1, 11):
            out[f"acceptance.c{i:02d}_s"] = counts.get(f"acceptance.c{i:02d}_s", 0.0)
        out["acceptance.passed"] = counts.get("acceptance.passed", 0.0)
    builders = [n for n in ("fem.mesh.mesh_planar", "fem.mesh.mesh_torus_minus_disks") if n in patched]
    builds = calls(*builders)
    if builders:
        out["fem.mesh.builds"] = builds
        out["fem.mesh.build_s"] = total(*builders)
        out["fem.mesh.vertices"] = counts.get("fem.mesh.vertices", 0.0)
    dm = "fem.mesh.dof_map"
    put(f"{dm}.calls", [dm], lambda: calls(dm))
    put(f"{dm}_s", [dm], lambda: total(dm))
    put(f"{dm}_per_build", [dm], lambda: ratio(calls(dm), builds))
    asm = "fem.solve.assemble"
    put(f"{asm}.calls", [asm], lambda: calls(asm))
    put(f"{asm}_s", [asm], lambda: total(asm))
    put(f"{asm}_per_mesh", [asm], lambda: ratio(calls(asm), builds))
    fac = "fem.solve.factor"
    put(f"{fac}.calls", [fac], lambda: calls(fac))
    put(f"{fac}_s", [fac], lambda: total(fac))
    put(f"{fac}_fill_nnz", [fac], lambda: counts.get(f"{fac}_fill_nnz", 0.0))
    put("fem.solve.lu_solve_s", [fac], lambda: total("fem.solve.lu_solve"))
    put("fem.solve.lu_solve_rhs", [fac], lambda: counts.get("fem.solve.lu_solve_rhs", 0.0))
    st = "fem.solve.steklov_spectrum"
    put("fem.solve.steklov_self_s", [st], lambda: self_s(st))
    de, se = "fem.solve.dense_eig", "fem.solve.sparse_eig"
    put(f"{de}.calls", [de], lambda: calls(de))
    put(f"{de}_s", [de], lambda: total(de))
    put(f"{de}_n", [de], lambda: counts.get(f"{de}_n", 0.0))
    put(f"{se}.calls", [se], lambda: calls(se))
    put(f"{se}_s", [se], lambda: total(se))
    nm = "fem.solve.neumann_spectrum"
    put("fem.solve.neumann_s", [nm], lambda: total(nm))
    checks = layer("fem.checks")
    if checks:
        out["fem.checks.calls"] = calls(*checks)
        out["fem.checks.self_s"] = self_s(*checks)
        out["fem.checks.holds_frac"] = ratio(counts.get("fem.checks.holds", 0.0), calls(*checks))
    out["trace.wall_s"] = traced["pass_s"][0]
    out["trace.self_sum_s"] = sum(v[2] for v in spans.values())
    out["trace.overhead_s"] = list_time(traced) - plain_wall
    out["proc.blas_threads"] = max((b["threads"] for b in traced["blas"]), default=0)
    return out


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("us_per_call") or name.endswith("us_per_mode"):
        return "us"
    if name == "tables.bytes":
        return "bytes"
    if name.endswith("_frac") or name.endswith("_per_spectrum") or name.endswith("_per_row") \
            or name.endswith("_per_build") or name.endswith("_per_mesh"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------


def environment(blas: list[dict]) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "python": platform.python_version(),
        **versions,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "steklov_tubes", "cli.py")):
        print("perfbench: src/steklov_tubes not found; run from the repository root",
              file=sys.stderr)
        return 2
    runner = Runner(root, time.monotonic() + DEADLINE_S)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    base = os.path.join(root, ".perfbench", tag)
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    jobs = jobs_for(args.workload, args.seed)
    jobs_path = os.path.join(base, "jobs.json")
    with open(jobs_path, "w") as fh:
        json.dump(jobs, fh, indent=1)

    try:
        setups = [runner.import_time() for _ in range(SETUP_SAMPLES - 1)]
        runs = {"plain": runner.loop(os.path.join(base, "plain"), jobs_path,
                                     "--seconds", repr(args.seconds))}
        if args.trace:
            runs["traced"] = runner.loop(os.path.join(base, "traced"), jobs_path,
                                         "--passes", "1", "--trace")
            if args.workload == "fem-torus":
                runs["traced_blas1"] = runner.loop(os.path.join(base, "traced_blas1"), jobs_path,
                                                   "--passes", "1", "--trace", extra_env=BLAS1_ENV)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    plain = runs["plain"]
    setups.append(normalized(plain["setup_s"], plain["setup_probe_s"]))

    records, fem_errors = check_runs(runs, jobs, args.seed)
    attempted = sum(len(r["attempts"]) for r in records)
    failed = sum(1 for r in records for a in r["attempts"] if a["problems"])
    wall = list_time(plain)
    end_to_end = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    if fem_errors:
        end_to_end["fem_rel_err"] = max(fem_errors)
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(plain["blas"]),
        "passes": plain["pass_s"],
        "pass_probes": plain["pass_probe_s"],
        "raw_wall_s": statistics.median(plain["pass_s"]),
        "setup_samples": setups,
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "jobs": records,
    }
    if args.trace:
        layers = per_layer(runs["traced"], wall, jobs)
        results["per_layer"] = layers
        results["spans"] = runs["traced"]["spans"]
        if "traced_blas1" in runs:
            blas1 = runs["traced_blas1"]
            results["blas1_baseline"] = {
                "wall_s": blas1["pass_s"][0],
                "normalized_wall_s": list_time(blas1),
                "blas": blas1["blas"],
                "per_layer": per_layer(blas1, wall, jobs),
            }
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    results_path = os.path.join(root, ".perfbench", "results", tag + ".json")
    os.makedirs(os.path.dirname(results_path), exist_ok=True)
    with open(results_path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)

    env = results["environment"]
    threads = ",".join(str(b["threads"]) for b in env["blas"])
    print(f"# {tag}: {len(plain['pass_s'])} passes, wall_s {wall:.3f}, "
          f"setup_s {end_to_end['setup_s']:.3f}, error_rate {failed}/{attempted}")
    print(f"# python {env['python']} numpy {env['numpy']} scipy {env['scipy']}, "
          f"BLAS threads {threads}, nproc {env['nproc']}, cpu {env['cpu_model']}")
    if "blas1_baseline" in results:
        print(f"# traced pass {layers['trace.wall_s']:.3f} s with default BLAS threads, "
              f"{results['blas1_baseline']['wall_s']:.3f} s with one")
    for rec in records:
        for a in rec["attempts"]:
            for problem in a["problems"][:3]:
                print(f"# FAIL {rec['id']} ({a['run']} pass {a['pass']}): {problem}")
    print(f"# results: {os.path.relpath(results_path, root)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
