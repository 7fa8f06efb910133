"""Golden oracle for the model half of the command line.

Each entry is one `steklov-tubes` argv.  The manifest next to this file
(model.json) stores its exit code and the sha256 of its stdout, its
stderr and, for an argv that writes `--out`, its artifact, plus the
environment the manifest was recorded in.  Model values are closed
forms and scaled Bessel kernels, so a refactor of the model layers must
reproduce every byte: one ulp moved in one value fails the check.

Check the manifest, or rewrite it after a deliberate change (log every
changed entry, with its reason, in CHANGES.md):

    PYTHONPATH=src python tests/golden/model.py
    PYTHONPATH=src python tests/golden/model.py --update
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

from steklov_tubes.cli import main

REPO = Path(__file__).resolve().parents[2]
MANIFEST = Path(__file__).with_name("model.json")
OUT = "{out}"  # replaced by an artifact path when the argv runs

SCENARIOS = ("torus-2-points", "sphere-2-points", "torus3-circle")
MODEL_EPS = ("0.1", "0.01", "0.001")


def _scn(name: str) -> str:
    return f"scenarios/{name}.json"


README = [
    ["model-spectrum", "--scenario", _scn("torus-2-points"), "--eps", "0.01",
     "--count", "6", "--family", "SD"],
    ["bracket", "--scenario", _scn("torus-2-points"), "--eps", "0.01", "--ell-max", "2"],
    ["bracket", "--scenario", _scn("torus3-circle"), "--eps", "0.01", "--ell-max", "3"],
    ["rates", "--scenario", _scn("torus-2-points"), "--eps", "1e-3", "1e-4", "1e-5", "1e-6"],
    ["sphere-caps", "--eps", "0.7853981633974483", "--n", "1"],
    ["bounds", "--scenario", _scn("torus-2-points")],
]

# perfbench/workloads.py, model-sweep at seed 0, without the FEM sentinel
MODEL_SWEEP_SEED0 = [
    ["bracket", "--scenario", "scenarios/torus3-circle.json", "--eps", "0.010275537481220039", "--ell-max", "49", "--out", "{out}"],
    ["model-spectrum", "--scenario", "scenarios/torus3-circle.json", "--eps", "0.010275537481220039", "0.0010206363522352242", "--count", "60", "--family", "SN", "--out", "{out}"],
    ["model-spectrum", "--scenario", "scenarios/torus3-circle.json", "--eps", "0.010275537481220039", "0.0010206363522352242", "--count", "60", "--family", "SD", "--out", "{out}"],
    ["rates", "--scenario", "scenarios/torus3-circle.json", "--eps", "0.0009936457264664677", "9.80713340023437e-05", "1.0009019777094887e-05", "9.923947309960332e-07", "--out", "{out}"],
    ["bounds", "--scenario", "scenarios/torus3-circle.json", "--out", "{out}"],
    ["bracket", "--scenario", "scenarios/torus-2-points.json", "--eps", "0.010227038871227818", "0.0009842650180863141", "--ell-max", "49", "--out", "{out}"],
    ["model-spectrum", "--scenario", "scenarios/torus-2-points.json", "--eps", "0.010227038871227818", "0.0009842650180863141", "--count", "60", "--family", "SN", "--out", "{out}"],
    ["model-spectrum", "--scenario", "scenarios/torus-2-points.json", "--eps", "0.010227038871227818", "0.0009842650180863141", "--count", "60", "--family", "SD", "--out", "{out}"],
    ["rates", "--scenario", "scenarios/torus-2-points.json", "--eps", "0.0009981277563321884", "0.00010066705631564027", "1.032649030815627e-05", "1.0003749484653912e-06", "--out", "{out}"],
    ["bounds", "--scenario", "scenarios/torus-2-points.json", "--out", "{out}"],
    ["bracket", "--scenario", "scenarios/sphere-2-points.json", "--eps", "0.009825470275519763", "0.001020464336332578", "--ell-max", "49", "--out", "{out}"],
    ["model-spectrum", "--scenario", "scenarios/sphere-2-points.json", "--eps", "0.009825470275519763", "0.001020464336332578", "--count", "60", "--family", "SN", "--out", "{out}"],
    ["model-spectrum", "--scenario", "scenarios/sphere-2-points.json", "--eps", "0.009825470275519763", "0.001020464336332578", "--count", "60", "--family", "SD", "--out", "{out}"],
    ["rates", "--scenario", "scenarios/sphere-2-points.json", "--eps", "0.0010094695197340265", "9.800405073089954e-05", "1.0327797004774594e-05", "1.0386228380830121e-06", "--out", "{out}"],
    ["bounds", "--scenario", "scenarios/sphere-2-points.json", "--out", "{out}"],
    ["sphere-caps", "--eps", "0.8048896871899247", "--n", "2", "--oracle-grid", "4000", "--out", "{out}"],
    ["sphere-caps", "--eps", "0.09848118055455467", "0.010183865398608103", "--count", "40", "--out", "{out}"],
]

# SN with and without the zero modes and SD, on every scenario
MODEL_GRID = [
    ["model-spectrum", "--scenario", _scn(name), "--eps", eps, "--count", count, *flags]
    for name in SCENARIOS
    for flags in (["--family", "SN"], ["--family", "SN", "--include-zero-modes"],
                  ["--family", "SD"])
    for eps in MODEL_EPS
    for count in ("1", "7", "40", "100")
]

# explicit --kmax/--qmax caps, enough and too small
CAPS = [
    ["model-spectrum", "--scenario", _scn("torus3-circle"), "--eps", "0.1", "--count", "40",
     "--kmax", "1", "--qmax", "1"],
    ["model-spectrum", "--scenario", _scn("torus3-circle"), "--eps", "0.01", "--count", "20",
     "--kmax", "30", "--qmax", "30"],
    ["model-spectrum", "--scenario", _scn("torus3-circle"), "--eps", "0.01", "--count", "40",
     "--family", "SD", "--kmax", "3"],
    ["model-spectrum", "--scenario", _scn("torus3-circle"), "--eps", "0.001", "--count", "40",
     "--kmax", "20"],
    ["model-spectrum", "--scenario", _scn("torus-2-points"), "--eps", "0.01", "--count", "12",
     "--qmax", "10"],
    ["model-spectrum", "--scenario", _scn("sphere-2-points"), "--eps", "0.001", "--count", "30",
     "--qmax", "2"],
]

OTHER = [
    *(["bracket", "--scenario", _scn(name), "--eps", eps, "--ell-max", "30"]
      for name in SCENARIOS for eps in MODEL_EPS),
    ["bracket", "--scenario", _scn("torus3-circle"), "--eps", "0.05", "0.005", "--delta", "0.3",
     "--ell-max", "12", "--format", "json"],
    *(["rates", "--scenario", _scn(name), "--eps", "1e-2", "1e-3", "1e-4", "--qmax", "3"]
      for name in SCENARIOS),
    ["rates", "--scenario", _scn("torus3-circle"), "--eps", "1e-3", "1e-4", "1e-5", "--delta",
     "0.3", "--format", "json"],
    *(["bounds", "--scenario", _scn(name), *flags]
      for name in SCENARIOS
      for flags in ([], ["--format", "json"],
                    ["--eps", "0.01", "0.001", "--sigma1", "5.0", "50.0", "--format", "json"])),
    *(["sphere-caps", "--eps", eps, "--count", count]
      for eps in ("0.01", "0.1", "0.5", "1.0", "1.5") for count in ("1", "8", "40", "99")),
    *(["sphere-caps", "--eps", "0.3", "--n", n, "--format", "json"] for n in ("0", "1", "7", "50")),
    ["sphere-caps", "--eps", "1.0", "--n", "3", "--oracle-grid", "500"],
    # need modes up to N_MAX (and one past it: exit 1)
    ["sphere-caps", "--eps", "1.55", "--count", "100"],
    ["sphere-caps", "--eps", "0.1", "--count", "199"],
    ["sphere-caps", "--eps", "0.1", "--count", "201"],
]

ARGV = README + MODEL_SWEEP_SEED0 + MODEL_GRID + CAPS + OTHER


def environment() -> dict:
    """What the model bytes depend on besides the code."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 only prints its build configuration
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], workdir: str) -> dict:
    """Run one argv in-process from the repository root."""
    path = os.path.join(workdir, "artifact")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([path if arg == OUT else arg for arg in argv])
    artifact = None
    if OUT in argv and os.path.exists(path):
        with open(path, "rb") as fh:
            artifact = _sha(fh.read())
        os.remove(path)
    return {
        "argv": argv,
        "exit": code,
        "stdout": _sha(stdout.getvalue().encode()),
        "stderr": _sha(stderr.getvalue().encode()),
        "artifact": artifact,
    }


def mismatches(workdir: str) -> list[str]:
    """One line per argv whose run differs from the manifest."""
    manifest = json.loads(MANIFEST.read_text())
    want = {tuple(entry["argv"]): entry for entry in manifest["entries"]}
    problems = []
    for argv in ARGV:
        entry = want.get(tuple(argv))
        if entry is None:
            problems.append(f"{' '.join(argv)}: not in the manifest")
            continue
        got = run(argv, workdir)
        fields = [key for key in ("exit", "stdout", "stderr", "artifact") if got[key] != entry[key]]
        if fields:
            problems.append(f"{' '.join(argv)}: {', '.join(fields)} differ")
    if problems and manifest["environment"] != environment():
        problems.append(f"recorded in {manifest['environment']}, run in {environment()}")
    return problems


def update(workdir: str) -> None:
    entries = [run(argv, workdir) for argv in ARGV]
    manifest = {"environment": environment(), "entries": entries}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--update", action="store_true", help="rewrite the manifest")
    args = parser.parse_args()
    os.chdir(REPO)
    with tempfile.TemporaryDirectory() as tmp:
        if args.update:
            update(tmp)
            sys.exit(0)
        problems = mismatches(tmp)
    print("\n".join(problems) or f"{len(ARGV)} entries match")
    sys.exit(1 if problems else 0)
