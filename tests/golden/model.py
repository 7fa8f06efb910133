"""Golden oracle of the command line: one runner, two manifests.

Each entry is one `steklov-tubes` argv, run in-process from the
repository root.  A manifest next to this file stores its exit code,
its stdout, its stderr and, for an argv that writes `--out`, its
artifact, plus the environment the manifest was recorded in.

  * model.json, the model commands.  Model values are closed forms and
    scaled Bessel kernels, so a refactor of the model layers must
    reproduce every byte: the manifest stores sha256 digests, and one
    ulp moved in one value fails the check.
  * fem.json, the `fem` commands and `verify-all --out`.  Their trailing
    digits follow BLAS and the eigensolvers, so the manifest stores the
    text and every number in it is compared at 1e-10 relative (1e-10
    absolute for the zero modes); the text between the numbers must match
    exactly.  The elapsed times in verify-all's stdout are masked.

Check a manifest, or rewrite it after a deliberate change (log every
changed entry, with its reason, in CHANGES.md).  --update rewrites the
entries that fail the check, or only the argv lists named after it (as
the check prints them), and keeps every other entry byte for byte:

    PYTHONPATH=src python tests/golden/model.py
    PYTHONPATH=src python tests/golden/model.py --fem
    PYTHONPATH=src python tests/golden/model.py [--fem] --update ["ARGV" ...]

The test suite checks every entry except FEM_SLOW (verify-all, about
2 s), which only the `--fem` command runs.
"""

from __future__ import annotations

import argparse
import contextlib
import operator
import hashlib
import io
import json
import math
import os
import platform
import re
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy
import scipy

from steklov_tubes.cli import main

REPO = Path(__file__).resolve().parents[2]
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
    # lists modes past order 50 and sqrt(lam) delta 700
    ["model-spectrum", "--scenario", _scn("torus3-circle"), "--eps", "0.001", "--count", "3000"],
]

ARGV = README + MODEL_SWEEP_SEED0 + MODEL_GRID + CAPS + OTHER

# ---------------------------------------------------------------------------
# the FEM half

_CENTERS = ["--centers", "0.25,0.25", "0.75,0.75"]

# the README fem command, then perfbench/workloads.py, fem-torus at seed 0
# without the library-level suites
FEM_ARGV = [
    ["fem", "--domain", "torus", "--h", "0.002", "--eps", "0.01", *_CENTERS,
     "--count", "9"],
    *(["fem", "--domain", "torus", "--h", h, "--eps", eps, *_CENTERS, "--count", "9",
       *flags, "--out", OUT]
      for eps, h in (("0.05", "0.01"), ("0.01", "0.002"))
      for flags in ([], ["--neumann"])),
    ["fem", "--domain", "disk", "--h", "0.02", "--count", "8", "--out", OUT],
    *(["fem", "--domain", "annulus", "--h", "0.02", "--count", "8", *flags, "--out", OUT]
      for flags in ([], ["--dirichlet-markers", "0"], ["--neumann-markers", "0"],
                    ["--dirichlet-markers", "1"])),
    # the 95k-vertex annulus one block covers, and collars at h 1e-4
    ["verify-all", "--criteria", "9", "--seed", "0", "--out", OUT],
    ["fem", "--domain", "torus", "--h", "0.0001", "--eps", "0.0005", *_CENTERS,
     "--count", "6", "--out", OUT],
]

FEM_SLOW = [["verify-all", "--seed", "0", "--out", OUT]]


def environment() -> dict:
    """What the recorded bytes depend on besides the code."""
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


def run(argv: list[str], workdir: str) -> dict:
    """Run one argv in-process from the repository root; text outputs."""
    path = os.path.join(workdir, "artifact")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([path if arg == OUT else arg for arg in argv])
    artifact = None
    if OUT in argv and os.path.exists(path):
        with open(path, newline="") as fh:  # the bytes as written
            artifact = fh.read()
        os.remove(path)
    return {
        "argv": argv,
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "artifact": artifact,
    }


TEXTS = ("stdout", "stderr", "artifact")


def _sha(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


def _digests(entry: dict) -> dict:
    return {**entry, **{key: _sha(entry[key]) for key in TEXTS}}


_ELAPSED = re.compile(r"\[[0-9.]+s\]")


def _masked(entry: dict) -> dict:
    return {**entry, "stdout": _ELAPSED.sub("[s]", entry["stdout"])}


_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _same_cells(got: str | None, want: str | None) -> bool:
    """Same text between the numbers; numbers within 1e-10 relative, or
    1e-10 absolute (the zero modes)."""
    if got is None or want is None:
        return got is want
    a, b = _NUMBER.split(got), _NUMBER.split(want)
    return len(a) == len(b) and all(
        x == y if i % 2 == 0  # split puts the numbers at odd positions
        else math.isclose(float(x), float(y), rel_tol=1e-10, abs_tol=1e-10)
        for i, (x, y) in enumerate(zip(a, b))
    )


class Manifest(NamedTuple):
    path: Path
    argv: list[list[str]]                 # every entry --update records
    record: Callable[[dict], dict]        # run() -> stored entry
    same: Callable[[str | None, str | None], bool]


HERE = Path(__file__).parent
MODEL = Manifest(HERE / "model.json", ARGV, _digests, operator.eq)
FEM = Manifest(HERE / "fem.json", FEM_ARGV + FEM_SLOW, _masked, _same_cells)


def _differs(manifest: Manifest, got: dict, entry: dict) -> list[str]:
    """The fields of a fresh record that fail the check against the stored entry."""
    fields = ["exit"] if got["exit"] != entry["exit"] else []
    return fields + [key for key in TEXTS if not manifest.same(got[key], entry[key])]


def mismatches(workdir: str, manifest: Manifest = MODEL,
               argvs: list[list[str]] | None = None) -> list[str]:
    """One line per argv (default: all of the manifest's) that differs."""
    recorded = json.loads(manifest.path.read_text())
    want = {tuple(entry["argv"]): entry for entry in recorded["entries"]}
    problems = []
    for argv in manifest.argv if argvs is None else argvs:
        entry = want.get(tuple(argv))
        if entry is None:
            problems.append(f"{' '.join(argv)}: not in the manifest")
            continue
        fields = _differs(manifest, manifest.record(run(argv, workdir)), entry)
        if fields:
            problems.append(f"{' '.join(argv)}: {', '.join(fields)} differ")
    if problems and recorded["environment"] != environment():
        problems.append(f"recorded in {recorded['environment']}, run in {environment()}")
    return problems


def update(workdir: str, manifest: Manifest = MODEL,
           argvs: list[list[str]] | None = None) -> list[str]:
    """Rewrite the entries of `argvs`, by default those that fail the check.

    Every other entry keeps its stored bytes, and a manifest with nothing
    to rewrite is left as it is.  Returns the rewritten argv lists, joined.
    """
    recorded = json.loads(manifest.path.read_text())
    want = {tuple(entry["argv"]): entry for entry in recorded["entries"]}
    named = None if argvs is None else {tuple(argv) for argv in argvs}
    entries, changed = [], []
    for argv in manifest.argv:
        entry = want.get(tuple(argv))
        if named is None or tuple(argv) in named or entry is None:
            got = manifest.record(run(argv, workdir))
            if named is not None or entry is None or _differs(manifest, got, entry):
                entry = got
                changed.append(" ".join(argv))
        entries.append(entry)
    if changed or len(entries) != len(recorded["entries"]):
        text = json.dumps({"environment": environment(), "entries": entries},
                          indent=1, sort_keys=True)
        manifest.path.write_text(text + "\n")
    return changed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--fem", action="store_true",
                        help="check the FEM manifest, verify-all included")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the entries that fail the check, or the named ones")
    parser.add_argument("entries", nargs="*",
                        help="with --update, the argv lists to rewrite, as the check prints them")
    args = parser.parse_args()
    manifest = FEM if args.fem else MODEL
    by_name = {" ".join(argv): argv for argv in manifest.argv}
    if args.entries and not args.update:
        parser.error("argv lists are named only with --update")
    for name in args.entries:
        if name not in by_name:
            parser.error(f"not in the manifest: {name}")
    os.chdir(REPO)
    with tempfile.TemporaryDirectory() as tmp:
        if args.update:
            named = [by_name[name] for name in args.entries] or None
            changed = update(tmp, manifest, named)
            print("\n".join(f"rewrote {name}" for name in changed)
                  or f"{len(manifest.argv)} entries kept")
            sys.exit(0)
        problems = mismatches(tmp, manifest)
    print("\n".join(problems) or f"{len(manifest.argv)} entries match")
    sys.exit(1 if problems else 0)
