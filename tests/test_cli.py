"""Command line driver: exit codes, anchors, and byte-stable artifacts."""

import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from steklov_tubes.cli import main
from steklov_tubes.spherecaps import sigma_pm

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"
TORUS = str(SCENARIOS / "torus-2-points.json")


def test_model_spectrum_csv(capsys):
    code = main(["model-spectrum", "--scenario", TORUS, "--eps", "0.01", "--count", "4"])
    out, err = capsys.readouterr()
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("eps,j,k,q,family,multiplicity,sigma")
    # count is multiplicity-weighted: two rows of multiplicity 2
    mults = [int(line.split(",")[5]) for line in lines[1:]]
    assert sum(mults) == 4
    assert "# delta = 0.5 (default)" in err


def test_exit_codes(capsys, tmp_path):
    # missing scenario file
    assert main(["model-spectrum", "--scenario", "no-such.json", "--eps", "0.01"]) == 1
    _, err = capsys.readouterr()
    assert json.loads(err)["error"] == "configuration"
    # eps grid must be strictly decreasing
    assert main(["model-spectrum", "--scenario", TORUS, "--eps", "0.01", "0.02"]) == 1
    capsys.readouterr()
    # eps must stay below delta
    assert main(["model-spectrum", "--scenario", TORUS, "--eps", "0.7"]) == 1
    capsys.readouterr()
    # rates needs at least three eps values
    assert main(["rates", "--scenario", TORUS, "--eps", "0.01", "0.001"]) == 1
    capsys.readouterr()
    # unknown subcommand goes through the same error path as bad config
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    # torus fem needs a hole radius
    assert main(["fem", "--domain", "torus", "--h", "0.02"]) == 1
    capsys.readouterr()
    # check rows are JSON-only
    assert (
        main(
            ["bounds", "--scenario", TORUS, "--eps", "0.01", "--sigma1", "5.0",
             "--format", "csv"]
        )
        == 1
    )
    capsys.readouterr()
    # criteria indices are validated
    assert main(["verify-all", "--criteria", "11"]) == 1
    capsys.readouterr()
    # a negative ell range is refused by the model layer
    assert (
        main(["bracket", "--scenario", TORUS, "--eps", "0.01", "--ell-max", "-1"])
        == 1
    )
    _, err = capsys.readouterr()
    assert json.loads(err.splitlines()[-1])["error"] == "configuration"
    # a listed mode past the Bessel kernel's range is a numerical failure
    circle = str(SCENARIOS / "torus3-circle.json")
    assert (
        main(["model-spectrum", "--scenario", circle, "--eps", "0.001", "--count", "3000"])
        == 2
    )
    _, err = capsys.readouterr()
    assert json.loads(err.splitlines()[-1])["error"] == "numerical"
    # holes with centers below the square's offset mesh and solve
    assert (
        main(["fem", "--domain", "torus", "--h", "0.01", "--eps", "0.05",
              "--centers", "0.1,0.1", "0.6,0.6"])
        == 0
    )
    capsys.readouterr()


def test_sphere_caps_anchor(capsys):
    eps = 0.7853981633974483
    code = main(["sphere-caps", "--eps", repr(eps), "--n", "1", "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    rows = json.loads(out)
    by_family = {r["family"]: r for r in rows}
    lo, hi = sigma_pm(1, eps)
    assert by_family["even"]["sigma"] == lo
    assert by_family["odd"]["sigma"] == hi
    # sigma_1^- = cot(eps) is exactly 1 at eps = pi/4
    assert lo == pytest.approx(1.0, rel=1e-12)
    assert hi == pytest.approx(2.0, rel=5e-2)
    assert all(r["multiplicity"] == 2 for r in rows)


def test_bounds_anchor(capsys):
    code = main(["bounds", "--scenario", TORUS])
    out, _ = capsys.readouterr()
    assert code == 0
    header, row = out.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["constant_C"]) == pytest.approx(math.pi**2 / 128, rel=1e-12)
    assert cells["binding_term"] == "spectral"
    assert float(cells["exponent"]) == pytest.approx(1.0 / 3)


def test_bounds_check_rows(capsys):
    code = main(
        ["bounds", "--scenario", TORUS, "--eps", "0.01", "--sigma1", "5.0",
         "--format", "json"]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    obj = json.loads(out)
    checks = obj["checks"]
    assert len(checks) == 1
    assert checks[0]["holds"] is True
    thr = (math.pi**2 / 128) * 0.01 ** (-1.0 / 3)
    assert checks[0]["threshold"] == pytest.approx(thr, rel=1e-12)


def test_out_byte_stability(tmp_path, capsys):
    paths = [str(tmp_path / f"run{i}.csv") for i in (1, 2)]
    argv = ["rates", "--scenario", TORUS, "--eps", "1e-3", "1e-4", "1e-5", "1e-6"]
    for p in paths:
        assert main(argv + ["--out", p]) == 0
        capsys.readouterr()
    a, b = (Path(p).read_bytes() for p in paths)
    assert a == b
    assert a.decode().splitlines()[0].startswith("j,k,q,family")


def test_bracket_ordering(capsys):
    code = main(
        ["bracket", "--scenario", TORUS, "--eps", "0.01", "--ell-max", "4",
         "--format", "json"]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    rows = json.loads(out)
    assert [r["ell"] for r in rows] == list(range(5))
    assert all(r["lower"] <= r["upper"] for r in rows)
    # consecutive brackets are ordered through the shared interleaving
    assert all(a["upper"] <= b["upper"] + 1e-12 for a, b in zip(rows, rows[1:]))


def _readme_examples():
    """(command, shown output lines, elided) per `$ steklov-tubes` README block."""
    text = (REPO / "README.md").read_text()
    for block in re.findall(r"^```[^\n]*\n(.*?)^```$", text, re.S | re.M):
        if not block.startswith("$ steklov-tubes "):
            continue
        lines = block.replace("\\\n", " ").splitlines()
        shown = lines[1:]
        elided = "..." in shown
        if elided:
            shown = shown[: shown.index("...")]
        yield lines[0][2:], shown, elided


def test_readme_examples(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    examples = list(_readme_examples())
    assert len(examples) >= 6
    for command, shown, elided in examples:
        assert main(shlex.split(command)[1:]) == 0, command
        out = capsys.readouterr().out.splitlines()
        assert (out[: len(shown)] if elided else out) == shown, command


def test_verify_single_criterion(capsys, tmp_path):
    out_path = str(tmp_path / "summary.json")
    # the comma-list form the README documents
    code = main(["verify-all", "--criteria", "1,6", "--out", out_path])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "criterion  1 PASS" in out
    assert "criterion  6 PASS" in out
    summary = json.loads(Path(out_path).read_text())
    assert [entry["passed"] for entry in summary] == [True, True]
    assert "elapsed" not in summary[0]


def _script_wrapper(tmp_path):
    """Write the wrapper pip generates for the declared console script."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((REPO / "pyproject.toml").read_text())
    module, func = pyproject["project"]["scripts"]["steklov-tubes"].split(":")
    wrapper = tmp_path / "steklov-tubes"
    wrapper.write_text(
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({func}())\n"
    )
    return [sys.executable, str(wrapper)]


def _run_script(cmd, args, tmp_path):
    # the checkout's src first, so the run needs no install and no repo cwd
    paths = [str(REPO / "src")] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        cmd + args, capture_output=True, text=True, env=env, cwd=tmp_path
    )


def test_console_script_installed(tmp_path):
    scripts = [_script_wrapper(tmp_path)]
    # an installed script is checked too wherever the package is installed
    exe = shutil.which("steklov-tubes")
    if exe is not None:
        scripts.append([exe])
    for cmd in scripts:
        proc = _run_script(cmd, ["bounds", "--scenario", TORUS], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0].startswith("constant_C")
        # the exit code of main reaches the process status
        proc = _run_script(cmd, ["verify-all", "--criteria", "11"], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stderr)["error"] == "configuration"
