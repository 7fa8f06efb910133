"""Command line driver: exit codes, anchors, and byte-stable artifacts."""

import argparse
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

from steklov_tubes import cli
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
    assert main(["verify-all", "--criteria", "99"]) == 1
    capsys.readouterr()
    # a negative ell range is refused by the model layer
    assert (
        main(["bracket", "--scenario", TORUS, "--eps", "0.01", "--ell-max", "-1"])
        == 1
    )
    _, err = capsys.readouterr()
    assert json.loads(err.splitlines()[-1])["error"] == "configuration"
    # so is a negative --qmax for rates (it printed a header-only table)
    assert (
        main(["rates", "--scenario", TORUS, "--eps", "1e-2", "1e-3", "1e-4", "--qmax", "-1"])
        == 1
    )
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err.splitlines()[-1])["error"] == "configuration"
    # modes past order 50 and sqrt(lam) delta 700 are listed like any other
    circle = str(SCENARIOS / "torus3-circle.json")
    assert (
        main(["model-spectrum", "--scenario", circle, "--eps", "0.001", "--count", "3000"])
        == 0
    )
    out, _ = capsys.readouterr()
    sigmas = [float(line.split(",")[6]) for line in out.splitlines()[1:]]
    assert len(sigmas) > 900 and sigmas == sorted(sigmas)
    assert all(math.isfinite(sig) for sig in sigmas)
    # holes with centers below the square's offset mesh and solve
    assert (
        main(["fem", "--domain", "torus", "--h", "0.01", "--eps", "0.05",
              "--centers", "0.1,0.1", "0.6,0.6"])
        == 0
    )
    capsys.readouterr()
    # an unreadable scenario or an unwritable --out is a configuration
    # error, and --out is checked before any work: no criterion line, no
    # "# mesh:" line and no other output precedes the error
    missing = tmp_path / "no-such-dir"
    # a NaN or infinite number, a slack outside [0, 1) and a fractional
    # dimension in a scenario file are refused, by the argument's name
    checks = ["bounds", "--scenario", TORUS, "--eps", "0.01", "--sigma1", "30", "--format", "json"]
    torus = ["fem", "--domain", "torus", "--h", "0.01", "--eps", "0.05", "--centers"]
    point = {"dim": 0, "volume": 1.0, "kind": {"type": "point"}}
    fractional = {}
    for name, scenario in (("m", {"m": 2.7, "submanifolds": [point]}),
                           ("dim", {"m": 2, "submanifolds": [{**point, "dim": 0.9}]})):
        fractional[name] = tmp_path / f"fractional-{name}.json"
        fractional[name].write_text(json.dumps({**scenario, "lambda1_M": 39.47841760435743}))
    # a NaN gap or an infinite volume printed "spectral": NaN, which is
    # not JSON, or C 0.0
    torus_obj = json.loads(Path(TORUS).read_text())
    first, *rest = torus_obj["submanifolds"]
    non_finite = {}
    for name, scenario in (("lambda1_M", {**torus_obj, "lambda1_M": math.nan}),
                           ("volume", {**torus_obj, "submanifolds": [
                               {**first, "volume": math.inf}, *rest]})):
        non_finite[name] = tmp_path / f"non-finite-{name}.json"
        non_finite[name].write_text(json.dumps(scenario))
    refused = [
        *((name, ["bounds", "--scenario", str(path), "--format", "json"])
          for name, path in non_finite.items()),
        ("sigma1", ["bounds", "--scenario", TORUS, "--eps", "0.01", "--sigma1", "nan",
                    "--format", "json"]),
        ("eps", ["bounds", "--scenario", TORUS, "--eps", "inf", "--sigma1", "5.0",
                 "--format", "json"]),
        ("slack", [*checks, "--slack", "nan"]),
        ("slack", [*checks, "--slack", "inf"]),
        ("slack", ["bounds", "--scenario", TORUS, "--eps", "0.01", "--sigma1", "0",
                   "--slack", "1", "--format", "json"]),
        ("slack", [*checks, "--slack", "-5"]),
        *((name, ["bounds", "--scenario", str(path), "--eps", "0.01", "--sigma1", "30",
                  "--format", "json"]) for name, path in fractional.items()),
        ("m", ["bounds", "--scenario", str(fractional["m"])]),
        ("h=nan", ["fem", "--domain", "annulus", "--h", "nan"]),
        ("side", ["fem", "--domain", "torus", "--side", "nan", "--h", "0.01", "--eps", "0.05"]),
        # before the offset search and the collars, so with no warning
        ("center", [*torus, "nan,0.5", "0.75,0.75"]),
        ("center", [*torus, "0.25,0.25", "0.75,inf"]),
    ]
    for argv in (
        *(argv for _, argv in refused),
        ["bounds", "--scenario", str(SCENARIOS)],
        ["fem", "--domain", "disk", "--h", "0.02", "--out", str(missing / "x.csv")],
        ["fem", "--domain", "disk", "--h", "0.5", "--out", str(tmp_path)],
        ["verify-all", "--criteria", "1,2", "--out", str(missing / "x.json")],
        # a count or a marker the solver would refuse is refused before
        # the mesh is built
        ["fem", "--domain", "disk", "--h", "0.5", "--count", "0"],
        ["fem", "--domain", "torus", "--h", "0.002", "--eps", "0.01", "--dirichlet-markers", "5"],
        ["fem", "--domain", "annulus", "--h", "0.1", "--dirichlet-markers", "0", "1"],
        # --neumann applies no boundary conditions, so it takes no markers
        ["fem", "--domain", "disk", "--h", "0.5", "--neumann", "--dirichlet-markers", "3",
         "--count", "2"],
        ["fem", "--domain", "annulus", "--h", "0.1", "--neumann", "--neumann-markers", "0"],
        # --eps is the torus hole radius; the planar domains refuse it
        ["fem", "--domain", "disk", "--h", "0.5", "--eps", "0.1"],
        ["fem", "--domain", "annulus", "--h", "0.1", "--eps", "0.1"],
        # a mesh over the size cap is refused before it is allocated
        ["fem", "--domain", "annulus", "--h", "1e-9", "--count", "1"],
        # the oracle solves one angular index, on a grid of at least 100
        ["sphere-caps", "--eps", "0.5", "--oracle-grid", "100", "--count", "2"],
        ["sphere-caps", "--eps", "0.5", "--n", "1", "--oracle-grid", "0"],
        # and one it could not allocate is refused before numpy is asked
        ["sphere-caps", "--eps", "0.5", "--n", "2", "--oracle-grid", str(10**12)],
    ):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert len(err.splitlines()) == 1, argv
        assert json.loads(err)["error"] == "configuration", argv
    for name, argv in refused:
        assert main(argv) == 1
        assert name in json.loads(capsys.readouterr().err)["message"], argv
    # the disk's circle carries marker 1, as on the mesh
    assert main(["fem", "--domain", "disk", "--h", "0.5", "--neumann-markers", "0"]) == 1
    assert "marker 0 not present" in capsys.readouterr().err
    assert tmp_path.is_dir()
    # a run that fails after the check leaves no file at the path, and an
    # existing file as it was
    fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
    old.write_text("old\n")
    for path in (fresh, old):
        assert main(["fem", "--domain", "torus", "--h", "0.02", "--out", str(path)]) == 1
        capsys.readouterr()
    assert not fresh.exists()
    assert old.read_text() == "old\n"


def test_bad_kind_is_refused_by_every_command(capsys, tmp_path):
    # bounds never asks for a transverse spectrum, so the kind itself must
    # refuse a circle of length -1 (or nan), as it does for model-spectrum
    for length in ("-1", "NaN"):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"m": 3, "lambda1_M": 1.0, "submanifolds": ['
            f'{{"dim": 1, "volume": 1.0, "kind": {{"type": "circle", "length": {length}}}}}, '
            '{"dim": 0, "volume": 1.0, "kind": {"type": "point"}}]}'
        )
        for argv in (["bounds"], ["model-spectrum", "--eps", "0.01"],
                     ["bracket", "--eps", "0.01"]):
            assert main([*argv, "--scenario", str(path)]) == 1, (length, argv)
            out, err = capsys.readouterr()
            assert out == ""
            error = json.loads(err.splitlines()[-1])
            assert error["error"] == "configuration"
            assert error["message"].startswith("circle length must be > 0"), error


def test_parser_built_once(capsys, monkeypatch):
    # the parser is built by the first main() of the process at the latest
    assert main(["bounds", "--scenario", TORUS]) == 0
    added = []
    add_argument = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    assert main(["bounds", "--scenario", TORUS]) == 0
    capsys.readouterr()
    assert added == []
    # the counter does see a build
    cli.build_parser.__wrapped__()
    assert len(added) > 50


def test_shared_parser_keeps_no_state(tmp_path, capsys, monkeypatch):
    fem = ["fem", "--domain", "annulus", "--h", "0.1", "--count", "4"]
    a, b, fresh = (tmp_path / f"{name}.csv" for name in ("A", "B", "fresh"))
    assert main(fem + ["--dirichlet-markers", "0", "--out", str(a)]) == 0
    assert main(fem[:-1] + ["x"]) == 1
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "configuration"
    assert main(fem + ["--out", str(b)]) == 0
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert main(fem + ["--out", str(fresh)]) == 0
    capsys.readouterr()
    assert b.read_bytes() == fresh.read_bytes()
    assert a.read_bytes() != b.read_bytes()


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
        proc = _run_script(cmd, ["verify-all", "--criteria", "99"], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stderr)["error"] == "configuration"
