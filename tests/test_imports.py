"""The import graph: each command loads only the layers it runs.

Every case runs in a fresh interpreter and reads sys.modules afterwards,
so nothing the test process has already imported can hide a load.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steklov_tubes

REPO = Path(__file__).resolve().parents[1]
TORUS = "scenarios/torus-2-points.json"
SPHERE = "scenarios/sphere-2-points.json"
CIRCLE = "scenarios/torus3-circle.json"

# the names `steklov_tubes` re-exported when it imported every layer eagerly
OLD_EXPORTS = {
    "errors": ("CompletenessError", "ConfigurationError", "NumericalError"),
    "harmonics": (
        "Circle", "ExcisionScenario", "FlatTorus", "ModeEigenvalue", "Point",
        "RoundSphere", "SubmanifoldSpec", "load_scenario", "save_scenario",
        "scenario_from_json", "scenario_to_json", "sphere_eigenvalue",
        "sphere_multiplicity", "sphere_volume", "transverse_spectrum",
    ),
    "radial": (
        "RadialMode", "mixed_spectrum", "sigma_annulus_pair", "sigma_mixed",
        "sn_log_normalizer",
    ),
    "families": (
        "RateFit", "bracket", "expand_values", "family", "predicted_limit",
        "rate_fit", "truncated_spectrum",
    ),
    "bounds": (
        "BoundReport", "constant_C", "lower_bound_check", "quasi_ratio_bound",
        "upper_bound_limit",
    ),
}
# every submodule it bound then, ordered so that none imports a later one
OLD_SUBMODULES = (
    "errors", "harmonics", "tables", "bounds", "radial", "families",
    "spherecaps", "bessel", "fem",
)


def _fresh(script: str):
    """The JSON that script prints last, run in a fresh interpreter."""
    paths = [str(REPO / "src")] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=REPO
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _modules_after(argv: list[str] | None) -> set[str]:
    """sys.modules of a fresh interpreter after importing the CLI and,
    given argv, running cli.main(argv), which must exit 0."""
    code, modules = _fresh(
        "import contextlib, io, json, sys\n"
        "from steklov_tubes import cli\n"
        f"argv = {argv!r}\n"
        "code = 0\n"
        "if argv is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    assert code == 0
    return set(modules)


def _numeric(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] in ("numpy", "scipy")}


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["bounds", "--scenario", TORUS],
        ["rates", "--scenario", TORUS, "--eps", "1e-3", "1e-4", "1e-5"],
        ["bracket", "--scenario", SPHERE, "--eps", "0.01", "--ell-max", "4"],
        ["model-spectrum", "--scenario", TORUS, "--eps", "0.01", "--count", "6"],
        ["sphere-caps", "--eps", "0.5", "--n", "1"],
    ],
    ids=["import", "bounds", "rates", "bracket", "model-spectrum", "sphere-caps"],
)
def test_closed_forms_load_no_numpy(argv):
    modules = _modules_after(argv)
    assert _numeric(modules) == set()
    assert "steklov_tubes.fem" not in modules


def test_bessel_modes_load_only_scipy_special():
    argv = ["model-spectrum", "--scenario", CIRCLE, "--eps", "0.01", "--count", "6"]
    modules = _modules_after(argv)
    assert "scipy.special" in modules
    assert {"scipy.sparse", "scipy.spatial", "steklov_tubes.fem"} & modules == set()


def test_old_exports_resolve():
    # in a fresh interpreter, so that each submodule is bound by the
    # package's __getattr__ and not by an earlier import; in this order
    # no submodule imports a later one
    listed, bound_early, wrong = _fresh(
        "import json, sys\n"
        "import steklov_tubes as p\n"
        "listed = dir(p)\n"
        "bound_early, wrong = [], []\n"
        f"for s in {OLD_SUBMODULES!r}:\n"
        "    if s in vars(p):\n"
        "        bound_early.append(s)\n"
        "    if getattr(p, s) is not sys.modules['steklov_tubes.' + s]:\n"
        "        wrong.append(s)\n"
        f"for module, names in {OLD_EXPORTS!r}.items():\n"
        "    sub = sys.modules['steklov_tubes.' + module]\n"
        "    wrong += [n for n in names if getattr(p, n) is not getattr(sub, n)]\n"
        "print(json.dumps([listed, bound_early, wrong]))\n"
    )
    assert bound_early == [] and wrong == []
    old = {name for names in OLD_EXPORTS.values() for name in names}
    assert old | set(OLD_SUBMODULES) <= set(listed)
    for module, names in OLD_EXPORTS.items():
        sub = importlib.import_module(f"steklov_tubes.{module}")
        for name in names:
            assert getattr(steklov_tubes, name) is getattr(sub, name), name
    with pytest.raises(AttributeError):
        steklov_tubes.no_such_name
