"""Tests for the benchmark's tracer, metric table and CSV parsing.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import os
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from steklov_tubes import acceptance, cli  # noqa: E402,F401
from steklov_tubes.fem import solve  # noqa: E402
from steklov_tubes.fem.mesh import Mesh  # noqa: E402


def _bindings():
    """Every name bound in every steklov_tubes module, plus Mesh.dof_map."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "steklov_tubes" or name.startswith("steklov_tubes.")):
            snap.update({(name, key): value for key, value in vars(mod).items()})
    snap[("Mesh", "dof_map")] = vars(Mesh)["dof_map"]
    return snap


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")

    def leaf(x):
        return x + 1

    def outer(x):
        return inner.leaf(x) * 2

    inner.leaf, inner.outer = leaf, outer
    pkg.outer = outer  # a second namespace binding the same function
    return pkg, inner


@pytest.fixture
def fakepkg(monkeypatch):
    pkg, inner = _fake_package()
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.inner", inner)
    return pkg, inner


def test_patch_covers_every_namespace_and_restores(fakepkg):
    pkg, inner = fakepkg
    original = inner.outer
    with tracer_mod.Tracer("fakepkg") as tr:
        assert tr.patch("fakepkg.inner", "outer", "inner.outer")
        assert tr.patch("fakepkg.inner", "leaf", "inner.leaf")
        assert pkg.outer is inner.outer is not original
        assert pkg.outer(1) == 4
        assert inner.outer(2) == 6
    assert pkg.outer is original and inner.outer is original
    assert tr.spans["inner.outer"][0] == 2
    assert tr.spans["inner.leaf"][0] == 2


def test_self_times_add_up_to_the_outermost_spans(fakepkg):
    _, inner = fakepkg
    ticks = iter(range(100))
    with tracer_mod.Tracer("fakepkg", clock=lambda: float(next(ticks))) as tr:
        tr.patch("fakepkg.inner", "outer", "outer")
        tr.patch("fakepkg.inner", "leaf", "leaf")
        tr.call("root", inner.outer, 1)
    total_self = sum(stat[2] for stat in tr.spans.values())
    assert total_self == tr.spans["root"][1]
    assert tr.spans["leaf"][2] == tr.spans["leaf"][1]
    assert tr.spans["outer"][2] == tr.spans["outer"][1] - tr.spans["leaf"][1]


def test_exception_closes_the_span(fakepkg):
    _, inner = fakepkg

    def boom(x):
        raise RuntimeError("boom")

    inner.leaf = boom
    with tracer_mod.Tracer("fakepkg") as tr:
        tr.patch("fakepkg.inner", "leaf", "leaf")
        with pytest.raises(RuntimeError):
            inner.outer(1)
        assert tr._stack == []
    assert tr.spans["leaf"][0] == 1 and inner.leaf is boom


def test_install_restores_every_binding(tmp_path):
    before = _bindings()
    tr = tracer_mod.Tracer(tracer_mod.PACKAGE)
    tracer_mod.install(tr)
    try:
        assert acceptance.steklov_spectrum is solve.steklov_spectrum
        assert acceptance.steklov_spectrum is not before[("steklov_tubes.fem.solve", "steklov_spectrum")]
        out = tmp_path / "disk.csv"
        with contextlib.redirect_stderr(io.StringIO()):
            code = tr.call("cli.fem", cli.main,
                           ["fem", "--domain", "disk", "--h", "0.1", "--count", "4", "--out", str(out)])
        assert code == 0
    finally:
        tr.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    for span in ("fem.solve.factor", "fem.solve.lu_solve", "fem.solve.dense_eig", "fem.mesh.dof_map"):
        assert tr.spans[span][0] >= 1, span
    assert tr.counts["fem.solve.factor_fill_nnz"] > 0


def test_missing_name_makes_its_metrics_absent(monkeypatch, tmp_path):
    monkeypatch.delattr(solve, "splu")
    tr = tracer_mod.Tracer(tracer_mod.PACKAGE)
    tracer_mod.install(tr)
    tr.restore()
    assert "fem.solve.factor" not in tr.patched
    assert "fem.solve.dense_eig" in tr.patched
    assert not tr.patch("steklov_tubes.no_such_module", "run", "gone.run")
    traced = {"spans": {}, "counts": {}, "patched": sorted(tr.patched), "pass_s": [1.0],
              "pass_probe_s": [run.NOMINAL_PROBE_S], "blas": [], "workdir": str(tmp_path)}
    layers = run.per_layer(traced, 1.0, [])
    assert not [name for name in layers if name.startswith("fem.solve.factor")]
    assert "fem.solve.lu_solve_s" not in layers
    assert "fem.solve.dense_eig_s" in layers


def test_benchmark_json_lists_the_per_layer_metrics(tmp_path):
    tr = tracer_mod.Tracer(tracer_mod.PACKAGE)
    tracer_mod.install(tr)
    tr.restore()
    traced = {"spans": {}, "counts": {}, "patched": sorted(tr.patched), "pass_s": [1.0],
              "pass_probe_s": [run.NOMINAL_PROBE_S], "blas": [], "workdir": str(tmp_path)}
    layers = run.per_layer(traced, 1.0, [])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert listed == {name: run.per_layer_unit(name) for name in layers}


def test_csv_numbers_in_either_form():
    text = "eps,sigma\n0.01,np.float64(2.5)\n0.02,1.0\n"
    _, rows = reference.read_csv(text)
    assert [reference.num(r["sigma"]) for r in rows] == [2.5, 1.0]
    assert reference.np_repr_cells(text) == 1
