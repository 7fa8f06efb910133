"""Acceptance suite: one test per criterion, each printing its verdict.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-check
lines; `pytest -v` alone still gives one pass/fail line per criterion.
The same suite is reachable from the command line as
`steklov-tubes verify-all`.
"""

import json
import re

import pytest

from steklov_tubes import acceptance
from steklov_tubes.cli import main
from steklov_tubes.fem import solve


@pytest.fixture(scope="module")
def cache():
    return acceptance.SuiteCache()


@pytest.mark.parametrize(
    "index",
    range(1, len(acceptance._CRITERIA) + 1),
    ids=lambda i: f"criterion_{i:02d}",
)
def test_criterion(index, cache):
    res = acceptance.run(indices=[index], seed=0, cache=cache)[0]
    print(res.header())
    for line in res.checks:
        print(f"  {line}")
    assert res.passed, f"criterion {res.index} failed: {res.name}"


@pytest.mark.parametrize("seed", [4, 5, 9])
def test_criterion_10_small_sn_seeds(seed):
    # these seeds draw small SN values, where s/eps - sqrt(lam) w'/w once
    # cancelled to a scaling-law residual of 1.5e-10 .. 1.7e-9
    res = acceptance.run(indices=[10], seed=seed)[0]
    assert res.passed, res.checks


def test_failing_check_fails_its_criterion(monkeypatch, capsys, tmp_path):
    def stub(cache, seed):
        yield True, "stub holds"
        yield False, "stub fails"

    criteria = (*acceptance._CRITERIA, ("stub", stub))
    monkeypatch.setattr(acceptance, "_CRITERIA", criteria)
    index = len(criteria)
    (res,) = acceptance.run([index])
    assert not res.passed
    assert res.checks == ("ok: stub holds", "FAIL: stub fails")
    assert res.failures == ("FAIL: stub fails",)
    header = rf"criterion {index} FAIL  stub  \[\d+\.\ds\]"
    assert re.fullmatch(header, res.header())
    # the command exits 3, prints the header and the failing line only,
    # and still writes --out
    out_path = tmp_path / "summary.json"
    assert main(["verify-all", "--criteria", str(index), "--out", str(out_path)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(header, lines[0])
    assert lines[1] == "  FAIL: stub fails"
    assert json.loads(out_path.read_text()) == [
        {
            "index": index,
            "name": "stub",
            "passed": False,
            "checks": ["ok: stub holds", "FAIL: stub fails"],
        }
    ]


def _record_factors(monkeypatch):
    sizes = []
    real = solve._factor
    monkeypatch.setattr(solve, "_factor", lambda A: sizes.append(A.shape[0]) or real(A))
    return sizes


def test_criteria_share_one_steklov_solve_per_mesh(monkeypatch):
    # criteria 5 and 6 both read sigma_1 of the eps = 0.01, h = eps/6
    # torus, and criteria 4 and 6 the eps = 0.04 torus, whose trend h is
    # eps/6; all three ask for 3 eigenvalues, so each torus is factored
    # once: criterion 4's three tori, and criterion 6's eps 0.02 and 0.01.
    # Each factored matrix is its torus with the collar interiors
    # eliminated: the dofs less rings 1..R-1 of every collar block
    cache = acceptance.SuiteCache()
    sizes = _record_factors(monkeypatch)
    assert all(res.passed for res in acceptance.run([4, 5, 6], cache=cache))
    tori = [(eps, acceptance._trend_h(eps)) for eps in acceptance.TREND_EPS]
    tori += [(eps, eps / 6.0) for eps in acceptance.TREND_EPS[1:]]
    reduced = []
    for eps, h in tori:
        mesh = cache.torus_mesh(eps, h)
        reduced.append(mesh.dof_map()[1] - sum(block[:, 1:-2].size for block in mesh.blocks))
    assert sorted(sizes) == sorted(reduced)


def test_criterion_9_factors_only_the_disk(monkeypatch):
    # the annulus is solved by Fourier sectors, with no factorization
    cache = acceptance.SuiteCache()
    sizes = _record_factors(monkeypatch)
    assert acceptance.run([9], cache=cache)[0].passed
    assert sizes == [cache.disk_mesh(0.02).dof_map()[1]]
