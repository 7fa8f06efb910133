"""The golden oracle: the model manifest byte for byte, the FEM one cell by cell."""

from golden import model


def test_model_golden_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(model.REPO)
    assert model.mismatches(str(tmp_path)) == []


def test_fem_golden_manifest(tmp_path, monkeypatch):
    # verify-all (FEM_SLOW) runs only from `tests/golden/model.py --fem`
    monkeypatch.chdir(model.REPO)
    assert model.mismatches(str(tmp_path), model.FEM, model.FEM_ARGV) == []
