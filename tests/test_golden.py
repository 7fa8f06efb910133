"""The model half of the golden oracle: every manifest argv, byte for byte."""

from golden import model


def test_model_golden_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(model.REPO)
    assert model.mismatches(str(tmp_path)) == []
