"""The golden oracle: the model manifest byte for byte, the FEM one cell by cell."""

import json

from golden import model


def test_model_golden_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(model.REPO)
    assert model.mismatches(str(tmp_path)) == []


def test_fem_golden_manifest(tmp_path, monkeypatch):
    # verify-all (FEM_SLOW) runs only from `tests/golden/model.py --fem`
    monkeypatch.chdir(model.REPO)
    assert model.mismatches(str(tmp_path), model.FEM, model.FEM_ARGV) == []


def test_update_rewrites_only_failing_or_named_entries(tmp_path, monkeypatch):
    # two fast FEM entries: their trailing digits follow BLAS, so --update
    # must keep the stored bytes of every entry that passes its check
    monkeypatch.chdir(model.REPO)
    argvs = [argv for argv in model.FEM_ARGV if argv[2] in ("disk", "annulus")][:2]
    recorded = json.loads(model.FEM.path.read_text())
    stored = {tuple(entry["argv"]): entry for entry in recorded["entries"]}
    keep = [stored[tuple(argv)] for argv in argvs]

    def write(entries):
        text = json.dumps({"environment": recorded["environment"], "entries": entries},
                          indent=1, sort_keys=True) + "\n"
        path.write_text(text)
        return text

    path = tmp_path / "fem.json"
    manifest = model.FEM._replace(path=path, argv=argvs)
    work = tmp_path / "work"
    work.mkdir()
    text = write(keep)
    assert model.update(str(work), manifest) == []
    assert path.read_text() == text

    # a failing entry is rewritten, and only it
    write([{**keep[0], "stdout": keep[0]["stdout"] + "#\n"}, keep[1]])
    assert model.update(str(work), manifest) == [" ".join(argvs[0])]
    after = json.loads(path.read_text())["entries"]
    assert after[1] == keep[1]
    assert model.mismatches(str(work), manifest) == []

    # a named entry is rewritten although it passes; the others do not run
    ran = []
    real = model.run
    monkeypatch.setattr(model, "run", lambda argv, wd: ran.append(argv) or real(argv, wd))
    write(keep)
    assert model.update(str(work), manifest, [argvs[1]]) == [" ".join(argvs[1])]
    assert ran == [argvs[1]]
    assert json.loads(path.read_text())["entries"][0] == keep[0]
