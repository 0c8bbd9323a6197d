"""The behaviour manifest: every command of ``tests/behaviour.py``'s corpus
prints, writes and exits as ``tests/golden/behaviour.tsv`` records."""

import behaviour


def test_the_corpus_matches_the_manifest():
    # a change that means to move output rewrites the manifest with
    # ``python tests/behaviour.py --update``, and the moved rows show in its diff
    rows = behaviour.run_corpus()
    assert behaviour.moved_rows(rows, behaviour.read_manifest()) == []


def test_a_moved_row_is_reported(tmp_path, monkeypatch, capsys):
    row, moved = ("0", "x", "y", "-"), ("2", "x", "y", "-")
    rows = {"a": row, "b": row, "d": row}
    manifest = {"a": row, "b": moved, "c": row}
    changes = [("moved", "b"), ("removed", "c"), ("added", "d")]
    assert behaviour.moved_rows(rows, manifest) == changes
    assert behaviour.moved_rows(rows, rows) == []
    # both the check and --update print each change against the manifest
    path = tmp_path / "behaviour.tsv"
    behaviour.write_manifest(manifest, path)
    monkeypatch.setattr(behaviour, "MANIFEST", path)
    monkeypatch.setattr(behaviour, "run_corpus", lambda: rows)
    printed = [f"{how}: {command}" for how, command in changes]
    assert behaviour.main([]) == 1
    assert capsys.readouterr().out.splitlines() == [*printed, "3 of 3 commands moved"]
    assert behaviour.main(["--update"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:-1] == printed and out[-1].startswith("wrote 3 rows to ")
    assert behaviour.read_manifest(path) == rows
    assert behaviour.main(["--update"]) == 0
    assert capsys.readouterr().out.startswith("wrote 3 rows to ")


def test_the_manifest_reads_back_as_written(tmp_path):
    rows = {"--dump-config -": ("0", "a", "b", "-"), "sweep --figure 1": ("0", "c", "d", "f:e")}
    behaviour.write_manifest(rows, tmp_path / "m.tsv")
    assert behaviour.read_manifest(tmp_path / "m.tsv") == rows
