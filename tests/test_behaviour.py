"""The behaviour manifest: every command of ``tests/behaviour.py``'s corpus
prints, writes and exits as ``tests/golden/behaviour.tsv`` records."""

import behaviour


def test_the_corpus_matches_the_manifest():
    # a change that means to move output rewrites the manifest with
    # ``python tests/behaviour.py --update``, and the moved rows show in its diff
    rows = behaviour.run_corpus()
    assert behaviour.moved_rows(rows, behaviour.read_manifest()) == []


def test_a_moved_row_is_reported():
    rows = {"a": ("0", "x", "y", "-"), "b": ("0", "x", "y", "-")}
    manifest = {"a": ("0", "x", "y", "-"), "b": ("2", "x", "y", "-"), "c": ("0", "x", "y", "-")}
    assert behaviour.moved_rows(rows, manifest) == ["b", "c"]
    assert behaviour.moved_rows(rows, rows) == []


def test_the_manifest_reads_back_as_written(tmp_path):
    rows = {"--dump-config -": ("0", "a", "b", "-"), "sweep --figure 1": ("0", "c", "d", "f:e")}
    behaviour.write_manifest(rows, tmp_path / "m.tsv")
    assert behaviour.read_manifest(tmp_path / "m.tsv") == rows
