import os

import pytest

from emocomp.cli import main
from emocomp.fileio import write_lines, write_text


def _fail_replace(src, dst):
    raise OSError("replace failed")


def test_write_text_replaces_whole_file(tmp_path):
    path = tmp_path / "out.txt"
    write_text(path, "old\n")
    write_lines(path, ["a", "b"])
    assert path.read_text(encoding="utf-8") == "a\nb\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failed_replace_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    write_text(path, "old\n")
    monkeypatch.setattr(os, "replace", _fail_replace)
    with pytest.raises(OSError):
        write_text(path, "new\n")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_pieces_written_in_order_or_not_at_all(tmp_path):
    path = tmp_path / "out.txt"
    write_text(path, (piece for piece in ["a", "b", "c\n"]))
    assert path.read_text(encoding="utf-8") == "abc\n"

    def failing():
        yield "partial"
        raise ValueError("stopped")

    with pytest.raises(ValueError):
        write_text(path, failing())
    assert path.read_text(encoding="utf-8") == "abc\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_cli_outputs_survive_a_failed_rewrite(tmp_path, data_dir, monkeypatch, capsys):
    corpus = data_dir / "synthetic_tec.jsonl"
    assert main(["stats", str(corpus), "--out", str(tmp_path)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(os, "replace", _fail_replace)
    assert main(["stats", str(corpus), "--out", str(tmp_path)]) == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
