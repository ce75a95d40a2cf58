import importlib.util
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_synthetic_corpus_script_reproduces_bundled_data(tmp_path, monkeypatch, capsys):
    # the goldens and acceptance tests rest on these files
    script = load_script("make_synthetic_corpus")
    monkeypatch.setattr(script, "DATA", tmp_path)
    script.main()
    data = SCRIPTS.parent / "data"
    names = sorted(p.name for p in data.iterdir())
    assert len(names) == 6
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (data / name).read_bytes(), name


def test_compare_feature_models_prints_every_me_tag(capsys):
    script = load_script("compare_feature_models")
    script.main([])
    rows = capsys.readouterr().out.strip().splitlines()[-len(script.TAGS):]
    assert [row.split()[0] for row in rows] == list(script.TAGS)
    for row in rows:
        assert all(0.0 <= float(v) <= 1.0 for v in row.split()[1:])


def test_untested_statements_lists_what_a_run_leaves_out(capsys):
    # one test of fileio, traced by a pytest run inside this one; without the
    # hypothesis plugin, which would import hypothesis when run on its own
    test = SCRIPTS.parent / "tests" / "test_fileio.py::test_pieces_written_in_order_or_not_at_all"
    args = ["-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest", str(test)]
    assert load_script("untested_statements").main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    missed, total = map(int, re.fullmatch(r"(\d+) of (\d+) statements in src/ never ran",
                                          lines[-1]).groups())
    listed = [line for line in lines if line.startswith("src/emocomp/")]
    assert 0 < len(listed) == missed < total
    assert "src/emocomp/cli.py" in " ".join(listed)
    assert not any(line.startswith("src/emocomp/fileio.py") and "os.replace" in line
                   for line in listed)
