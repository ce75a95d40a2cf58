import importlib.util
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


@pytest.mark.parametrize("tag", ["emo-nn-base", "mtl-xs"])
def test_overfit_demo_runs(tag, capsys):
    f1 = load_script("overfit_demo").run(tag, epochs=1, seed=0)
    assert 0.0 <= f1 <= 1.0
    assert "train micro-F1" in capsys.readouterr().out


def test_compare_feature_models_prints_every_me_tag(capsys):
    script = load_script("compare_feature_models")
    script.main([])
    rows = capsys.readouterr().out.strip().splitlines()[-len(script.TAGS):]
    assert [row.split()[0] for row in rows] == list(script.TAGS)
    for row in rows:
        assert all(0.0 <= float(v) <= 1.0 for v in row.split()[1:])
