import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("tag", ["emo-nn-base", "mtl-xs"])
def test_overfit_demo_runs(tag, capsys):
    f1 = load_script("overfit_demo").run(tag, epochs=1, seed=0)
    assert 0.0 <= f1 <= 1.0
    assert "train micro-F1" in capsys.readouterr().out
