import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def fasttext_vec(tmp_path):
    # fastText writes a space after the last value on every row
    path = tmp_path / "wiki.xx.vec"
    path.write_text(
        "5 3\n"
        "king 1.0 0.0 0.0 \n"
        "queen 0.0 1.0 0.0 \n"
        "king 0.0 0.0 1.0 \n"
        "void 0.0 0.0 0.0 \n"
        "man 0.5 0.5 0.0 \n",
        encoding="utf-8",
    )
    return path


def test_reproduce_loader_keeps_rows_with_trailing_spaces(fasttext_vec, capsys):
    load_capped = load_script("reproduce_mono_inbias").load_capped
    space = load_capped(str(fasttext_vec), "xx", max_words=0)
    assert space.vocab == ("king", "queen", "man")
    np.testing.assert_array_equal(
        space.matrix, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]
    )
    assert "xx: dropped 1 duplicate and 1 zero rows" in capsys.readouterr().err


def test_reproduce_loader_caps_kept_rows(fasttext_vec):
    load_capped = load_script("reproduce_mono_inbias").load_capped
    space = load_capped(str(fasttext_vec), "xx", max_words=2)
    assert space.vocab == ("king", "queen")
