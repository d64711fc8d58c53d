import importlib.util
from pathlib import Path

import numpy as np
import pytest

from debias_embed.cli import main

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


DIRTY_VEC = Path(__file__).resolve().parent / "data" / "dirty_fasttext.vec"


def test_reproduce_loader_reads_dirty_fasttext_file(capsys):
    # trailing spaces, a duplicate, a zero row, a U+00A0 word and a stray 0xff byte
    load_capped = load_script("reproduce_mono_inbias").load_capped
    space = load_capped(str(DIRTY_VEC), "xx", max_words=0)
    assert space.vocab == ("king", "queen", "new\u00a0york", "caf\ufffd", "man")
    np.testing.assert_array_equal(
        space.matrix, [[1, 0, 0], [0, 1, 0], [0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]]
    )
    assert "xx: dropped 1 duplicate and 1 zero rows" in capsys.readouterr().err


def test_cli_refuses_dirty_fasttext_file(tmp_path, capsys):
    out = tmp_path / "out.vec"
    code = main(["debias", "--emb", str(DIRTY_VEC), "--languages", "en", "--out", str(out)])
    assert code == 1
    assert "debias-embed: " in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_loader_stops_on_wrong_arity_with_line_number(tmp_path):
    path = tmp_path / "short.vec"
    path.write_text("3 3\nking 1.0 0.0 0.0 \nqueen 0.0 1.0 \nman 0.5 0.5 0.0 \n", encoding="utf-8")
    load_capped = load_script("reproduce_mono_inbias").load_capped
    with pytest.raises(ValueError, match="line 3: expected 3 components for 'queen', found 2"):
        load_capped(str(path), "xx", max_words=0)
