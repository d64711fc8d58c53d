import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from debias_embed import embeddings
from debias_embed.cli import main
from debias_embed.debias import DebiasConfig, run_variant
from debias_embed.embeddings import EmbeddingSpace, load_vec, normalize
from debias_embed.intrinsic import inbias
from debias_embed.lexicon import builtin_lexicon, split_pairs
from debias_embed.manifest import write_json
from debias_embed.subspace import difference_matrix, pca_basis
from helpers import load_script
from planted import ANGLES_DEG, language_world, marker_world

DIRTY_VEC = Path(__file__).resolve().parent / "data" / "dirty_fasttext.vec"


def test_reproduction_scores_held_rows_as_the_whole_space_does(tmp_path, monkeypatch):
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 8 * 8 * 8)  # eight rows a block
    reproduce = load_script("reproduce_mono_inbias")
    lex = builtin_lexicon()
    rng = np.random.default_rng(9)
    for tag, filename in reproduce.FILES.items():
        words = list(lex.words(tag)) + [f"filler{i}" for i in range(200)]
        rng.shuffle(words)
        rows = rng.standard_normal((len(words), 8))
        # fastText writes a space after the last value on every row
        (tmp_path / filename).write_text(
            f"{len(words)} 8\n"
            + "".join(f"{w} {' '.join(f'{x:.17g}' for x in row)} \n"
                      for w, row in zip(words, rows)),
            encoding="utf-8",
        )
    out = tmp_path / "inbias.json"
    assert reproduce.main(["--vectors-dir", str(tmp_path), "--json", str(out)]) == 0

    expected = {}
    for tag, filename in reproduce.FILES.items():
        space = normalize(load_vec(tmp_path / filename, tag))
        split = split_pairs(lex, tag, train_count=10, seed=0)
        debiased, _ = run_variant(space, lex, DebiasConfig(variant="mono", method="pca", k=4),
                                  {tag: split}, seed=0)
        held_out = {tag: split.held_out_words()}
        expected[tag] = {"orig": inbias(space, lex, [tag], seed_words=held_out).value,
                         "debiased": inbias(debiased, lex, [tag], seed_words=held_out).value}
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["inbias"] == expected
    write_json(tmp_path / "again.json", payload)  # the package's one JSON layout
    assert out.read_bytes() == (tmp_path / "again.json").read_bytes()


def test_cli_and_reproduction_refuse_dirty_fasttext_file_alike(tmp_path, capsys):
    # trailing spaces, a duplicate, a zero row, a U+00A0 word and a stray 0xff byte
    out = tmp_path / "out.vec"
    code = main(["debias", "--emb", str(DIRTY_VEC), "--languages", "en", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    cli_message = capsys.readouterr().err.strip().replace(str(DIRTY_VEC), "<path>")

    copy = shutil.copy(DIRTY_VEC, tmp_path / "wiki.en.vec")
    reproduce = load_script("reproduce_mono_inbias")
    with pytest.raises(ValueError) as refused:
        reproduce.main(["--vectors-dir", str(tmp_path), "--json", str(tmp_path / "r.json")])
    script_message = str(refused.value).replace(str(copy), "<path>")

    expected = "<path>: line 4: duplicate word 'king' (first seen at line 2)"
    assert cli_message == f"debias-embed: {expected}"
    assert script_message == expected
    assert not (tmp_path / "r.json").exists()


def test_synthetic_demo_output_is_pinned():
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert load_script("run_synthetic_demo").main([]) == 0
    digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
    assert digest == "10642d95c6e1c2c0d53e82d1a48783eaa899134936a0edd26d58c712affc56a7"


def test_language_world_records_the_direction_it_planted():
    # at the demo's settings; a random 64-d direction has |cos| about 0.1
    lexicon = builtin_lexicon()
    for seed in range(5):
        world = language_world(lexicon, dim=64, beta=0.5, noise=0.08, seed=seed)
        assert list(world) == list(ANGLES_DEG)
        for tag, language in world.items():
            assert np.linalg.norm(language.direction) == pytest.approx(1.0, abs=1e-12)
            space = EmbeddingSpace(tag, language.words, language.rows, normalized=True)
            train = split_pairs(lexicon, tag, seed=seed).train_pairs
            fitted = pca_basis(difference_matrix(space, train), k=1).basis[0]
            assert abs(fitted @ language.direction) >= 0.9, (seed, tag)


@pytest.mark.parametrize("dim, k, n_plain", [(60, 2, 80), (300, 4, 200)])
def test_marker_world_plants_its_basis(dim, k, n_plain):
    words, rows, basis = marker_world(0, dim=dim, k=k, n_plain=n_plain)
    np.testing.assert_allclose(basis @ basis.T, np.eye(k), rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0, atol=1e-12)
    plain = rows[12:]
    assert words[12:] == tuple(f"w{j:03d}" for j in range(n_plain))
    assert np.abs(plain @ basis.T).max() < 1e-12
    # the markers sit at sine 0.05 from +-basis[0], off it only outside the basis
    signs = np.repeat([1.0, -1.0], 6)
    np.testing.assert_allclose(rows[:12] @ basis.T,
                               np.outer(signs * np.sqrt(1 - 0.05**2), np.eye(k)[0]),
                               rtol=0, atol=1e-12)
