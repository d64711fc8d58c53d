import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debias_embed import embeddings
from debias_embed.debias import (
    DebiasConfig,
    DebiasNotes,
    debias_space,
    residuals,
    run_variant,
    variant_words,
)
from debias_embed.embeddings import (
    EmbeddingSpace,
    load_vec,
    normalize,
    save_vec,
    space_fingerprint,
)
from debias_embed.lexicon import builtin_lexicon, split_pairs
from debias_embed.subspace import BiasSubspace
from helpers import (
    orthonormal_rows,
    space_for_lexicon,
    two_language_lexicon,
    unit_rows,
)


def axis_subspace(axes, d):
    basis = np.zeros((len(axes), d))
    for row, axis in enumerate(axes):
        basis[row, axis] = 1.0
    return BiasSubspace(basis, "pca", tuple(float(len(axes) - i) for i in range(len(axes))))


def one_word_space(vec, word="w", tag="en"):
    arr = np.asarray(vec, dtype=np.float64)[None, :]
    normalized = abs(np.linalg.norm(arr) - 1.0) <= 1e-9
    return EmbeddingSpace(tag, (word,), arr, normalized=normalized)


def test_removes_single_axis_component():
    space = one_word_space([0.6, 0.8])
    out = debias_space(space, axis_subspace([1], 2), DebiasConfig(k=1))
    np.testing.assert_allclose(out.matrix[0], [0.6, 0.0], atol=1e-15)


def test_two_axis_removal_and_renormalization():
    w = np.ones(3) / np.sqrt(3.0)
    space = one_word_space(w)
    sub = axis_subspace([0, 1], 3)
    plain = debias_space(space, sub, DebiasConfig(k=2))
    np.testing.assert_allclose(plain.matrix[0], [0.0, 0.0, 1.0 / np.sqrt(3.0)], atol=1e-15)
    renorm = debias_space(space, sub, DebiasConfig(k=2, renormalize_after=True))
    np.testing.assert_allclose(renorm.matrix[0], [0.0, 0.0, 1.0], atol=1e-15)
    assert renorm.normalized


def test_renormalize_zeroes_and_warns_on_words_inside_subspace(caplog):
    mat = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    space = EmbeddingSpace("en", ("doomed", "safe"), mat, normalized=True)
    sub = axis_subspace([0, 1], 3)
    with caplog.at_level(logging.WARNING, logger="debias_embed"):
        out = debias_space(space, sub, DebiasConfig(k=2, renormalize_after=True))
    np.testing.assert_array_equal(out.matrix[0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(out.matrix[1], [0.0, 0.0, 1.0])
    assert not out.normalized  # a zero row survived, so the flag must stay off
    assert any("doomed" in m for m in caplog.messages)


def test_out_of_scope_rows_bit_identical():
    rng = np.random.default_rng(0)
    mat = unit_rows(rng, 6, 5)
    words = tuple(f"w{i}" for i in range(6))
    space = EmbeddingSpace("en", words, mat, normalized=True)
    sub = BiasSubspace(orthonormal_rows(rng, 2, 5), "pca", (2.0, 1.0))
    cfg = DebiasConfig(k=2, scope="neutral")
    out = debias_space(space, sub, cfg, scope_words=["w1", "w4"])
    touched = [1, 4]
    untouched = [0, 2, 3, 5]
    assert np.array_equal(out.matrix[untouched], space.matrix[untouched])
    assert np.abs(out.matrix[touched] @ sub.basis.T).max() < 1e-12


def test_neutral_scope_requires_scope_words():
    space = one_word_space([1.0, 0.0])
    with pytest.raises(ValueError):
        debias_space(space, axis_subspace([0], 2), DebiasConfig(k=1, scope="neutral"))


def test_idempotent_within_tolerance():
    rng = np.random.default_rng(1)
    mat = unit_rows(rng, 40, 10)
    space = EmbeddingSpace("en", tuple(f"w{i}" for i in range(40)), mat, normalized=True)
    sub = BiasSubspace(orthonormal_rows(rng, 3, 10), "pca", (3.0, 2.0, 1.0))
    cfg = DebiasConfig(k=3)
    once = debias_space(space, sub, cfg)
    twice = debias_space(once, sub, cfg)
    assert np.abs(twice.matrix - once.matrix).max() < 1e-9


def test_linear_in_the_input():
    rng = np.random.default_rng(2)
    sub = BiasSubspace(orthonormal_rows(rng, 2, 6), "pca", (2.0, 1.0))
    vec = rng.standard_normal(6)
    for alpha in (0.25, 3.0, -2.0):
        lhs = debias_space(
            one_word_space(alpha * vec), sub, DebiasConfig(k=2)
        ).matrix[0]
        rhs = alpha * debias_space(one_word_space(vec), sub, DebiasConfig(k=2)).matrix[0]
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_dimension_mismatch_is_an_error():
    space = one_word_space([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        debias_space(space, axis_subspace([0], 2), DebiasConfig(k=1))


def test_config_validation():
    with pytest.raises(ValueError):
        DebiasConfig(k=0)
    with pytest.raises(ValueError):
        DebiasConfig(variant="nope")
    with pytest.raises(ValueError):
        DebiasConfig(method="svd")
    with pytest.raises(ValueError):
        DebiasConfig(scope="some")


def test_run_variant_mono_zeroes_projections_and_records_provenance():
    lex = two_language_lexicon()
    space = space_for_lexicon(lex, ["aa"], d=16, seed=4)
    splits = {"aa": split_pairs(lex, "aa", train_count=4, seed=0)}
    cfg = DebiasConfig(variant="mono", method="pca", k=2)
    out, sub = run_variant(space, lex, cfg, splits, seed=0)
    assert np.abs(out.matrix @ sub.basis.T).max() < 1e-12
    prov = sub.provenance
    assert prov["variant"] == "mono"
    assert prov["languages"] == ["aa"]
    assert prov["train_pair_counts"] == {"aa": 4}
    assert "embedding_fingerprint" in prov and "pairs_fingerprint" in prov


@pytest.mark.parametrize("scope", ["all", "neutral"])
def test_embedding_fingerprint_covers_the_fitted_rows_alone(tmp_path, monkeypatch, scope):
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 10 * 16 * 8)  # ten rows a block
    lex = builtin_lexicon()
    config = DebiasConfig(scope=scope)
    splits = {"en": split_pairs(lex, "en", 10, 0)}
    fitted = variant_words(lex, config, splits)
    vocab = lex.words("en") + ("filler0", "filler1")
    space = EmbeddingSpace("en", vocab, unit_rows(np.random.default_rng(3), len(vocab), 16))
    outside = [i for i, w in enumerate(vocab) if w not in fitted]
    inside = [i for i, w in enumerate(vocab) if w in fitted]
    assert len(outside) > 2 and len(inside) >= 20

    def fingerprints(rows):
        """The embedding_fingerprint of each way to give run_variant a file of ``rows``."""
        path = str(tmp_path / "e.vec")
        save_vec(EmbeddingSpace("en", vocab, rows), path, precision=17)
        spaces = [load_vec(path, "en"), load_vec(path, "en", hold=fitted),
                  load_vec(path, "en", hold=set(vocab))]
        return {run_variant(normalize(s), lex, config, splits)[1]
                .provenance["embedding_fingerprint"] for s in spaces}

    (first,) = fingerprints(space.matrix)
    held = normalize(load_vec(str(tmp_path / "e.vec"), "en"))
    assert first == space_fingerprint(EmbeddingSpace(
        "en", tuple(vocab[i] for i in inside), held.matrix[inside]))
    moved = space.matrix.copy()
    moved[outside] = moved[outside][::-1]
    assert fingerprints(moved) == {first}
    moved = space.matrix.copy()
    moved[inside[-1]] *= -1
    assert fingerprints(moved) != {first}


def test_run_variant_mono_rejects_multiple_splits():
    lex = two_language_lexicon()
    space = space_for_lexicon(lex, ["aa", "bb"], d=16, seed=5)
    splits = {t: split_pairs(lex, t, train_count=4, seed=0) for t in ("aa", "bb")}
    with pytest.raises(ValueError):
        run_variant(space, lex, DebiasConfig(variant="mono", k=2), splits, seed=0)


def test_run_variant_eqr_balances_labels():
    lex = two_language_lexicon()
    space = space_for_lexicon(lex, ["aa", "bb"], d=16, seed=6)
    splits = {t: split_pairs(lex, t, train_count=4, seed=0) for t in ("aa", "bb")}
    out, sub = run_variant(space, lex, DebiasConfig(variant="eqr", k=4), splits, seed=0)
    assert sub.orientation_labels.count("aa") == 2
    assert sub.orientation_labels.count("bb") == 2
    assert np.abs(out.matrix @ sub.basis.T).max() < 1e-12


def test_run_variant_eqr_divisibility_error():
    lex = two_language_lexicon()
    space = space_for_lexicon(lex, ["aa", "bb"], d=16, seed=7)
    splits = {t: split_pairs(lex, t, train_count=4, seed=0) for t in ("aa", "bb")}
    with pytest.raises(ValueError, match="divisible"):
        run_variant(space, lex, DebiasConfig(variant="eqr", k=3), splits, seed=0)


def test_run_variant_eqr_pca_center_sizes_pool_from_centered_rank():
    # 20 pooled pairs in 300 dims: centering drops the rank from 20 to 19,
    # so a pool sized from the uncentered rows cannot be fitted
    lex = two_language_lexicon(n_pairs=12)
    space = space_for_lexicon(lex, ["aa", "bb"], d=300, seed=8)
    splits = {t: split_pairs(lex, t, train_count=10, seed=0) for t in ("aa", "bb")}
    cfg = DebiasConfig(variant="eqr", method="pca", k=4)
    out, sub = run_variant(space, lex, cfg, splits, center=True, seed=0)
    assert sub.k == 4
    assert sub.orientation_labels.count("aa") == sub.orientation_labels.count("bb") == 2
    assert sub.provenance["center"] is True
    assert np.abs(out.matrix @ sub.basis.T).max() < 1e-12


@pytest.mark.parametrize("variant", ["mono", "multi", "eqr"])
def test_run_variant_rejects_center_with_ppa(variant):
    # the PPA objective centers its projections, so center would be recorded
    # in the provenance without changing the basis
    lex = two_language_lexicon()
    tags = ["aa"] if variant == "mono" else ["aa", "bb"]
    space = space_for_lexicon(lex, tags, d=16, seed=9)
    splits = {t: split_pairs(lex, t, train_count=4, seed=0) for t in tags}
    cfg = DebiasConfig(variant=variant, method="ppa", k=2)
    with pytest.raises(ValueError, match="pca"):
        run_variant(space, lex, cfg, splits, center=True, seed=0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    d=st.integers(2, 8),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_projections_always_vanish(n, d, k, seed):
    k = min(k, d)
    rng = np.random.default_rng(seed)
    mat = unit_rows(rng, n, d)
    space = EmbeddingSpace("en", tuple(f"w{i}" for i in range(n)), mat, normalized=True)
    sub = BiasSubspace(
        orthonormal_rows(rng, k, d), "pca", tuple(float(k - i) for i in range(k))
    )
    out = debias_space(space, sub, DebiasConfig(k=k))
    assert np.abs(out.matrix @ sub.basis.T).max() < 1e-6


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 40),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_residual_rows_are_bitwise_the_same_in_any_block_split(n, d, k, seed, data):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
    basis = orthonormal_rows(rng, min(k, d), d)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    whole = residuals(rows, basis)
    parts = [residuals(rows[a:b], basis) for a, b in zip([0] + cuts, cuts + [n])]
    np.testing.assert_array_equal(np.vstack(parts), whole)
    np.testing.assert_array_equal(np.vstack([residuals(r[None], basis) for r in rows]), whole)
    np.testing.assert_allclose(whole, rows - (rows @ basis.T) @ basis,
                               atol=1e-12 * np.abs(rows).max())


def test_blocks_debiased_apart_equal_debias_space_and_warn_once(caplog):
    rng = np.random.default_rng(3)
    mat = unit_rows(rng, 9, 4)
    mat[[1, 7]] = [[1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]]  # inside the subspace
    words = tuple(f"w{i}" for i in range(9))
    space = EmbeddingSpace("en", words, mat, normalized=True)
    blocks = [EmbeddingSpace("en", words[a:b], mat[a:b], normalized=True)
              for a, b in ((0, 4), (4, 5), (5, 9))]
    sub = axis_subspace([0, 1], 4)
    cfg = DebiasConfig(k=2, scope="neutral", renormalize_after=True)
    scope = ["w1", "w2", "w5", "w7", "absent"]
    with caplog.at_level(logging.WARNING, logger="debias_embed"):
        whole = debias_space(space, sub, cfg, scope_words=scope)
    expected = list(caplog.messages)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="debias_embed"):
        total = DebiasNotes(cfg, scope)
        streamed = []
        for block in blocks:  # as a streamed run_variant does, in any process
            notes = DebiasNotes(cfg, scope)
            streamed.append(debias_space(block, sub, cfg, notes=notes))
            total.add(notes)
        assert caplog.messages == []
        total.finish()
    np.testing.assert_array_equal(np.vstack([b.matrix for b in streamed]), whole.matrix)
    assert caplog.messages == expected
    assert [m.split(":")[1].split()[0] for m in expected] == ["1", "2"]  # unknown, then zero
