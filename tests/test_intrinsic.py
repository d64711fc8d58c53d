import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debias_embed import intrinsic
from debias_embed.embeddings import EmbeddingSpace
from debias_embed.intrinsic import (
    cross_score_matrix,
    dis,
    format_cross_table,
    format_inbias_table,
    inbias,
)
from debias_embed.lexicon import GenderLexicon, GenderPair, NeutralWords, SeedSets
from helpers import two_language_lexicon, unit_rows
from oracles import cross_score_cell, mean_cosine_distance


def test_dis_of_self_is_zero():
    assert dis(np.array([1.0, 0.0]), [np.array([1.0, 0.0])]) == 0.0


def test_dis_of_antipode_is_two():
    assert dis(np.array([1.0, 0.0]), [np.array([-1.0, 0.0])]) == pytest.approx(2.0)


def test_dis_mixed_references():
    value = dis(np.array([1.0, 0.0]), [np.array([0.0, 1.0]), np.array([1.0, 0.0])])
    assert value == pytest.approx(0.5)


def test_dis_matches_longhand_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(5)
    refs = [rng.standard_normal(5) for _ in range(4)]
    assert dis(x, refs) == pytest.approx(mean_cosine_distance(x, refs), abs=1e-12)


def test_dis_rejects_zero_vectors():
    with pytest.raises(ValueError):
        dis(np.zeros(3), [np.ones(3)])
    with pytest.raises(ValueError):
        dis(np.ones(3), [np.zeros(3)])
    with pytest.raises(ValueError):
        dis(np.ones(3), [])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 6), d=st.integers(2, 8))
def test_dis_always_in_range(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d) + 0.1
    refs = list(unit_rows(rng, n, d))
    assert 0.0 <= dis(x, refs) <= 2.0


def gap_one_lexicon_and_space():
    """One occupation pair with a full unit gap between the gendered sides."""
    vocab = ("om", "of", "ms", "fs")
    mat = np.array(
        [
            [1.0, 0.0],  # om: on the male seed
            [0.0, 1.0],  # of: orthogonal to the female seed
            [1.0, 0.0],  # male seed
            [1.0, 0.0],  # female seed
        ]
    )
    space = EmbeddingSpace("xx", vocab, mat, normalized=True)
    lex = GenderLexicon(
        defining_pairs={"xx": (GenderPair("ms", "fs", "xx"),)},
        neutral_words={"xx": NeutralWords((), (), ())},
        seed_sets={"xx": SeedSets(("ms",), ("fs",))},
        occupation_pairs={"xx": (("om", "of"),)},
    )
    return space, lex


def test_inbias_unit_gap_construction():
    space, lex = gap_one_lexicon_and_space()
    result = inbias(space, lex, ["xx"])
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert len(result.per_occupation) == 1
    lang, masc, fem, gap = result.per_occupation[0]
    assert (lang, masc, fem) == ("xx", "om", "of")
    assert gap == pytest.approx(1.0, abs=1e-12)


def test_inbias_scale_invariance():
    space, lex = gap_one_lexicon_and_space()
    scaled = EmbeddingSpace("xx", space.vocab, space.matrix * 7.5)
    assert inbias(scaled, lex, ["xx"]).value == pytest.approx(
        inbias(space, lex, ["xx"]).value, abs=1e-12
    )


def test_inbias_zero_when_sides_match_seeds_symmetrically():
    vocab = ("om", "of", "ms", "fs")
    mat = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    space = EmbeddingSpace("xx", vocab, mat, normalized=True)
    lex = GenderLexicon(
        defining_pairs={"xx": (GenderPair("ms", "fs", "xx"),)},
        neutral_words={"xx": NeutralWords((), (), ())},
        seed_sets={"xx": SeedSets(("ms",), ("fs",))},
        occupation_pairs={"xx": (("om", "of"),)},
    )
    assert inbias(space, lex, ["xx"]).value == pytest.approx(0.0, abs=1e-12)


def test_inbias_skips_unresolvable_pairs_with_warning(caplog):
    space, lex = gap_one_lexicon_and_space()
    bigger = GenderLexicon(
        defining_pairs=lex.defining_pairs,
        neutral_words=lex.neutral_words,
        seed_sets=lex.seed_sets,
        occupation_pairs={"xx": (("om", "of"), ("ghost_m", "ghost_f"))},
    )
    with caplog.at_level(logging.WARNING, logger="debias_embed"):
        result = inbias(space, bigger, ["xx"])
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert len(result.skipped) == 1


@pytest.mark.parametrize("zero, message", [
    ("fs", "dis is undefined against a zero reference vector"),  # a seed row
    ("of", "dis is undefined for a zero vector"),  # an occupation word
])
def test_inbias_refuses_a_zero_vector_as_dis_does(zero, message):
    space, lex = gap_one_lexicon_and_space()
    matrix = space.matrix.copy()
    matrix[space.vocab.index(zero)] = 0.0
    with pytest.raises(ValueError, match=f"^{message}$"):
        inbias(EmbeddingSpace("xx", space.vocab, matrix), lex, ["xx"])


def test_inbias_seed_word_override():
    space, lex = gap_one_lexicon_and_space()
    # overriding both sides with the same seed word zeroes the gap
    result = inbias(space, lex, ["xx"], seed_words={"xx": (("ms",), ("ms",))})
    assert result.value == pytest.approx(abs(dis(space.matrix[0], [space.matrix[2]])
                                             - dis(space.matrix[1], [space.matrix[2]])))


def two_language_orthogonal_space():
    """Merged space whose two languages carry orthogonal gender directions."""
    lex = two_language_lexicon(n_pairs=6, n_neutral=5)
    rng = np.random.default_rng(42)
    d = 12
    words, vecs = [], []
    for tag, axis in (("aa", 0), ("bb", 1)):
        for i, pair in enumerate(lex.defining_pairs[tag]):
            base = unit_rows(rng, 1, d)[0]
            base[axis] = 0.0
            base /= np.linalg.norm(base)
            delta = np.zeros(d)
            delta[axis] = 0.3
            words += [f"{tag}:{pair.male_word}", f"{tag}:{pair.female_word}"]
            vecs += [base + delta, base - delta]
        for w in lex.neutral_words[tag].all_words():
            v = unit_rows(rng, 1, d)[0]
            v[axis] += 0.4  # give neutral words signal along their own axis
            words.append(f"{tag}:{w}")
            vecs.append(v)
    mat = np.array(vecs)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    return EmbeddingSpace("aa+bb", tuple(words), mat, normalized=True), lex


def test_cross_score_is_one_on_the_diagonal_and_zero_for_orthogonal_directions():
    space, lex = two_language_orthogonal_space()
    matrix = cross_score_matrix(space, lex, ["aa", "bb"])
    np.testing.assert_allclose(matrix.values, np.eye(2), rtol=0.0, atol=1e-9)


def test_cross_score_matrix_layout_and_table():
    space, lex = two_language_orthogonal_space()
    matrix = cross_score_matrix(space, lex, ["aa", "bb"])
    assert matrix.languages == ("aa", "bb")
    assert matrix.values.shape == (2, 2)
    np.testing.assert_allclose(np.diag(matrix.values), 1.0, atol=1e-9)
    table = format_cross_table(matrix)
    lines = table.strip().splitlines()
    assert lines[0].split() == ["lang", "N_aa", "N_bb"]
    assert lines[1].split()[0] == "b_aa"
    assert lines[1].split()[1] == "1.000"
    assert lines[2].split()[2] == "1.000"


@pytest.mark.parametrize("languages", [["aa"], ["aa", "bb"], ["bb", "aa"]])
def test_cross_score_matrix_fits_each_language_once(monkeypatch, caplog, languages):
    space, lex = two_language_orthogonal_space()
    # one defining word of aa and one neutral word of bb are out of vocabulary; a
    # skew tilts both gender directions off their axes, so no off-diagonal cell is 0
    dropped = {"aa:aam5", "bb:bbn4"}
    rows = [i for i, w in enumerate(space.vocab) if w not in dropped]
    skew = np.eye(space.dim) + 0.3 * np.random.default_rng(7).standard_normal((space.dim,) * 2)
    skewed = space.matrix[rows] @ skew
    skewed /= np.linalg.norm(skewed, axis=1, keepdims=True)
    space = EmbeddingSpace(
        space.language_tag, tuple(space.vocab[i] for i in rows), skewed, normalized=True
    )
    fits = []
    real_pca_basis = intrinsic.pca_basis

    def counting_pca_basis(*args, **kwargs):
        fits.append(args)
        return real_pca_basis(*args, **kwargs)

    monkeypatch.setattr(intrinsic, "pca_basis", counting_pca_basis)
    with caplog.at_level(logging.WARNING, logger="debias_embed"):
        matrix = cross_score_matrix(space, lex, languages)
    assert len(fits) == len(languages)
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == len(set(messages))
    expected = {
        "aa": "difference_matrix: skipping pair (aam5, aaf5) [aa]: word missing",
        "bb": "cross_score: 1 neutral bb word(s) are out of vocabulary",
    }
    assert set(messages) == {expected[lang] for lang in languages}
    row = dict(zip(space.vocab, space.matrix))

    def diffs(lang):
        pairs = [(f"{lang}:{p.male_word}", f"{lang}:{p.female_word}")
                 for p in lex.defining_pairs[lang]]
        return [row[m] - row[f] for m, f in pairs if m in row and f in row]

    for i, l1 in enumerate(languages):
        for j, l2 in enumerate(languages):
            neutral = [row[w] for w in (f"{l2}:{w}" for w in lex.neutral_words[l2].all_words())
                       if w in row]
            expected = cross_score_cell(diffs(l1), diffs(l2), neutral, 1e-8)
            assert matrix.values[i, j] == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_cross_score_epsilon_guard_error():
    space, lex = two_language_orthogonal_space()
    with pytest.raises(ValueError, match="guard"):
        cross_score_matrix(space, lex, ["aa", "bb"], epsilon=10.0)
    for epsilon in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            cross_score_matrix(space, lex, ["aa", "bb"], epsilon=epsilon)


def test_inbias_table_formats_missing_values():
    table = format_inbias_table(
        ["orig", "debiased"],
        [("aa", {"orig": 0.1234567, "debiased": 0.01}), ("bb", {"orig": 0.5})],
    )
    lines = table.strip().splitlines()
    assert lines[0].split() == ["lang", "orig", "debiased"]
    assert lines[1].split() == ["aa", "0.1235", "0.0100"]
    assert lines[2].split() == ["bb", "0.5000", "-"]
