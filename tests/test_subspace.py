import json
import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debias_embed import debias, subspace
from debias_embed.cli import main
from debias_embed.embeddings import EmbeddingSpace
from debias_embed.lexicon import GenderPair
from debias_embed.manifest import capture_warnings
from debias_embed.subspace import (
    BiasSubspace,
    DifferenceMatrix,
    difference_matrix,
    equal_rep_basis,
    pca_basis,
    ppa_basis,
    save_subspace,
)
from helpers import load_generator
from oracles import (
    central_difference_grad,
    eig_top_directions_2d,
    excess_kurtosis,
    grid_best_direction_2d,
    ppa_ascend,
    principal_angle_sines,
    row_span_sines,
)
from planted import offset_world

LEXICON = str(Path(debias.__file__).parent / "data" / "lexicon.json")


def diffs(rows, tags=None):
    rows = np.asarray(rows, dtype=np.float64)
    if tags is None:
        tags = ("en",) * len(rows)
    return DifferenceMatrix(rows, tuple(tags))


# --- difference_matrix ---


def test_difference_rows_are_male_minus_female():
    mat = np.array([[1.0, 0.0], [0.0, 1.0]])
    space = EmbeddingSpace("en", ("he", "she"), mat, normalized=True)
    dm = difference_matrix(space, [GenderPair("he", "she", "en")])
    np.testing.assert_array_equal(dm.rows, [[1.0, -1.0]])
    assert dm.row_languages == ("en",)


def test_difference_matrix_skips_oov_with_warning(caplog):
    mat = np.array([[1.0, 0.0], [0.0, 1.0]])
    space = EmbeddingSpace("en", ("he", "she"), mat, normalized=True)
    pairs = [GenderPair("he", "she", "en"), GenderPair("king", "queen", "en")]
    with caplog.at_level(logging.WARNING, logger="debias_embed"):
        dm = difference_matrix(space, pairs)
    assert dm.shape[0] == 1
    assert any("king" in m for m in caplog.messages)


def test_difference_matrix_errors_when_nothing_resolves():
    mat = np.array([[1.0, 0.0]])
    space = EmbeddingSpace("en", ("hello",), mat, normalized=True)
    with pytest.raises(ValueError, match="^no gender pair is resolvable in the space; "
                                         "none of 'en' resolved$"):
        difference_matrix(space, [GenderPair("king", "queen", "en")])


def test_difference_matrix_names_each_language_and_a_missing_prefix():
    mat = np.array([[1.0, 0.0], [0.0, 1.0]])
    space = EmbeddingSpace("aa+bb", ("aa:m", "aa:f"), mat, normalized=True)
    pairs = [GenderPair("m", "x", "aa"), GenderPair("m", "f", "bb"), GenderPair("x", "f", "aa")]
    with pytest.raises(ValueError) as exc:
        difference_matrix(space, pairs)
    assert str(exc.value) == ("no gender pair is resolvable in the space; none of 'aa' resolved; "
                              "none of 'bb' resolved (the space holds no 'bb:' entries)")


def test_difference_matrix_skips_identical_vectors(caplog):
    mat = np.array([[0.6, 0.8], [0.6, 0.8], [1.0, 0.0], [0.0, 1.0]])
    space = EmbeddingSpace("en", ("a", "b", "he", "she"), mat, normalized=True)
    pairs = [GenderPair("a", "b", "en"), GenderPair("he", "she", "en")]
    with caplog.at_level(logging.WARNING, logger="debias_embed"):
        dm = difference_matrix(space, pairs)
    assert dm.shape == (1, 2)


# --- pca_basis ---


def test_pca_rank_one_axis_with_positive_sign():
    sub = pca_basis(diffs([[2.0, 0.0, 0.0]] * 3), k=1)
    np.testing.assert_allclose(sub.basis, [[1.0, 0.0, 0.0]], atol=1e-12)
    assert sub.method == "pca"
    assert sub.scores == (1.0,)


def test_pca_matches_closed_form_eigensolver():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    sub = pca_basis(diffs(rows), k=2)
    eigvals, eigvecs = eig_top_directions_2d(rows)
    sines = principal_angle_sines(sub.basis, eigvecs)
    assert sines.max() < 1e-8
    # per-direction match too, not only as a subspace
    for mine, ref in zip(sub.basis, eigvecs):
        assert min(np.linalg.norm(mine - ref), np.linalg.norm(mine + ref)) < 1e-8
    np.testing.assert_allclose(sub.scores, eigvals / eigvals.sum(), atol=1e-12)


def test_pca_scores_non_increasing_and_sum_to_one():
    rng = np.random.default_rng(0)
    sub = pca_basis(diffs(rng.standard_normal((8, 5))), k=4)
    assert all(a >= b for a, b in zip(sub.scores, sub.scores[1:]))
    total = pca_basis(diffs(rng.standard_normal((8, 5))), k=5).scores
    assert abs(sum(total) - 1.0) < 1e-12


def test_pca_rank_error_names_achievable_k():
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])  # rank 2
    with pytest.raises(ValueError, match="2"):
        pca_basis(diffs(rows), k=3)


# --- ppa_basis ---


def test_ppa_beats_grid_oracle_on_stated_rows():
    # projections on axis-1 {-3,-1,1,3,10}, on axis-2 {-1,1,-1,1,0};
    # the grid oracle puts the kurtosis maximum on the diagonal, at -0.5 exactly
    rows = np.array([[-3.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [3.0, 1.0], [10.0, 0.0]])
    grid_val, grid_dir = grid_best_direction_2d(rows, 10_000)
    assert grid_val == pytest.approx(-0.5, abs=1e-9)
    sub = ppa_basis(diffs(rows), k=1, seed=0)
    assert sub.scores[0] >= grid_val - 1e-6
    angle = np.arccos(min(1.0, abs(float(sub.basis[0] @ grid_dir))))
    assert angle < 1e-3


def test_ppa_matches_grid_on_frozen_heavy_tailed_instance():
    rng = np.random.default_rng(1007)
    n = int(rng.integers(12, 40))
    rows = rng.standard_t(df=3, size=(n, 2))
    rows[rng.integers(0, n)] *= rng.uniform(4, 9)
    grid_val, _ = grid_best_direction_2d(rows, 10_000)
    assert grid_val == pytest.approx(3.704045767954, abs=1e-6)
    sub = ppa_basis(diffs(rows), k=1, seed=0)
    assert sub.scores[0] >= grid_val - 1e-6


def test_ppa_score_equals_projection_kurtosis():
    rng = np.random.default_rng(21)
    rows = rng.standard_t(df=3, size=(15, 3))
    sub = ppa_basis(diffs(rows), k=2, seed=0)
    for direction, score in zip(sub.basis, sub.scores):
        assert score == pytest.approx(excess_kurtosis(rows @ direction), abs=1e-9)


def test_ppa_deterministic_per_seed():
    rng = np.random.default_rng(22)
    rows = rng.standard_t(df=3, size=(20, 4))
    a = ppa_basis(diffs(rows), k=2, seed=5)
    b = ppa_basis(diffs(rows), k=2, seed=5)
    np.testing.assert_array_equal(a.basis, b.basis)
    assert a.scores == b.scores


def test_ppa_needs_four_rows():
    with pytest.raises(ValueError):
        ppa_basis(diffs(np.eye(3)), k=1, seed=0)


def test_ppa_one_dimensional_data_forced_direction():
    sub = ppa_basis(diffs([[1.0], [2.0], [-1.0], [0.5]]), k=1, seed=0)
    np.testing.assert_array_equal(sub.basis, [[1.0]])


def test_ppa_basis_orthonormal_under_deflation():
    rng = np.random.default_rng(23)
    rows = rng.standard_t(df=3, size=(30, 5))
    sub = ppa_basis(diffs(rows), k=3, seed=0)
    np.testing.assert_allclose(sub.basis @ sub.basis.T, np.eye(3), atol=1e-9)
    assert all(a >= b - 1e-12 for a, b in zip(sub.scores, sub.scores[1:]))


def test_ppa_basis_lies_in_row_span_when_rows_are_few():
    rows = np.random.default_rng(24).standard_normal((10, 300))
    sub = ppa_basis(diffs(rows), k=4, seed=0)
    assert row_span_sines(sub.basis, rows).max() < 1e-8


def test_ppa_warns_when_directions_reach_single_outlier_bound():
    n = 10
    rows = np.random.default_rng(25).standard_normal((n, 300))
    with capture_warnings() as messages:
        sub = ppa_basis(diffs(rows), k=4, seed=0)
    bound = (n - 2) + 1.0 / (n - 1) - 3.0
    assert sub.scores[0] == pytest.approx(bound, abs=1e-9)
    assert len(messages) == 1
    assert "single-outlier kurtosis bound 5.111" in messages[0]


def test_ppa_does_not_warn_below_single_outlier_bound():
    rows = np.random.default_rng(26).standard_t(df=3, size=(200, 2))
    with capture_warnings() as messages:
        ppa_basis(diffs(rows), k=2, seed=0)
    assert messages == []


def test_ppa_refuses_k_above_the_rank_of_the_centered_rows():
    # four rows span four dimensions, but their centered rows only three
    rows = np.random.default_rng(27).standard_normal((4, 6))
    assert len(ppa_basis(diffs(rows), k=3).scores) == 3
    with pytest.raises(ValueError, match="^k=4 exceeds the numerical rank of the centered "
                                         "difference rows; achievable k is 3$"):
        ppa_basis(diffs(rows), k=4)


def oracle_step_one(rows, seed):
    """The best score of the reference ascent (``oracles.ppa_ascend``, projected
    gradient ascent with Armijo steps) from the 32 starts ppa_basis lays out
    for its first direction."""
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    span = vt[:int(np.sum(s >= subspace.RANK_RTOL * s[0]))]
    coords = rows @ span.T
    lead = np.linalg.svd(coords, full_matrices=False)[2][0]
    randoms = np.random.default_rng(seed).standard_normal((subspace.PPA_STARTS - 1, rows.shape[1]))
    starts = np.vstack([lead, randoms @ span.T]).T
    _, values = ppa_ascend(coords - coords.mean(axis=0), starts, np.eye(len(span)),
                           grad_tol=1e-9, max_iter=1000)
    return values.max()


# 5 shapes x 2 row laws x 4 seeds = 40 instances; the widest is a
# deflation step of the pursuit benchmark's 40 pooled pairs
@pytest.mark.parametrize("shape", [(10, 300), (20, 300), (40, 300), (30, 5), (20, 12)])
@pytest.mark.parametrize("law", ["normal", "t3"])
def test_first_direction_scores_at_least_the_reference_ascent_from_the_same_starts(shape, law):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal(shape) if law == "normal" else rng.standard_t(3, size=shape)
        score = ppa_basis(diffs(rows), k=1, seed=seed).scores[0]
        assert score >= oracle_step_one(rows, seed) - 1e-9, seed


@pytest.fixture(scope="module")
def pursuit_fit(tmp_path_factory):
    """The ``pursuit_multi_4lang`` benchmark's fit, from its command on the
    ``perfbench/gen.py`` seed-0 input: the difference rows, the subspace, and
    per deflation step the most iterations any start needed."""
    gen = load_generator()
    out = tmp_path_factory.mktemp("pursuit")
    emb = gen.pursuit_inputs(gen.read_lexicon(LEXICON), 0, str(out)).files["emb"]
    fits, iterations = [], []
    fit, ascent = subspace.ppa_basis, subspace._power_ascent

    def kept(dm, k, seed):
        fits.append((dm, fit(dm, k, seed=seed)))
        return fits[-1][1]

    def counted(y, a):
        result = ascent(y, a)
        iterations.append(int(result[2].max()))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(debias, "ppa_basis", kept)
        patch.setattr(subspace, "_power_ascent", counted)
        assert main(["debias", "--emb", emb, "--languages", ",".join(gen.LANGUAGES),
                     "--variant", "multi", "--method", "ppa", "--k", "4", "--train-count", "10",
                     "--scope", "neutral", "--out", str(out / "o.vec")]) == 0
    [(dm, sub)] = fits
    return dm, sub, iterations


# stated before the first run; projected Armijo ascent (oracles.ppa_ascend)
# takes 933-1,205 evaluations for step 1 of these rows and 2,009-2,014 for
# each later step
PURSUIT_ITERATION_CEILING = 50


def test_each_deflation_step_of_the_pursuit_benchmark_converges_in_few_iterations(pursuit_fit):
    dm, sub, iterations = pursuit_fit
    assert dm.shape == (40, 300) and sub.k == 4
    assert len(iterations) == 4
    assert max(iterations) <= PURSUIT_ITERATION_CEILING, iterations


# stated before the first run: the norm of the part of the central-difference
# (h = 1e-5) gradient of the excess kurtosis at a returned direction that lies
# off every returned direction
KKT_TOL = 1e-5


def off_basis_gradients(rows, basis):
    """For each row of ``basis``, the norm of the excess kurtosis gradient of
    ``rows @ x`` at it, less its parts along every row of ``basis``.

    The kurtosis does not change with the length of x, so the gradient is
    orthogonal to x; deflation's direction j maximizes it over the unit
    vectors orthogonal to directions 1..j-1, so at a maximum the gradient
    lies in their span, and a fortiori in the span of the whole basis.
    """
    norms = []
    for u in basis:
        grad = central_difference_grad(lambda x: excess_kurtosis(rows @ x), u)
        norms.append(float(np.linalg.norm(grad - basis.T @ (basis @ grad))))
    return norms


def test_pursuit_benchmark_directions_are_stationary_on_their_deflated_spheres(pursuit_fit):
    dm, sub, _ = pursuit_fit
    assert max(off_basis_gradients(dm.rows, sub.basis)) < KKT_TOL


@pytest.mark.parametrize("seed", range(5))
def test_heavy_tailed_directions_are_stationary_on_their_deflated_spheres(seed):
    rows = np.random.default_rng(seed).standard_t(3, size=(30, 5))
    sub = ppa_basis(diffs(rows), k=4, seed=seed)
    assert max(off_basis_gradients(rows, sub.basis)) < KKT_TOL


def test_a_chosen_start_stopped_by_the_iteration_cap_warns_once_naming_the_languages(monkeypatch):
    monkeypatch.setattr(subspace, "PPA_MAX_ITER", 1)
    rows = np.random.default_rng(28).standard_t(3, size=(20, 6))
    with capture_warnings() as messages:
        ppa_basis(diffs(rows, ("aa", "bb") * 10), k=2, seed=0)
    assert [m for m in messages if "iteration cap" in m] == [
        "ppa_basis: 2 of 2 direction(s) stopped at the iteration cap 1 before converging "
        "[aa, bb]"]


# --- equal_rep_basis ---


def counted_factor(monkeypatch):
    """The list of row counts of each ``subspace._factor`` call from now on."""
    calls = []
    factor = subspace._factor
    monkeypatch.setattr(subspace, "_factor", lambda rows: calls.append(len(rows)) or factor(rows))
    return calls


@pytest.mark.parametrize("method", ["pca", "ppa"])
def test_equal_rep_basis_spans_each_languages_own_fit_in_score_order(monkeypatch, method):
    rng = np.random.default_rng(4)
    dm = diffs(rng.standard_t(df=3, size=(20, 12)), ("en", "hi", "en", "hi", "be") * 4)
    calls = counted_factor(monkeypatch)
    out = equal_rep_basis(dm, 6, ["en", "hi", "be"], method, seed=3)
    assert calls == [8, 8, 4]  # one fit of each language's own rows
    tags = np.asarray(dm.row_languages)

    def fit(rows):
        return pca_basis(diffs(rows), 2) if method == "pca" else ppa_basis(diffs(rows), 2, seed=3)

    own = {lang: fit(dm.rows[tags == lang]) for lang in ("en", "hi", "be")}
    sines = principal_angle_sines(out.basis, np.vstack([f.basis for f in own.values()]))
    assert sines.max() < 1e-12
    labeled = sorted(((score, lang) for lang, f in own.items() for score in f.scores),
                     key=lambda pair: -pair[0])
    assert list(zip(out.scores, out.orientation_labels)) == labeled
    assert out.method == method


@pytest.mark.parametrize("rows, languages, named, before", [
    # identical rows: the tie keeps the order of languages, so the later one is named
    ([[1.0, 0.0], [1.0, 0.0]], ["aa", "bb"], "bb", 1),
    ([[1.0, 0.0], [1.0, 0.0]], ["bb", "aa"], "aa", 1),
    # three directions in two dimensions
    ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], ["aa", "bb", "cc"], "cc", 2),
], ids=["tie", "tie-reversed", "past-the-dimension"])
def test_equal_rep_basis_refuses_a_direction_in_the_span_of_those_before_it(
        rows, languages, named, before):
    dm = diffs(rows, ("aa", "bb", "cc")[:len(rows)])
    with pytest.raises(ValueError, match=f"a direction of language '{named}' lies in the span "
                                         f"of the {before} direction\\(s\\) before it"):
        equal_rep_basis(dm, len(languages), languages)


@pytest.mark.parametrize("method, rows, message", [
    ("pca", [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
     "k=2 exceeds the numerical rank of the difference matrix; achievable k is 1"),
    ("ppa", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
     "projection pursuit needs at least 4 difference rows, got 3"),
], ids=["pca-rank", "ppa-rows"])
def test_equal_rep_basis_names_a_language_whose_rows_cannot_give_its_share(method, rows, message):
    per_language = 2 if method == "pca" else 1
    aa = np.random.default_rng(1).standard_normal((6, 3))
    dm = diffs(np.vstack([aa, rows]), ("aa",) * 6 + ("bb",) * len(rows))
    with pytest.raises(ValueError) as refused:
        equal_rep_basis(dm, 2 * per_language, ["aa", "bb"], method)
    assert str(refused.value) == (
        f"language 'bb' cannot give {per_language} direction(s): {message}")


def test_equal_rep_basis_refuses_a_language_without_rows_before_any_fit(monkeypatch):
    calls = counted_factor(monkeypatch)
    dm = diffs(np.random.default_rng(0).standard_normal((8, 6)), ("aa",) * 8)
    for method in ("pca", "ppa"):
        with pytest.raises(ValueError, match="language 'bb' has no rows in the difference matrix"):
            equal_rep_basis(dm, 2, ["aa", "bb"], method)
    assert calls == []


@settings(max_examples=10, deadline=None)  # each example runs 6 ppa fits
@given(scale=st.floats(0.01, 100.0), seed=st.integers(0, 2**16), order=st.permutations([0, 1, 2]))
def test_equal_rep_basis_ignores_one_languages_scale_and_the_order_of_languages(
        scale, seed, order):
    rows = np.random.default_rng(seed).standard_t(df=3, size=(18, 8))
    tags = ("aa", "bb", "cc") * 6
    languages = ["aa", "bb", "cc"]
    scaled = rows * np.where(np.asarray(tags) == "bb", scale, 1.0)[:, None]
    np.testing.assert_allclose(equal_rep_basis(diffs(scaled, tags), 6, languages).basis,
                               equal_rep_basis(diffs(rows, tags), 6, languages).basis,
                               rtol=0, atol=1e-12)
    for method in ("pca", "ppa"):
        def projector(langs):
            basis = equal_rep_basis(diffs(rows, tags), 3, langs, method, seed=seed).basis
            return basis.T @ basis

        np.testing.assert_allclose(projector([languages[i] for i in order]),
                                   projector(languages), rtol=0, atol=1e-12)


# stated before the first run: the mean over seeds 0-4 of the worst-covered
# language's sine, eqr against multi
RECOVERY_MARGIN = 0.01


def worst_language_sines(counts, seed):
    """The largest sine between a pca basis (k=4) and a planted direction of
    the offset model, for eqr and for multi."""
    world = offset_world(counts, dim=300, own=0.5, seed=seed)
    dm = diffs(world.rows, world.row_languages)
    bases = equal_rep_basis(dm, 4, list(counts)), pca_basis(dm, 4)
    return [max(principal_angle_sines(b.basis, g[None, :])[0] for g in world.directions.values())
            for b in bases]


@pytest.mark.parametrize("counts, gain", [
    ({"en": 60, "hi": 10, "be": 10, "te": 10}, RECOVERY_MARGIN),  # the case eqr exists for
    ({"en": 20, "hi": 20, "be": 21, "te": 15}, -RECOVERY_MARGIN),  # the lexicon's counts
], ids=["imbalanced", "balanced"])
def test_eqr_covers_the_worst_language_of_the_offset_model_as_well_as_multi(counts, gain):
    eqr, multi = np.mean([worst_language_sines(counts, seed) for seed in range(5)], axis=0)
    assert eqr <= multi - gain, (eqr, multi)


def test_equal_rep_basis_refuses_an_uneven_k_before_any_fit(monkeypatch):
    calls = counted_factor(monkeypatch)
    dm = diffs(np.random.default_rng(0).standard_normal((8, 6)), ("en", "hi") * 4)
    for method in ("pca", "ppa"):
        with pytest.raises(ValueError, match="k=3 is not divisible by the language count 2"):
            equal_rep_basis(dm, 3, ["en", "hi"], method)
    assert calls == []


# --- BiasSubspace invariants and serialization ---


def test_subspace_rejects_non_orthonormal_basis():
    bad = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        BiasSubspace(bad, "pca", (2.0, 1.0))


def test_subspace_rejects_increasing_scores():
    with pytest.raises(ValueError):
        BiasSubspace(np.eye(2), "pca", (1.0, 2.0))


def test_saved_subspace_reads_back_bit_for_bit(tmp_path):
    rng = np.random.default_rng(31)
    rows = rng.standard_normal((10, 4))
    sub = pca_basis(diffs(rows), k=2)
    sub = BiasSubspace(sub.basis, sub.method, sub.scores, orientation_labels=("en", "hi"))
    path = tmp_path / "sub.json"
    save_subspace(sub, str(path))
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    assert np.array(data["basis"], dtype=np.float64).tobytes() == sub.basis.tobytes()
    assert tuple(data["scores"]) == sub.scores
    assert data["method"] == sub.method
    assert tuple(data["orientation_labels"]) == sub.orientation_labels
    assert data["k"] == 2
    assert set(data) >= {"method", "k", "basis", "scores"}


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(4, 12),
    d=st.integers(2, 6),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_every_basis_is_orthonormal(n, d, k, seed):
    k = min(k, d)
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d)) + 0.1
    dm = diffs(rows)
    for sub in (pca_basis(dm, k=k), ppa_basis(dm, k=k, seed=0)):
        gram = sub.basis @ sub.basis.T
        assert np.abs(gram - np.eye(k)).max() < 1e-8
