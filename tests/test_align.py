import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debias_embed.align import (
    BilingualDictionary,
    OrthogonalMap,
    apply_map,
    load_dictionary,
    merge_spaces,
    procrustes_fit,
)
from debias_embed.embeddings import EmbeddingSpace, load_vec, save_vec
from helpers import orthonormal_rows, random_space, unit_rows
from oracles import best_rotation_by_grid, rotation


def paired_spaces(x, y, src="en", tgt="hi"):
    words = tuple(f"w{i}" for i in range(len(x)))
    source = EmbeddingSpace(src, words, x, normalized=True)
    target = EmbeddingSpace(tgt, words, y, normalized=True)
    dictionary = BilingualDictionary(src, tgt, tuple((w, w) for w in words))
    return source, target, dictionary


def test_fit_recovers_plane_rotation_and_matches_grid_search():
    rng = np.random.default_rng(3)
    x = unit_rows(rng, 12, 2)
    theta = np.deg2rad(30.0)
    y = x @ rotation(theta).T

    grid_angle, grid_cost = best_rotation_by_grid(x, y, 1_000_000)
    assert abs(grid_angle - theta) < 1e-5
    assert grid_cost < 1e-9

    src, tgt, d = paired_spaces(x, y)
    mapping = procrustes_fit(src, tgt, d)
    np.testing.assert_allclose(mapping.matrix, rotation(theta), atol=1e-12)
    fit_angle = np.arctan2(mapping.matrix[1, 0], mapping.matrix[0, 0])
    assert abs(fit_angle - grid_angle) < 1e-5  # within one grid step


def test_fit_is_at_least_as_good_as_random_orthogonal_maps():
    rng = np.random.default_rng(4)
    x = unit_rows(rng, 20, 4)
    noise = 0.05 * rng.standard_normal((20, 4))
    y = x @ orthonormal_rows(rng, 4, 4).T + noise  # noisy, so no exact recovery
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    src, tgt, d = paired_spaces(x, y)
    mapping = procrustes_fit(src, tgt, d)

    def cost(w):
        return float(np.sum((x @ w.T - y) ** 2))

    fitted = cost(mapping.matrix)
    for _ in range(10_000):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert fitted <= cost(q) + 1e-12


def test_fit_preserves_cosines():
    rng = np.random.default_rng(5)
    x = unit_rows(rng, 15, 6)
    y = x @ orthonormal_rows(rng, 6, 6).T
    src, tgt, d = paired_spaces(x, y)
    aligned = apply_map(procrustes_fit(src, tgt, d), src)
    np.testing.assert_allclose(aligned.matrix @ aligned.matrix.T, x @ x.T, atol=1e-12)


def test_map_is_orthogonal_even_for_rank_deficient_data():
    rng = np.random.default_rng(6)
    base = unit_rows(rng, 1, 5)
    x = np.repeat(base, 8, axis=0)  # rank one
    y = np.repeat(unit_rows(rng, 1, 5), 8, axis=0)
    src, tgt, d = paired_spaces(x, y)
    mapping = procrustes_fit(src, tgt, d)
    gram = mapping.matrix.T @ mapping.matrix
    assert np.linalg.norm(gram - np.eye(5)) < 1e-6


def test_fit_rejects_dimension_mismatch():
    src = random_space(7, 4, 3, tag="en")
    tgt = random_space(8, 4, 5, tag="hi")
    d = BilingualDictionary("en", "hi", tuple((w, w) for w in src.vocab))
    with pytest.raises(ValueError, match=r"3.*5|5.*3"):
        procrustes_fit(src, tgt, d)


def test_fit_skips_oov_pairs_with_warning(caplog):
    rng = np.random.default_rng(9)
    x = unit_rows(rng, 8, 3)
    y = x @ orthonormal_rows(rng, 3, 3).T
    src, tgt, d = paired_spaces(x, y)
    extra = BilingualDictionary("en", "hi", d.entries + (("ghost", "ghost"),))
    with caplog.at_level(logging.WARNING, logger="debias_embed"):
        mapping = procrustes_fit(src, tgt, extra)
    assert mapping.fit_pair_count == 8
    assert any("ghost" in m or "1" in m for m in caplog.messages)


def test_fit_frees_the_gathered_pairs_before_the_svd():
    rng = np.random.default_rng(2)
    n, d = 1000, 300
    src, tgt, dictionary = paired_spaces(unit_rows(rng, n, d), unit_rows(rng, n, d))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        procrustes_fit(src, tgt, dictionary)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the two (pairs x dim) gathers and their d x d product, plus one d x d array
    assert peak < 8 * (2 * n * d + 2 * d * d)


def test_fit_errors_when_no_pairs_resolve():
    src = random_space(10, 3, 3, tag="en")
    tgt = random_space(11, 3, 3, tag="hi")
    d = BilingualDictionary("en", "hi", (("nope", "nope"),))
    with pytest.raises(ValueError):
        procrustes_fit(src, tgt, d)


def test_orthogonal_map_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        OrthogonalMap(np.array([[1.0, 0.0], [0.0, 2.0]]), 4)


def test_merge_spaces_prefixes_and_locates():
    a = random_space(13, 3, 4, tag="en", words=("x", "y", "z"))
    b = random_space(14, 2, 4, tag="hi", words=("x", "q"))
    merged = merge_spaces(a, b)
    assert merged.language_tag == "en+hi"
    assert merged.vocab == ("en:x", "en:y", "en:z", "hi:x", "hi:q")
    assert merged.normalized
    assert merged.locate("x", "en") == 0
    assert merged.locate("x", "hi") == 3
    np.testing.assert_array_equal(merged.matrix[:3], a.matrix)
    np.testing.assert_array_equal(merged.matrix[3:], b.matrix)


def test_apply_map_rotates_each_row_on_its_own(monkeypatch):
    rng = np.random.default_rng(3)
    space = random_space(4, 50, 300)
    mapping = OrthogonalMap(orthonormal_rows(rng, 300, 300), 300)
    whole = apply_map(mapping, space).matrix
    np.testing.assert_allclose(whole, space.matrix @ mapping.matrix.T, atol=1e-14)
    monkeypatch.setattr("debias_embed.embeddings.BLOCK_BYTES", 7 * 300 * 8)  # 7-row blocks
    assert apply_map(mapping, space).matrix.tobytes() == whole.tobytes()
    for i in (0, 13, 49):
        row = EmbeddingSpace("en", (space.vocab[i],), space.matrix[i:i + 1])
        assert apply_map(mapping, row).matrix.tobytes() == whole[i].tobytes()


def test_merge_spaces_chains_without_double_prefixing():
    a = random_space(13, 3, 4, tag="en", words=("x", "y", "z"))
    b = random_space(14, 2, 4, tag="hi", words=("x", "q"))
    c = random_space(15, 2, 4, tag="te", words=("y", "r"))
    merged = merge_spaces(merge_spaces(a, b), c)
    assert merged.language_tag == "en+hi+te"
    assert merged.vocab == ("en:x", "en:y", "en:z", "hi:x", "hi:q", "te:y", "te:r")
    assert merged.locate("y", "te") == 5
    assert merged.locate("y", "en") == 1


@pytest.mark.parametrize("tags, shared", [(("en", "en"), "en"), (("en+hi", "hi"), "hi"),
                                          (("hi", "en+hi"), "hi")])
@pytest.mark.parametrize("streamed", [False, True], ids=["held", "streamed"])
def test_merge_spaces_refuses_tags_that_share_a_language(tmp_path, tags, shared, streamed):
    # different words, which would not collide: the shared tag alone is refused
    spaces = [random_space(13 + i, 2, 4, tag=tag, words=(f"x{i}", f"y{i}"))
              for i, tag in enumerate(tags)]
    if streamed:
        for i, space in enumerate(spaces):
            save_vec(space, str(tmp_path / f"{i}.vec"))
        spaces = [load_vec(str(tmp_path / f"{i}.vec"), tag, hold=set())
                  for i, tag in enumerate(tags)]
    with pytest.raises(ValueError, match=f"both hold language {shared!r}"):
        merge_spaces(*spaces)


@pytest.mark.parametrize("stream_first", [True, False], ids=["stream-held", "held-stream"])
def test_merge_spaces_refuses_a_stream_and_a_held_space(tmp_path, stream_first):
    save_vec(random_space(0, 2, 4, tag="en"), str(tmp_path / "en.vec"))
    stream = load_vec(str(tmp_path / "en.vec"), "en", hold=set())
    (tmp_path / "en.vec").unlink()  # a block read now fails with FileNotFoundError
    held = random_space(1, 2, 4, tag="hi")
    spaces = (stream, held) if stream_first else (held, stream)
    kinds = " with a ".join(type(space).__name__ for space in spaces)
    with pytest.raises(ValueError, match=f"^cannot merge a {kinds}: both must be held or both"):
        merge_spaces(*spaces)


def test_load_dictionary_tabs_and_whitespace(tmp_path):
    tab = tmp_path / "tab.txt"
    tab.write_text("hello\tnamaste\nworld\tduniya\n", encoding="utf-8")
    d = load_dictionary(str(tab), "en", "hi")
    assert d.entries == (("hello", "namaste"), ("world", "duniya"))

    ws = tmp_path / "ws.txt"
    ws.write_text("hello namaste\nworld duniya\n", encoding="utf-8")
    assert load_dictionary(str(ws), "en", "hi").entries == d.entries


def test_load_dictionary_splits_at_ascii_whitespace_only(tmp_path):
    # as a .vec word ends: U+00A0 and U+3000 stay inside a word
    p = tmp_path / "ws.txt"
    p.write_text("new\u00a0york  naya\u3000shahar\nold\x0bpurana\n", encoding="utf-8")
    assert load_dictionary(str(p), "en", "hi").entries == (
        ("new\u00a0york", "naya\u3000shahar"), ("old", "purana"))


def test_load_dictionary_rejects_bad_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("one two three\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_dictionary(str(p), "en", "hi")


def test_load_dictionary_drops_duplicates_with_warning(tmp_path, caplog):
    p = tmp_path / "dup.txt"
    p.write_text("a b\na b\nc d\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="debias_embed"):
        d = load_dictionary(str(p), "en", "hi")
    assert len(d.entries) == 2
    assert any("duplicate" in m for m in caplog.messages)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), d=st.integers(2, 6), n=st.integers(2, 12))
def test_fitted_maps_always_orthogonal(seed, d, n):
    rng = np.random.default_rng(seed)
    x = unit_rows(rng, n, d)
    y = unit_rows(rng, n, d)  # arbitrary target, not a rotation of x
    src, tgt, dd = paired_spaces(x, y)
    mapping = procrustes_fit(src, tgt, dd)
    gram = mapping.matrix.T @ mapping.matrix
    assert np.linalg.norm(gram - np.eye(d)) < 1e-6
