import os
import re
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debias_embed.align import OrthogonalMap, apply_map, merge_spaces
from debias_embed.debias import DebiasConfig, debias_space
from debias_embed import embeddings
from debias_embed.embeddings import (
    BLOCK_BYTES,
    EmbeddingSpace,
    SpaceStream,
    load_vec,
    normalize,
    row_norms,
    save_vec,
    space_fingerprint,
)
from debias_embed.subspace import BiasSubspace
from helpers import inline_and_on_workers, orthonormal_rows, random_space, unit_rows
from oracles import vec_text


def write_vec(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_load_vec_basic(tmp_path):
    p = write_vec(tmp_path / "a.vec", ["2 3", "hello 1 2 3", "world 0.5 -1 2e-1"])
    space = load_vec(p, "en")
    assert space.vocab == ("hello", "world")
    assert space.dim == 3
    assert space.language_tag == "en"
    assert not space.normalized
    np.testing.assert_array_equal(space.matrix[0], [1.0, 2.0, 3.0])
    np.testing.assert_allclose(space.matrix[1], [0.5, -1.0, 0.2])


def test_load_vec_rejects_bad_header(tmp_path):
    p = write_vec(tmp_path / "a.vec", ["not a header", "x 1 2"])
    with pytest.raises(ValueError, match="line 1"):
        load_vec(p, "en")


def test_load_vec_rejects_wrong_arity(tmp_path):
    p = write_vec(tmp_path / "a.vec", ["1 3", "x 1 2"])
    with pytest.raises(ValueError, match="line 2"):
        load_vec(p, "en")


def test_load_vec_rejects_duplicate_word(tmp_path):
    p = write_vec(tmp_path / "a.vec", ["2 2", "x 1 2", "x 3 4"])
    with pytest.raises(ValueError, match="duplicate"):
        load_vec(p, "en")


def test_load_vec_rejects_count_mismatch(tmp_path):
    p = write_vec(tmp_path / "a.vec", ["3 2", "x 1 2", "y 3 4"])
    with pytest.raises(ValueError, match="3"):
        load_vec(p, "en")


def test_load_vec_rejects_non_numeric(tmp_path):
    p = write_vec(tmp_path / "a.vec", ["1 2", "x 1 oops"])
    with pytest.raises(ValueError, match="line 2"):
        load_vec(p, "en")


def test_load_vec_rejects_nan(tmp_path):
    p = write_vec(tmp_path / "a.vec", ["1 2", "x 1 nan"])
    with pytest.raises(ValueError, match="finite"):
        load_vec(p, "en")


def test_save_load_round_trip_exact(tmp_path):
    space = random_space(0, 7, 5)
    path = tmp_path / "r.vec"
    save_vec(space, str(path), precision=17)
    back = load_vec(str(path), "en")
    assert back.vocab == space.vocab
    np.testing.assert_array_equal(back.matrix, space.matrix)


def test_normalize_unit_norms_and_flag():
    rng = np.random.default_rng(1)
    space = EmbeddingSpace("en", ("a", "b", "c"), rng.standard_normal((3, 4)) * 5)
    out = normalize(space)
    assert out.normalized
    np.testing.assert_allclose(np.linalg.norm(out.matrix, axis=1), 1.0, atol=1e-12)


def test_normalize_idempotent_exactly():
    space = random_space(2, 5, 4)
    once = normalize(space)
    twice = normalize(once)
    assert twice is once  # already-normalized spaces pass through untouched
    np.testing.assert_array_equal(twice.matrix, once.matrix)


def test_normalize_rejects_zero_row():
    mat = np.array([[1.0, 0.0], [0.0, 0.0]])
    space = EmbeddingSpace("en", ("a", "b"), mat)
    with pytest.raises(ValueError, match="b"):
        normalize(space)


def test_space_validates_row_count_and_duplicates():
    with pytest.raises(ValueError):
        EmbeddingSpace("en", ("a", "b"), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="duplicate"):
        EmbeddingSpace("en", ("a", "a"), np.ones((2, 2)))
    # the first word to repeat is named, not the first word that has a repeat
    with pytest.raises(ValueError, match="^duplicate word in vocabulary: 'b'$"):
        EmbeddingSpace("en", ("a", "b", "b", "a"), np.ones((4, 2)))
    assert EmbeddingSpace("en", ("a", "b"), np.ones((2, 2))).index == {"a": 0, "b": 1}


def test_space_rejects_normalized_lie():
    with pytest.raises(ValueError):
        EmbeddingSpace("en", ("a",), np.array([[3.0, 4.0]]), normalized=True)


# the whole-matrix passes work through blocks of BLOCK_BYTES // (8 * d) rows:
# one block short of full, exactly full, one row over, and a last block of one row
BLOCK_ROW_COUNTS = {"step-1": (1, -1), "step": (1, 0), "step+1": (1, 1), "2step+1": (2, 1)}


def block_step(d):
    return BLOCK_BYTES // (8 * d)


@pytest.mark.parametrize("d", [256, 300])  # 8*256 bytes divides BLOCK_BYTES, 8*300 does not
@pytest.mark.parametrize("blocks, extra", BLOCK_ROW_COUNTS.values(), ids=BLOCK_ROW_COUNTS)
def test_row_norms_bitwise_equal_whole_matrix_norm(d, blocks, extra):
    n = blocks * block_step(d) + extra
    matrix = np.random.default_rng(n).standard_normal((n, d)) * 3.0
    assert row_norms(matrix).tobytes() == np.linalg.norm(matrix, axis=1).tobytes()


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_non_finite_value_in_last_block_names_word_and_component(value):
    n, d = 2 * block_step(300) + 1, 300
    matrix = unit_rows(np.random.default_rng(0), n, d)
    matrix[n - 1, 123] = value
    words = tuple(f"w{i}" for i in range(n))
    with pytest.raises(ValueError, match=rf"non-finite value for word 'w{n - 1}' \(component 123\)"):
        EmbeddingSpace("en", words, matrix)


def test_bad_norm_in_last_block_is_refused_for_a_normalized_space():
    n, d = 2 * block_step(300) + 1, 300
    matrix = unit_rows(np.random.default_rng(0), n, d)
    matrix[n - 1] *= 1.0 + 1e-6
    words = tuple(f"w{i}" for i in range(n))
    with pytest.raises(ValueError, match=f"space marked normalized but 'w{n - 1}' has norm"):
        EmbeddingSpace("en", words, matrix, normalized=True)


def test_matrix_is_read_only():
    space = random_space(3, 4, 3)
    with pytest.raises(ValueError):
        space.matrix[0, 0] = 9.0


def test_locate_bare_and_prefixed():
    space = random_space(4, 3, 2, tag="en", words=("dog", "cat", "en:fish"))
    assert space.locate("dog") == 0
    assert space.locate("dog", "en") == 0  # bare fallback when tags match
    assert space.locate("fish", "en") == 2  # prefixed form wins
    assert space.locate("dog", "hi") is None  # wrong language, no fallback
    assert space.locate("missing") is None


def test_locate_in_merged_space():
    space = random_space(5, 4, 3, tag="aa+bb", words=("aa:x", "aa:y", "bb:x", "bb:z"))
    assert space.locate("x", "aa") == 0
    assert space.locate("x", "bb") == 2
    assert space.locate("x") is None  # merged spaces need the language


def test_fingerprint_changes_with_content():
    s1 = random_space(7, 4, 3)
    s2 = random_space(8, 4, 3)
    assert space_fingerprint(s1) == space_fingerprint(s1)
    assert space_fingerprint(s1) != space_fingerprint(s2)
    assert space_fingerprint(s1) != space_fingerprint(
        EmbeddingSpace("hi", s1.vocab, s1.matrix, normalized=True)
    )


words_strategy = st.lists(
    st.text(
        alphabet=st.characters(codec="utf-8", exclude_characters=string.whitespace),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=6,
    unique=True,
)


@settings(max_examples=40, deadline=None)
@given(words=words_strategy, d=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_round_trip_any_vocab(tmp_path_factory, words, d, seed):
    rng = np.random.default_rng(seed)
    space = EmbeddingSpace("xx", tuple(words), rng.standard_normal((len(words), d)))
    path = tmp_path_factory.mktemp("vec") / "h.vec"
    save_vec(space, str(path), precision=17)
    back = load_vec(str(path), "xx")
    assert back.vocab == space.vocab
    np.testing.assert_array_equal(back.matrix, space.matrix)


@pytest.mark.parametrize("word", ["", "new york", "tab\there", "\nlead", "trail\r", "ff\x0c"])
def test_save_vec_refuses_words_the_format_cannot_hold(tmp_path, word):
    path = tmp_path / "kept.vec"
    path.write_text("1 1\nold 1\n", encoding="utf-8")
    space = EmbeddingSpace("xx", ("ok", word), np.ones((2, 1)))
    with pytest.raises(ValueError, match=re.escape(repr(word))):
        save_vec(space, str(path))
    assert path.read_text(encoding="utf-8") == "1 1\nold 1\n"


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), d=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_normalize_always_unit(n, d, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, d))
    mat[np.linalg.norm(mat, axis=1) < 1e-9] = 1.0  # keep rows nonzero
    out = normalize(EmbeddingSpace("xx", tuple(f"w{i}" for i in range(n)), mat))
    np.testing.assert_allclose(np.linalg.norm(out.matrix, axis=1), 1.0, atol=1e-9)
    assert normalize(out) is out


SPECIAL_VALUES = [-0.0, 5e-324, 1e-300, 1e16, 1 / 3]
finite_values = st.one_of(
    st.sampled_from(SPECIAL_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=60, deadline=None)
@given(
    words=words_strategy,
    d=st.integers(1, 6),
    precision=st.sampled_from([1, 9, 17]),
    data=st.data(),
)
def test_save_vec_bytes_match_per_value_formatter(tmp_path_factory, words, d, precision, data):
    vocab = ("नमस्ते", "50%s%%") + tuple(words)
    values = data.draw(st.lists(finite_values, min_size=len(vocab) * d, max_size=len(vocab) * d))
    matrix = np.array(values, dtype=np.float64).reshape(len(vocab), d)
    matrix[0] = np.resize(SPECIAL_VALUES, d)
    space = EmbeddingSpace("xx", vocab, matrix)
    path = tmp_path_factory.mktemp("vec") / "b.vec"
    save_vec(space, str(path), precision=precision)
    assert path.read_bytes() == vec_text(vocab, matrix, precision).encode("utf-8")


def test_space_does_not_alias_a_writeable_caller_array(tmp_path):
    arr = np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 2.0]])
    space = EmbeddingSpace("en", ("a", "b", "c"), arr)
    arr[0, 0] = 99.0
    assert space.matrix[0, 0] == 3.0
    assert arr.flags.writeable
    assert not np.shares_memory(arr, space.matrix)

    path = tmp_path / "s.vec"
    save_vec(space, str(path))
    loaded = load_vec(str(path), "en")
    normed = normalize(loaded)
    subspace = BiasSubspace(np.array([[1.0, 0.0]]), "pca", (1.0,))
    rotated = apply_map(OrthogonalMap(np.array([[0.0, -1.0], [1.0, 0.0]]), "en", "hi", 3), normed)
    built = {
        "load_vec": loaded,
        "normalize": normed,
        "debias_space": debias_space(normed, subspace, DebiasConfig(k=1)),
        "apply_map": rotated,
        "merge_spaces": merge_spaces(rotated, normalize(load_vec(str(path), "hi"))),
    }
    for name, result in built.items():
        assert not result.matrix.flags.writeable, name


def test_load_normalize_debias_and_save_stay_within_memory_budget(tmp_path):
    # tracemalloc sees numpy's data buffers, so the traced peak counts every
    # full-size matrix alive at once; matrix_bytes is one such matrix
    rng = np.random.default_rng(0)
    n, d = 2000, 300
    matrix_bytes = n * d * 8
    path = tmp_path / "m.vec"
    save_vec(EmbeddingSpace("en", tuple(f"w{i}" for i in range(n)), rng.standard_normal((n, d))),
             str(path), precision=17)
    subspace = BiasSubspace(orthonormal_rows(rng, 4, d), "pca", (4.0, 3.0, 2.0, 1.0))
    tracemalloc.start()
    try:
        debiased = debias_space(
            normalize(load_vec(str(path), "en")), subspace, DebiasConfig(scope="all")
        )
        pipeline_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before_save = tracemalloc.get_traced_memory()[0]
        save_vec(debiased, str(tmp_path / "out.vec"), precision=17)
        save_peak = tracemalloc.get_traced_memory()[1] - before_save
    finally:
        tracemalloc.stop()
    # input and output of one step; norms, checks and the residual use no third matrix
    assert pipeline_peak < 3.5 * matrix_bytes
    assert pipeline_peak < 2.6 * matrix_bytes
    # a couple of rows of text, never a block of rows
    assert save_peak < 0.0075 * matrix_bytes


def test_apply_map_and_merge_allocate_no_matrix_sized_temporary():
    rng = np.random.default_rng(0)
    n, d = 2000, 300
    words = tuple(f"w{i}" for i in range(n))
    source = EmbeddingSpace("hi", words, unit_rows(rng, n, d), normalized=True)
    target = EmbeddingSpace("en", words, unit_rows(rng, n, d), normalized=True)
    mapping = OrthogonalMap(orthonormal_rows(rng, d, d), "hi", "en", n)
    tracemalloc.start()
    try:
        # a rotation keeps unit norms only up to rounding, so, as in align, the
        # rotated rows are normalized again before the merge
        merged = merge_spaces(normalize(apply_map(mapping, source)), target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert merged.normalized
    # the normalized source and the merged two-matrix stack; the unit-norm check squares blocks
    assert peak < 4.0 * n * d * 8


def test_held_load_parses_only_held_rows_and_its_blocks_parse_all(tmp_path, monkeypatch):
    p = write_vec(tmp_path / "a.vec", ["4 2", "king 1 0", "odd 1 x", "queen 0 1", "man 1 1"])
    stream = load_vec(p, "en", hold={"queen", "king", "absent"})
    assert isinstance(stream, SpaceStream) and (len(stream), stream.dim) == (4, 2)
    assert stream.held.vocab == ("king", "queen")
    np.testing.assert_array_equal(stream.held.matrix, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="line 3: unparseable number in row for 'odd'"):
        list(stream.blocks())
    with pytest.raises(ValueError, match="line 4: duplicate word 'king' \\(first seen at line 2\\)"):
        load_vec(write_vec(tmp_path / "b.vec", ["3 1", "king 1", "q 2", "king 3"]), "en", hold=set())

    monkeypatch.setattr("debias_embed.embeddings.BLOCK_BYTES", 2 * 2 * 8)  # two rows a block
    p = write_vec(tmp_path / "c.vec", ["5 2"] + [f"w{i} {i} 1" for i in range(5)])
    blocks = list(load_vec(p, "en", hold=set()).blocks())
    assert [b.vocab for b in blocks] == [("w0", "w1"), ("w2", "w3"), ("w4",)]
    np.testing.assert_array_equal(np.vstack([b.matrix for b in blocks]), load_vec(p, "en").matrix)


def test_stream_normalized_rows_equal_the_held_space(tmp_path, monkeypatch):
    monkeypatch.setattr("debias_embed.embeddings.BLOCK_BYTES", 4 * 3 * 8)  # four rows a block
    path = str(tmp_path / "a.vec")
    save_vec(random_space(5, 9, 3), path, precision=17)
    space = normalize(load_vec(path, "xx"))
    stream = normalize(load_vec(path, "xx", hold={"w0002"}))
    assert stream.normalized and stream.held.normalized
    np.testing.assert_array_equal(stream.held.matrix, space.matrix[[2]])
    rows = [b.matrix for b in stream.blocks()]
    np.testing.assert_array_equal(np.vstack(rows), space.matrix)
    assert [len(r) for r in rows] == [4, 4, 1]


def test_failed_save_leaves_no_file_and_an_existing_one_as_it_was(tmp_path):
    src = tmp_path / "src.vec"
    src.write_text("3 2\na 1 0\nb 0 1\nc 1 1\n", encoding="utf-8")
    stream = load_vec(str(src), "xx", hold=set())
    src.write_text("2 2\na 1 0\nb 0 1\n", encoding="utf-8")  # shrinks after the first pass
    fresh, kept = tmp_path / "out" / "fresh.vec", tmp_path / "out" / "kept.vec"
    kept.parent.mkdir()
    kept.write_bytes(b"earlier\n")
    for path in (fresh, kept):
        with pytest.raises(ValueError, match="2 rows written, but the header declares 3"):
            save_vec(stream, str(path))
        with pytest.raises(ValueError, match="cannot write word"):
            save_vec(EmbeddingSpace("xx", ("a", "b c"), np.ones((2, 1))), str(path))
    assert sorted(p.name for p in kept.parent.iterdir()) == ["kept.vec"]
    assert kept.read_bytes() == b"earlier\n"


@pytest.mark.parametrize("target", ["/dev/null", "a directory"])
def test_save_refuses_a_target_that_is_not_a_regular_file(tmp_path, target):
    path = "/dev/null" if target == "/dev/null" else str(tmp_path)
    beside = os.path.dirname(os.path.realpath(path))
    listed = sorted(os.listdir(beside)), sorted(os.listdir(tmp_path))
    with pytest.raises(ValueError, match=re.escape(f"{path}: exists and is not a regular file")):
        save_vec(random_space(0, 3, 2), path)
    # no temporary file or segment beside the target, nor inside a directory
    assert (sorted(os.listdir(beside)), sorted(os.listdir(tmp_path))) == listed


def test_a_worker_that_dies_fails_the_save_and_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 4 * 3 * 8)  # four rows a block: three blocks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("DEBIAS_EMBED_THREADS", "2")
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    owner = os.getpid()
    write_rows = embeddings._write_rows

    def write_then_die(words, matrix, fh, line):
        write_rows(words, matrix, fh, line)
        if os.getpid() != owner:
            os._exit(0)  # its segment is written, but its result never sent

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(embeddings, "_write_rows", write_then_die)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(ChildProcessError, match=r"^text worker \d+ died before sending block 1$"):
        save_vec(random_space(0, 11, 3), str(out / "a.vec"))
    assert os.listdir(out) == []  # neither the temporary file nor the worker's segment
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):  # reaped
        os.waitpid(forked[0], os.WNOHANG)


def odd_vec(path, n=11, d=3):
    """n rows of d values: words holding U+00A0, a blank line inside, blank lines at the end."""
    rng = np.random.default_rng(n)
    lines = [f"{n} {d}"]
    for i in range(n):
        lines.append(f"w\u00a0{i} " + " ".join(repr(v) for v in rng.standard_normal(d).tolist()))
        if i == 5:
            lines.append("")
    return write_vec(path, lines + ["", "  ", ""])


def test_load_and_save_are_the_same_inline_and_on_workers(tmp_path, monkeypatch):
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 4 * 3 * 8)  # four rows a block: three blocks
    path = odd_vec(tmp_path / "a.vec")

    def run():
        space = load_vec(path, "xx")
        stream = normalize(load_vec(path, "xx", hold={"w\u00a03"}))
        save_vec(space, str(tmp_path / "held.vec"), precision=17)
        save_vec(stream, str(tmp_path / "stream.vec"))
        return (space.vocab, space.matrix, (tmp_path / "held.vec").read_bytes(),
                (tmp_path / "stream.vec").read_bytes())

    inline, pooled = inline_and_on_workers(monkeypatch, run)
    assert inline[0] == pooled[0] and len(inline[0]) == 11 and inline[0][3] == "w\u00a03"
    np.testing.assert_array_equal(inline[1], pooled[1])
    assert inline[2:] == pooled[2:]
    assert load_vec(str(tmp_path / "held.vec"), "xx").matrix.tobytes() == inline[1].tobytes()


def test_duplicate_across_a_block_boundary_is_named_the_same_both_ways(tmp_path, monkeypatch):
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 4 * 1 * 8)  # four rows a block
    path = write_vec(tmp_path / "a.vec", ["9 1"] + [f"w{i % 5} {i}" for i in range(9)])

    def run():
        with pytest.raises(ValueError) as err:
            load_vec(path, "xx")
        return str(err.value)

    # the first pass, which finds duplicates, reads every word in this process
    messages = inline_and_on_workers(monkeypatch, run, forks=False)
    assert messages == [f"{path}: line 7: duplicate word 'w0' (first seen at line 2)"] * 2


def test_malformed_row_in_a_worker_block_is_named_the_same_and_leaves_no_file(tmp_path,
                                                                             monkeypatch):
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 4 * 2 * 8)  # four rows a block
    rows = [f"w{i} {i} 1" for i in range(12)]
    rows[5] = "w5 1 x"  # in the second block, a worker's when there is one
    path = write_vec(tmp_path / "a.vec", ["12 2"] + rows)
    out = tmp_path / "out"
    out.mkdir()

    def run():
        messages = []
        with pytest.raises(ValueError) as err:
            load_vec(path, "xx")
        messages.append(str(err.value))
        with pytest.raises(ValueError) as err:
            save_vec(normalize(load_vec(path, "xx", hold=set())), str(out / "o.vec"))
        messages.append(str(err.value))
        assert os.listdir(out) == []  # no segment, no temporary file, no output
        return messages

    messages = inline_and_on_workers(monkeypatch, run)
    assert messages == [[f"{path}: line 7: unparseable number in row for 'w5'"] * 2] * 2


def test_more_workers_than_cpus_load_and_save_the_same(tmp_path, monkeypatch):
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 2 * 3 * 8)  # two rows a block: 20 blocks
    path = odd_vec(tmp_path / "a.vec", n=40)

    def run():
        space = load_vec(path, "xx")
        save_vec(space, str(tmp_path / "o.vec"), precision=17)
        return space.vocab, space.matrix.tobytes(), (tmp_path / "o.vec").read_bytes()

    inline, pooled = inline_and_on_workers(monkeypatch, run, cpus=8)
    assert inline == pooled
