"""The ``.vec`` reader's numpy kernel: the values ``float()`` gives, a
fallback to the per-line reader that changes nothing, and bounded memory."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debias_embed import embeddings
from debias_embed.embeddings import BLOCK_BYTES, load_vec, normalize, save_vec
from helpers import inline_and_on_workers, random_space, stream_blocks, unit_rows
from oracles import vec_rows


def write_text(path, dim, lines):
    """A ``.vec`` file of ``lines`` (each ending with LF) and its header."""
    text = "".join(lines)
    rows = sum(1 for line in lines if line.split())
    path.write_bytes(f"{rows} {dim}\n{text}".encode("utf-8"))
    return str(path), text


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def streamed(path):
    """The words and rows of a pass over every block of a stream of ``path``,
    which its first pass does not parse."""
    blocks = list(stream_blocks(load_vec(path, "xx", hold=set())))
    return [word for block in blocks for word in block.vocab], np.vstack([b.matrix for b in blocks])


signs = st.sampled_from(["", "-"])
digit_runs = st.text("0123456789", min_size=1, max_size=16)
#: the kernel's domain: [-]d.f[e(+|-)dd], 1 to 16 fraction digits
exponent_forms = st.builds(
    lambda s, d0, frac, k: f"{s}{d0}.{frac}e{k + len(frac):+03d}",
    signs, st.integers(0, 9), digit_runs, st.integers(-24, 24))  # |k| <= 22, and just past
EDGE_TOKENS = [
    "0.0", "-0.0", "0.00000000", "-0.00000000", "-0.0000000000000000", "-0.0e+00",
    "1.5e-21", "1.5e-22", "-4.25e+24", "4.25e+25", "9.5e+22",  # k = -22, -23, 22, 23, 21
    "0.1234567890123456", "9.1234567890123456",  # 16 fraction digits: M < 2**53, M > 2**53
    "0.12345678901234567", "-1.2345678901234567e-05",  # 17 fraction digits
    "9.007199254740992", "-9.007199254740993", "0.9007199254740992e-03",  # 2**53, 2**53 + 1
    "0.9007199254740993",
]
edge_tokens = st.sampled_from(EDGE_TOKENS)
#: tokens the per-line reader takes that the kernel does not
out_of_domain = st.sampled_from([
    "+0.5", "1E-05", ".5", "5.", "1e-100", "12.5", "0", "-0", "1_0", "১", "1e5",
    "0.12345678901234567", "-1.5E+3", "7", "1.e+05",
])


@st.composite
def chunk_tokens(draw, n):
    """``n`` number tokens as the writers of ``.vec`` files give them."""
    kind = draw(st.sampled_from(["g", "f", "edges"]))
    if kind == "edges":
        return draw(st.lists(st.one_of(edge_tokens, exponent_forms), min_size=n, max_size=n))
    scale = 10.0 ** draw(st.integers(-7, 0))
    values = draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
    form = "%.8f" if kind == "f" else f"%.{draw(st.integers(1, 15))}g"
    return [form % (v * scale) for v in values]


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 12),
    d=st.integers(1, 8),
    trailing=st.booleans(),
    chunk=st.sampled_from([64, 1000, 1 << 16]),
    data=st.data(),
)
def test_load_gives_float_of_every_token_whichever_path_a_chunk_takes(
        tmp_path_factory, n, d, trailing, chunk, data):
    tokens = data.draw(chunk_tokens(n * d))
    for i, token in data.draw(st.lists(st.tuples(st.integers(0, n * d - 1), out_of_domain),
                                       max_size=3)):
        tokens[i] = token
    lines = [f"{'नमस्ते' if i == 1 else 'w'}{i} " + " ".join(tokens[i * d:(i + 1) * d])
             + (" \n" if trailing else "\n") for i in range(n)]
    path, text = write_text(tmp_path_factory.mktemp("vec") / "a.vec", d, lines)
    words, rows = vec_rows(text, d)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embeddings, "_CHUNK_BYTES", chunk)
        space = load_vec(path, "xx")
        held = load_vec(path, "xx", hold=set(words[::2])).held  # parsed in the first pass
        passed = streamed(path)
    assert list(space.vocab) == words
    assert same_bits(space.matrix, rows)
    assert passed[0] == words
    assert same_bits(passed[1], rows)
    assert list(held.vocab) == words[::2]
    assert same_bits(held.matrix, rows[::2])


def test_each_edge_token_in_a_chunk_of_its_own_reads_as_float_reads_it(tmp_path, monkeypatch):
    monkeypatch.setattr(embeddings, "_CHUNK_BYTES", 16)  # a line a chunk
    path, text = write_text(tmp_path / "e.vec", 1,
                            [f"w{i} {token}\n" for i, token in enumerate(EDGE_TOKENS)])
    assert same_bits(load_vec(path, "xx").matrix, vec_rows(text, 1)[1])


@pytest.fixture()
def kernel_calls(monkeypatch):
    """The results of every :func:`embeddings._kernel_parse` call: None for a
    chunk it hands to the per-line reader."""
    calls = []
    kernel = embeddings._kernel_parse

    def counted(buf, dim):
        calls.append(kernel(buf, dim))
        return calls[-1]

    monkeypatch.setattr(embeddings, "_kernel_parse", counted)
    return calls


def test_generated_and_saved_files_are_parsed_by_the_kernel_alone(tmp_path, monkeypatch,
                                                                  kernel_calls):
    monkeypatch.setenv("DEBIAS_EMBED_THREADS", "1")  # every block is parsed in this process
    rng = np.random.default_rng(3)
    matrix = unit_rows(rng, 2000, 300) * rng.uniform(0.5, 2.0, (2000, 1))
    # as fastText and the benchmark's generator write rows: each value then a space
    line = "%s" + " %.8f" * 300 + " \n"
    generated, _ = write_text(tmp_path / "gen.vec", 300,
                              [line % (f"w{i}", *row) for i, row in enumerate(matrix.tolist())])
    saved = tmp_path / "saved.vec"
    save_vec(random_space(5, 2000, 300), str(saved), precision=9)
    assert b"e-05" in saved.read_bytes()  # exponent forms are in the kernel's domain too
    for path in (generated, str(saved)):
        kernel_calls.clear()
        blocks = list(stream_blocks(load_vec(path, "xx", hold=set())))
        assert sum(len(b) for b in blocks) == 2000
        assert len(kernel_calls) > len(blocks) and None not in kernel_calls


def reference_read(path, dim):
    """The words and rows, or the message, of the per-line reader over the whole file."""
    with open(path, "rb") as fh:
        fh.readline()
        try:
            got = list(embeddings._vec_rows(fh, path, dim))
        except ValueError as exc:
            return str(exc)
    return [word for _, word, _ in got], np.array([row for _, _, row in got])


ODD_ROWS = {
    "tab": ["w2\t0.5 0.25 0.125\n"],
    "crlf": ["w2 0.5 0.25 0.125\r\n"],
    "blank-line": ["\n", "w2 0.5 0.25 0.125\n"],
    "leading-space": [" w2 0.5 0.25 0.125\n"],
    "nbsp": ["w2 0.5\u00a00.25 0.125\n"],
    **{f"token {token}": [f"w2 0.5 {token} 0.125\n"]
       for token in ["+0.5", "1E-05", ".5", "5.", "1e-100", "12.5", "0", "-0", "inf", "nan",
                     "1_0", "১"]},
}


@pytest.mark.parametrize("chunk", [16, 1 << 16], ids=["line-chunks", "one-chunk"])
@pytest.mark.parametrize("odd", list(ODD_ROWS.values()) + ["%.17g"],
                         ids=list(ODD_ROWS) + ["precision-17"])
def test_rows_outside_the_kernel_read_as_the_per_line_reader_reads_them(
        tmp_path, monkeypatch, odd, chunk):
    monkeypatch.setattr(embeddings, "_CHUNK_BYTES", chunk)
    rng = np.random.default_rng(7)
    form = "%.17g" if odd == "%.17g" else "%.9g"
    lines = ["w%d" % i + (" " + form) * 3 % tuple(row) + "\n"
             for i, row in enumerate(unit_rows(rng, 5, 3).tolist())]
    if odd != "%.17g":
        lines[2:3] = odd
    path, _ = write_text(tmp_path / "odd.vec", 3, lines)
    expected = reference_read(path, 3)
    if isinstance(expected, str):
        for read in (lambda: load_vec(path, "xx"), lambda: streamed(path)):
            with pytest.raises(ValueError) as err:
                read()
            assert str(err.value) == expected
        assert "line 4: non-finite component for 'w2'" in expected
    else:
        space = load_vec(path, "xx")
        assert list(space.vocab) == expected[0]
        assert same_bits(space.matrix, expected[1])
        words, rows = streamed(path)
        assert words == expected[0]
        assert same_bits(rows, expected[1])
    if odd in (ODD_ROWS["token 1_0"], ODD_ROWS["token ১"]):  # as float() reads them
        assert space.matrix[2, 1] == {"1_0": 10.0, "১": 1.0}[odd[0].split()[2]]


def fixed_width_rows(n, d):
    """n lines of d values, each line the same number of bytes."""
    rng = np.random.default_rng(n)
    return [f"w{i:03d} " + " ".join("%.8f" % v for v in rng.uniform(0, 1, d)) + "\n"
            for i in range(n)]


def test_the_first_pass_parses_held_rows_by_the_kernel_a_chunk_of_lines_at_a_time(
        tmp_path, monkeypatch, kernel_calls):
    lines = fixed_width_rows(24, 3)
    monkeypatch.setattr(embeddings, "_CHUNK_BYTES", 4 * len(lines[0]))  # four lines a chunk
    path, _ = write_text(tmp_path / "a.vec", 3, lines)
    held = load_vec(path, "xx", hold={f"w{i:03d}" for i in range(0, 24, 2)}).held
    assert len(kernel_calls) == 3 and None not in kernel_calls  # 12 held rows, no block read
    assert same_bits(held.matrix, load_vec(path, "xx").matrix[::2])


def test_a_full_load_opens_its_file_once(tmp_path, monkeypatch):
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 4 * 3 * 8)  # four rows a block: six blocks
    path, text = write_text(tmp_path / "a.vec", 3, fixed_width_rows(24, 3))
    opened = []

    def counted(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(embeddings, "open", counted, raising=False)
    space = load_vec(path, "xx")
    assert opened == [path]
    assert same_bits(space.matrix, vec_rows(text, 3)[1])


@pytest.mark.parametrize("hold", [None, {"he"}], ids=["full", "held"])
@pytest.mark.parametrize("header, message", [
    ("2 100000000000", "line 2: expected 100000000000 components for 'he', found 2"),
    (f"{10**12} 2", f"line 3: header declared {10**12} rows, found 2"),
], ids=["dim", "count"])
def test_no_header_alone_sizes_an_allocation(tmp_path, header, message, hold):
    # every row takes at least 2 bytes a component, so the file bounds the rows it holds
    path = tmp_path / "a.vec"
    path.write_text(f"{header}\nhe 0.1 0.2\nshe 0.3 0.4\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_vec(str(path), "xx", hold=hold)
    assert str(err.value) == f"{path}: {message}"


#: faults the first pass finds: in a held row, and in a line whatever its word
ROW_FAULT = (lambda line: line[:-2] + "x\n", "unparseable number in row for {word!r}")
LINE_FAULTS = {
    "duplicate": (lambda line: "w001" + line[4:], "duplicate word 'w001' (first seen at line 3)"),
    "bad-utf8": (lambda line: "\udcff" + line[1:], "byte 0xff is not valid UTF-8"),
}


@pytest.mark.parametrize("order", ["row-first", "line-first", "same-line"])
@pytest.mark.parametrize("fault", LINE_FAULTS)
def test_the_first_pass_raises_the_first_fault_in_line_order(tmp_path, order, fault):
    # as a read a line at a time raises it, though held rows are parsed a chunk at a time
    lines = fixed_width_rows(12, 3)
    row, line = {"row-first": (4, 7), "line-first": (7, 4), "same-line": (6, 6)}[order]
    lines[row] = ROW_FAULT[0](lines[row])
    plant, message = LINE_FAULTS[fault]
    lines[line] = plant(lines[line])
    path = tmp_path / "a.vec"
    path.write_bytes(("12 3\n" + "".join(lines)).encode("utf-8", "surrogateescape"))
    if order == "row-first" or (order == "same-line" and fault == "duplicate"):
        word = lines[row].split()[0]
        expected = f"{path}: line {row + 2}: " + ROW_FAULT[1].format(word=word)
    else:  # a bad byte is found before the row is read
        expected = f"{path}: line {line + 2}: {message}"
    for hold in ({f"w{i:03d}" for i in range(12)}, None):  # every word held, then a full load
        with pytest.raises(ValueError) as err:
            load_vec(str(path), "xx", hold=hold)
        assert str(err.value) == expected


#: a planted fault, of the same length as the bytes it replaces, and its message
FAULTS = {
    "malformed": (lambda line: line[:-2] + "x\n", "unparseable number in row for 'w{i:03d}'"),
    "short": (lambda line: line.replace(" ", "_", 1),
              "expected 3 components for 'w{i:03d}_{first}', found 2"),
    "bad-utf8": (lambda line: line.replace("w", "\udcff", 1), "byte 0xff is not valid UTF-8"),
    "non-finite": (lambda line: line[:-11] + "1e99999999\n", "non-finite component for 'w{i:03d}'"),
}


@pytest.mark.parametrize("row", [8, 10, 11, 15], ids=["chunk-first", "chunk-middle",
                                                       "chunk-last", "block-last"])
@pytest.mark.parametrize("fault", FAULTS)
def test_a_fault_at_a_chunk_or_block_edge_is_named_as_before_and_leaves_no_file(
        tmp_path, monkeypatch, fault, row):
    lines = fixed_width_rows(24, 3)
    # four lines a chunk, eight rows a block: rows 8 to 15 are the second block,
    # which a worker parses when there is one
    monkeypatch.setattr(embeddings, "_CHUNK_BYTES", 4 * len(lines[0]))
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 8 * 3 * 8)
    plant, message = FAULTS[fault]
    first = lines[row].split()[1]
    lines[row] = plant(lines[row])
    path = tmp_path / "a.vec"
    path.write_bytes(("24 3\n" + "".join(lines)).encode("utf-8", "surrogateescape"))
    expected = f"{path}: line {row + 2}: " + message.format(i=row, first=first)
    out = tmp_path / "out"
    out.mkdir()

    def run():
        messages = []
        with pytest.raises(ValueError) as err:
            load_vec(str(path), "xx")
        messages.append(str(err.value))
        with pytest.raises(ValueError) as err:
            save_vec(normalize(load_vec(str(path), "xx", hold=set())), str(out / "o.vec"))
        messages.append(str(err.value))
        assert os.listdir(out) == []  # no segment, no temporary file, no output
        return messages

    # a bad byte is found by the first pass, which reads every word in this process
    messages = inline_and_on_workers(monkeypatch, run, forks=fault != "bad-utf8")
    assert messages == [[expected] * 2] * 2


@pytest.mark.parametrize("n", [2000, 8000])
def test_a_pass_over_a_stream_holds_a_block_and_a_chunk_not_the_space(tmp_path, monkeypatch, n):
    monkeypatch.setenv("DEBIAS_EMBED_THREADS", "1")
    path = str(tmp_path / "a.vec")
    save_vec(random_space(1, n, 300), path)
    stream = load_vec(path, "xx", hold=set())
    tracemalloc.start()
    try:
        for block in stream_blocks(stream):
            del block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block being parsed and the temporaries of one chunk of its text
    # (1.34 MiB, against 1.17 MiB for a parse a line at a time): the same bound
    # at both sizes
    assert peak < BLOCK_BYTES + (1 << 19)
