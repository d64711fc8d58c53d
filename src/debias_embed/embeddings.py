"""Reading, writing, and normalizing word-embedding files.

The on-disk format is the plain text ``.vec`` layout used by fasttext:
a header line ``<count> <dim>`` followed by one line per word holding the
word and then ``dim`` decimal numbers, UTF-8 encoded with ``\\n`` line
endings. The word ends at the first ASCII whitespace character, as in
fasttext's own tokenizer, so any other character (U+00A0, U+3000, ...)
may appear in a word; the numbers are whitespace separated. A word that
is empty or holds ASCII whitespace cannot be written.

Parsing and formatting the text take most of a run's time, so
:func:`save_vec` splits the rows into blocks of about ``BLOCK_BYTES`` and
the blocks into one consecutive share for each CPU this process may use,
capped by ``DEBIAS_EMBED_THREADS`` and by the number of full blocks; the
blocks of a :class:`SpaceStream`, such as those :func:`load_vec` parses,
are computed there too. A row does not depend on the split, so the result
does not depend on the number of CPUs.

Each value is written as ``%.{p}g`` writes it. Up to 9 digits, a numpy
kernel formats the rows a chunk of about 4096 values at a time, from
lookup tables, for 0 and every value with an exponent from -99 to 0 (all
of a normalized space's); a row holding any other value, or a value too
close to a rounding half for the kernel to certify its digits, is
formatted by ``%``, as every row is above 9 digits. Either way the bytes
are the same.

Each value is read as ``float()`` reads it. A block is read about 64 KiB
of lines at a time. A numpy kernel parses a chunk whose lines are each a
word and its numbers, one space before each and maybe one before the LF,
and whose numbers are each ``[-]d.f[e(+|-)dd]``, an integer of at most
2**53 times a power of ten from -22 to 22: the usual fastText rows, ``%.8f``
text and this module's output up to 15 digits. Any other chunk is read a
line at a time, with the same values, line numbers and messages.
"""

from __future__ import annotations

import hashlib
import io
import logging
import os
import pickle
import re
import shutil
import signal
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import islice
from string import whitespace

import numpy as np

from . import thread_cap

log = logging.getLogger(__name__)

__all__ = [
    "EmbeddingSpace",
    "SpaceStream",
    "decode_line",
    "entry_forms",
    "entry_prefix",
    "load_vec",
    "save_vec",
    "split_words",
    "staged",
    "normalize",
    "row_blocks",
    "row_norms",
    "space_fingerprint",
]

#: a "normalized" space guarantees unit row norms within this tolerance
UNIT_TOL = 1e-9

#: whole-matrix checks, row norms and streamed reads run over blocks of rows
#: of about this many bytes, so their memory stays bounded whatever the
#: vocabulary size
BLOCK_BYTES = 1 << 20

#: the word of a ``.vec`` line, which ends at the first ASCII whitespace
_WORD = re.compile(f"[{re.escape(whitespace)}]*([^{re.escape(whitespace)}]*)")
_WORDS = re.compile(f"[^{re.escape(whitespace)}]+")


def split_words(text: str) -> list[str]:
    """The words of ``text``, split at ASCII whitespace only, as a ``.vec``
    line's word ends: a word may hold U+00A0, U+3000 or any other character."""
    return _WORDS.findall(text)


def _first_duplicate(words):
    seen = set()
    for w in words:
        if w in seen:
            return w
        seen.add(w)
    return None


@dataclass(frozen=True)
class EmbeddingSpace:
    """An ordered vocabulary plus one dense float64 row vector per word.

    The matrix is marked read-only at construction, so instances can be
    shared across threads. A writeable input array is copied, so the space
    never aliases memory its caller can still change; a read-only C-ordered
    float64 array is used as is. ``normalized`` certifies that every row has
    Euclidean norm 1 within ``UNIT_TOL`` (and hence that no row is zero).
    ``index`` maps each word to its row; building it is the duplicate check.
    """

    language_tag: str
    vocab: tuple[str, ...]
    matrix: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        vocab = tuple(self.vocab)
        arr = np.asarray(self.matrix)
        if arr.dtype != np.float64 or not arr.flags["C_CONTIGUOUS"] or arr.flags.writeable:
            arr = np.array(arr, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {arr.shape}")
        n, d = arr.shape
        if d < 1:
            raise ValueError("embedding dimension must be at least 1")
        if len(vocab) != n:
            raise ValueError(f"{len(vocab)} words but {n} matrix rows")
        index = dict(zip(vocab, range(n)))  # the map locate uses, built once
        if len(index) != n:
            raise ValueError(f"duplicate word in vocabulary: {_first_duplicate(vocab)!r}")
        for rows in row_blocks(arr):
            finite = np.isfinite(arr[rows])
            if not finite.all():
                i, j = np.argwhere(~finite)[0]
                word = vocab[rows.start + i]
                raise ValueError(f"non-finite value for word {word!r} (component {j})")
        if self.normalized and n:
            norms = row_norms(arr)
            worst = int(np.argmax(np.abs(norms - 1.0)))
            if abs(norms[worst] - 1.0) > UNIT_TOL:
                raise ValueError(
                    f"space marked normalized but {vocab[worst]!r} has norm {norms[worst]!r}"
                )
        arr.setflags(write=False)
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "index", index)

    def __len__(self):
        return len(self.vocab)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def locate(self, word: str, language: str | None = None) -> int | None:
        """Row index of ``word``, or None if absent.

        With ``language`` given, the word's entry in merged multilingual
        vocabularies, its :func:`entry_prefix` before it, is tried first; the
        bare form is accepted only when this space is tagged with that language.
        """
        rows, _ = self.locate_all((word,), language)
        return rows[0] if rows else None

    def locate_all(self, words, language: str | None = None) -> tuple[list[int], list[str]]:
        """``(rows, missing)``: the row of each of ``words`` that :meth:`locate`
        finds, and each word it does not, both in word order, repeats kept."""
        get = self.index.get
        prefix = "" if language is None else entry_prefix(language)
        bare = language is None or self.language_tag == language
        rows, missing = [], []
        for word in words:
            row = get(prefix + word) if prefix else None
            if row is None and bare:
                row = get(word)
            if row is None:
                missing.append(word)
            else:
                rows.append(row)
        return rows, missing

    def holds(self, language: str) -> bool:
        """Whether :meth:`locate` may find words of ``language`` here: the space
        is tagged so, or holds an entry with that language's prefix."""
        prefix = entry_prefix(language)
        return self.language_tag == language or bool(prefix) and any(
            w.startswith(prefix) for w in self.vocab)


def entry_prefix(language_tag: str) -> str:
    """What :func:`~.align.merge_spaces` puts before each word of a space
    tagged ``language_tag``, and so before a word of that language looked
    up: "<language_tag>:". A merged tag ("a+b") has none, as the words of
    such a space are entries already.
    """
    return "" if "+" in language_tag else f"{language_tag}:"


def entry_forms(tagged_words) -> set[str]:
    """Every vocabulary entry :meth:`EmbeddingSpace.locate` may find for each
    ``(language, word)``: the word bare and, for a language other than None,
    after its :func:`entry_prefix`. A space holding just these rows
    (``load_vec(..., hold=...)``) answers those lookups as the whole space
    does.
    """
    entries: set[str] = set()
    for language, word in tagged_words:
        entries.add(word)
        if language is not None:
            entries.add(entry_prefix(language) + word)
    return entries


class SpaceStream:
    """A space read a block at a time instead of held, for inputs larger than memory.

    :func:`load_vec` with ``hold`` opens one over a ``.vec`` file;
    :func:`normalize` and :func:`~.debias.run_variant` derive others from
    it. Its rows come as consecutive EmbeddingSpace blocks of about
    ``BLOCK_BYTES``, each computed anew, and on its own, from its byte range
    of the file whenever it is needed. A row does not depend on the split,
    so :func:`save_vec` computes the blocks on every CPU, one consecutive
    share of them per process; :meth:`blocks` yields them in order, computed
    in this process.
    ``held`` is an EmbeddingSpace of the rows of the words :func:`load_vec`
    was told to hold, in file order (empty if the file has none of them),
    kept for lookups such as a subspace fit; a stream derived without one,
    such as the debiased stream of :func:`~.debias.run_variant`, has None.
    The other words are not kept.
    """
    def __init__(self, language_tag: str, count: int, dim: int, block, block_count: int, *,
                 held=None, normalized: bool = False):
        self.language_tag = language_tag
        self.dim = dim
        self.held = held
        self.normalized = normalized
        self._count = count
        #: i -> block i
        self._block = block
        self._block_count = block_count

    def __len__(self):
        return self._count

    def blocks(self):
        """Yield the rows block by block, computed anew in this process."""
        for i in range(self._block_count):
            space = self._block(i)
            yield space
            del space  # not alive while the next block is computed

    def derive(self, step, *, held=None, normalized: bool = False) -> SpaceStream:
        """The stream whose block i is ``step`` of this stream's block i: the
        same words in the same order."""
        parent = self._block
        return SpaceStream(self.language_tag, len(self), self.dim, lambda i: step(parent(i)),
                           self._block_count, held=held, normalized=normalized)

    def chain(self, other: SpaceStream, language_tag: str, step, *,
              normalized: bool = False) -> SpaceStream:
        """The stream of ``step`` of each of this stream's blocks, then of each
        of ``other``'s, tagged ``language_tag`` and holding no rows."""
        first = self._block_count

        def block(i):
            return step(self._block(i) if i < first else other._block(i - first))

        return SpaceStream(language_tag, len(self) + len(other), self.dim, block,
                           first + other._block_count, normalized=normalized)


def _processes(rows: int, dim: int) -> int:
    """How many processes share the text of ``rows`` rows of ``dim`` values:
    one per CPU this process may use, capped by ``DEBIAS_EMBED_THREADS`` and
    by the number of full blocks, as a worker with less than a block to do
    does not pay for its fork; 1 without fork."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, thread_cap() or cpus, rows // _block_rows(dim)))


def _fork(share, k: int, segment: str):
    """Fork a worker that writes ``share(k, fh)`` onto a new file ``segment``
    and sends one reply, pickled, through a pipe: ``(True, what share
    returned)``, or ``(False, its exception)``. Returns the worker's pid and
    the pipe, open for reading.

    Workers are forked, not spawned: they start at once, without importing
    numpy again, and share the state of ``share``, such as the space being
    written and the block layout of the file it is read from, without
    pickling it. Only the calling thread is copied; the workers run no BLAS,
    whose own threads OpenBLAS stops and restarts around a fork. A worker
    exits without cleaning up the state it shares with this process.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    try:  # a reply not sent is seen as the pipe's end
        os.close(r)
        try:
            with open(segment, "wb") as fh:
                reply = True, share(k, fh)
        except Exception as exc:  # sent, to be raised in its turn
            reply = False, exc
        with open(w, "wb") as out:
            out.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))  # all or nothing is sent
    finally:
        os._exit(0)


def _block_rows(dim: int) -> int:
    """How many float64 rows of ``dim`` components make a block of about ``BLOCK_BYTES``."""
    return max(1, BLOCK_BYTES // (8 * max(dim, 1)))


def row_blocks(matrix):
    """Slices covering the rows of a 2-D array about ``BLOCK_BYTES`` at a time."""
    step = _block_rows(matrix.shape[1])
    return (slice(start, start + step) for start in range(0, len(matrix), step))


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array.

    Bitwise equal to ``np.linalg.norm(matrix, axis=1)``, which reduces each
    row on its own, but squares one bounded block of rows at a time instead
    of the whole matrix.
    """
    norms = np.empty(len(matrix))
    for rows in row_blocks(matrix):
        norms[rows] = np.linalg.norm(matrix[rows], axis=1)
    return norms


def decode_line(line: bytes, name, lineno: int) -> str:
    """A line of a text file read in binary mode, decoded as strict UTF-8.

    An undecodable byte raises ValueError naming the file ``name`` and the
    line number, as ``<name>: line <lineno>: byte 0xff is not valid UTF-8``.
    """
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{name}: line {lineno}: byte 0x{line[exc.start]:02x} is not valid UTF-8"
        ) from None


def _vec_rows(fh, name, dim, keep, first=2):
    """``(lineno, word, row)`` for each line of ``fh`` that is not blank; the
    row, of ``dim`` float64 values, is parsed only for a word in ``keep``
    (every word if None) and is None otherwise."""
    for lineno, raw in enumerate(fh, first):
        raw = decode_line(raw, name, lineno)
        head = _WORD.match(raw)
        word = head[1]
        if not word:
            continue  # tolerate blank (usually trailing) lines
        if keep is not None and word not in keep:
            yield lineno, word, None
            continue
        tokens = raw[head.end():].split()
        if len(tokens) != dim:
            raise ValueError(
                f"{name}: line {lineno}: expected {dim} components for"
                f" {word!r}, found {len(tokens)}"
            )
        try:
            row = np.array(tokens, dtype=np.float64)
        except ValueError:
            raise ValueError(
                f"{name}: line {lineno}: unparseable number in row for {word!r}"
            ) from None
        if not np.isfinite(row).all():
            raise ValueError(f"{name}: line {lineno}: non-finite component for {word!r}")
        yield lineno, word, row


def _scan_vec(path, language_tag: str, keep):
    """First of two passes over a ``.vec`` file, for :func:`load_vec`.

    Every line is decoded and checked for duplicates and the row count, but
    only the rows of the words in ``keep`` are parsed. Returns the row count;
    the dim; the blocks of about ``BLOCK_BYTES`` of rows, as
    ``(offset, end, lineno, start, stop)``: the byte range and first line
    number :func:`_read_rows` parses rows ``start:stop`` from, the last
    block's range ending where the file did; and an (unnormalized) space of
    the kept words' rows.
    """
    with open(path, "rb") as fh:
        header = decode_line(fh.readline(), path, 1)
        if not header.strip():
            raise ValueError(f"{path}: line 1: expected '<count> <dim>' header")
        fields = header.split()
        try:
            if len(fields) != 2:
                raise ValueError
            count, dim = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"{path}: line 1: malformed header {header.strip()!r}") from None
        if count < 1 or dim < 1:
            raise ValueError(f"{path}: line 1: header must declare positive count and dim")
        step = _block_rows(dim)
        starts = [(fh.tell(), 2)]
        seen: dict[str, int] = {}
        kept: list[str] = []
        matrix = np.empty((min(count, len(keep)), dim))
        lineno = 1
        for lineno, word, row in _vec_rows(fh, path, dim, keep):
            if len(seen) >= count:
                raise ValueError(
                    f"{path}: line {lineno}: more rows than the declared count {count}"
                )
            if word in seen:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate word {word!r}"
                    f" (first seen at line {seen[word]})"
                )
            seen[word] = lineno
            if row is not None:
                matrix[len(kept)] = row
                kept.append(word)
            if len(seen) % step == 0:  # the next block starts after this row's line
                starts.append((fh.tell(), lineno + 1))

        if len(seen) != count:
            raise ValueError(
                f"{path}: line {lineno}: header declared {count} rows, found {len(seen)}"
            )
        ends = [offset for offset, _ in starts[1:]] + [fh.tell()]
    blocks = [(offset, end, line, start, min(start + step, count))
              for (offset, line), end, start in zip(starts, ends, range(0, count, step))]
    matrix = matrix[: len(kept)]
    matrix.setflags(write=False)  # fresh and unshared, so the space need not copy it
    return count, dim, blocks, EmbeddingSpace(language_tag, tuple(kept), matrix)


#: :func:`_read_rows` reads a block about this many bytes at a time
_CHUNK_BYTES = 1 << 16

#: 10**k for k = 0 ... 108, each correctly rounded (``10.0 ** k`` is not, at k = 106)
_POW10 = np.array([float(f"1e{k}") for k in range(109)])

#: bytes before a chunk of :func:`_line_chunks`, so that every 16-byte window
#: ending in a number starts inside the buffer; 2 more after it cover the
#: bytes :func:`_kernel_parse` may read past a malformed number's end
_PAD = 16
_MARGIN = b"0" * _PAD
#: by the count f of fraction digits, the masks of the high and the low
#: little-endian word of the 16 bytes that end where the fraction does,
#: keeping its last f bytes
_HIGH_MASKS, _LOW_MASKS = (np.array([-1 << max(0, bits - 8 * f) if bits - 8 * f < 64 else 0
                                     for f in range(17)]) for bits in (128, 64))
#: the (multiplier, shift, mask) of each step of :func:`_kernel_parse`'s sum of
#: 8 digits in an int64: to 4 sums of 2 digits, 2 of 4, then 1 of 8. A shift
#: brings in copies of the sign bit, which the masks clear; the last sum is
#: below 2**31, so its sign bit is 0
_SUM_STEPS = ((10 << 8 | 1, 8, 0x00FF00FF00FF00FF), (100 << 16 | 1, 16, 0x0000FFFF0000FFFF),
              (10_000 << 32 | 1, 32, None))
_INT_POW10 = 10 ** np.arange(17)
#: 10**k for k = 0 ... 22, exact in float64, then their negations, for a minus sign
_DIVISORS = np.concatenate([_POW10[:23], -_POW10[:23]])


def _kernel_parse(buf: bytes, dim: int):
    """The words and the ``(rows, dim)`` float64 rows of a chunk of whole
    ``.vec`` lines from :func:`_line_chunks`, between its margins, or None
    when the kernel cannot vouch for every value.

    Its domain: every line is ``word SP num (SP num)*(dim - 1) [SP] LF``, its
    word valid UTF-8, and no other byte of the chunk below 0x21; every number
    is ``[-]d.f[e(+|-)dd]`` with 1 to 16 fraction digits, so that it is an
    integer ``M <= 2**53`` of the digits times ``10**k``, ``|k| <= 22``. Both
    are exact doubles, so ``M / 10**-k`` or ``M * 10**k``, with the sign put
    on after, is one correctly rounded operation: the value ``float()`` gives
    (Clinger 1990, "How to Read Floating Point Numbers Accurately").

    The separators come from one ``flatnonzero``; the fraction digits of each
    number from the 16 bytes ending where it does, masked to its digits and
    summed 8 at a time in an int64 with three multiplies.
    """
    b = np.frombuffer(buf, np.uint8)
    ws = np.flatnonzero(b <= 32)
    if len(ws) <= dim or ws[-1] != len(buf) - 3:
        return None
    sep = b[ws]
    width = dim + 1 + (sep[dim] != 10)  # with a space before each LF, or not
    rows = len(ws) // width
    line = np.full(width, 32, np.uint8)
    line[-1] = 10
    if rows * width != len(ws) or not (sep.reshape(rows, width) == line).all():
        return None
    ws = ws.reshape(rows, width)
    if width > dim + 1 and not (ws[:, -1] - ws[:, -2] == 1).all():
        return None
    ends = ws[:, 0]
    starts = np.concatenate(([_PAD], ws[:-1, -1] + 1))
    if not (ends > starts).all():
        return None
    try:
        words = [buf[a:e].decode("utf-8") for a, e in zip(starts.tolist(), ends.tolist())]
    except UnicodeDecodeError:
        return None
    lead = (ws[:, :dim] + 1).ravel()  # where each number starts
    end = ws[:, 1:dim + 1].ravel()  # where each number ends, then its fraction
    del ws, sep, ends, starts
    neg = b[lead] == 45
    lead += neg  # now the digit before the point
    expo = b[end - 4] == 101
    if expo.any():
        at = np.flatnonzero(expo)
        tail = end[at]
        sign, tens, ones = b[tail - 3], b[tail - 2] ^ np.uint8(48), b[tail - 1] ^ np.uint8(48)
        if not (((sign == 43) | (sign == 45)) & (tens <= 9) & (ones <= 9)).all():
            return None
        end[at] = tail - 4
        exponent = (tens * np.uint8(10) + ones).astype(np.intp)
        exponent[sign == 45] *= -1
    digits = end - lead
    digits -= 2
    d0 = b[lead] ^ np.uint8(48)
    lead += 1
    if not ((d0 <= 9) & (b[lead] == 46) & (digits >= 1) & (digits <= 16)).all():
        return None
    del lead
    end -= 16
    windows = np.ndarray((len(buf) - 15,), np.complex128, buf, 0, (1,))  # 16 bytes from each
    v = windows[end].view(np.int64)  # per number, its 16 bytes as two little-endian words
    del end
    v ^= 0x3030303030303030  # each ASCII digit to its value
    v = v.reshape(-1, 2)
    v[:, 0] &= _HIGH_MASKS[digits]
    v[:, 1] &= _LOW_MASKS[digits]
    if (v.view(np.uint8) > 9).any():  # a byte that was not a digit
        return None
    for mul, shift, mask in _SUM_STEPS:
        v *= mul
        v >>= shift
        if mask is not None:
            v &= mask
    m = v[:, 0] * 10**8
    m += v[:, 1]
    del v
    lead = _INT_POW10[digits]
    lead *= d0
    m += lead
    del lead
    if (m > 2**53).any():
        return None
    k = digits  # now -k: the power of ten to divide by
    up = ()  # the numbers with a positive power: divided by 1, then multiplied
    if expo.any():
        k[at] -= exponent
        if (np.abs(k[at]) > 22).any():
            return None
        up = at[k[at] < 0]
        scale = _POW10[-k[up]]
        k[up] = 0
    k += 23 * neg
    values = m.astype(np.float64)
    values /= _DIVISORS[k]
    if len(up):
        values[up] *= scale
    return words, values.reshape(rows, dim)


def _line_chunks(fh, size: int):
    """The next ``size`` bytes of ``fh`` in chunks of about ``_CHUNK_BYTES``,
    each cut after a LF but the last, which ends where the bytes do. Each
    comes between the margins :func:`_kernel_parse` reads: ``_PAD`` bytes
    before it and 2 after, all ``0``."""
    rest = b""
    while size > 0:
        data = fh.read(min(_CHUNK_BYTES, size))
        if not data:
            break
        size -= len(data)
        cut = data.rfind(b"\n") + 1 if size > 0 else len(data)
        if not cut:  # no line ends in it
            rest += data
            continue
        chunk = b"".join((_MARGIN, rest, memoryview(data)[:cut], b"00"))
        rest = data[cut:]
        del data  # not alive while the chunk is parsed
        yield chunk
    if rest:
        yield b"".join((_MARGIN, rest, b"00"))


def _read_rows(path, dim: int, block, out) -> list[str]:
    """Parse one block of :func:`_scan_vec` into the rows of ``out``; return its words.

    The block is read a chunk of lines at a time. :func:`_kernel_parse`
    parses a chunk in its domain, and :func:`_vec_rows` any other chunk,
    from its first line, so values, line numbers and messages are those of
    a read of the whole file. Blank lines are skipped as there; a file that
    shrank since the scan gives fewer rows. Duplicates and the row count
    are the scan's to check.
    """
    offset, end, lineno, start, stop = block
    words: list[str] = []
    with open(path, "rb") as fh:
        fh.seek(offset)
        for chunk in _line_chunks(fh, end - offset):
            left = stop - start - len(words)
            parsed = _kernel_parse(chunk, dim)
            if parsed is None:
                lines = io.BytesIO(chunk[_PAD:-2])
                for _, word, row in islice(_vec_rows(lines, fh.name, dim, None, lineno), left):
                    out[len(words)] = row
                    words.append(word)
                lineno += chunk.count(b"\n")
            else:  # a line for each row
                names, rows = parsed
                out[len(words):len(words) + len(names[:left])] = rows[:left]
                words += names[:left]
                lineno += len(names)
            if len(words) == stop - start:
                break
    return words


def load_vec(path, language_tag: str, hold=None) -> EmbeddingSpace | SpaceStream:
    """Read a ``.vec`` file into an (unnormalized) EmbeddingSpace, or a
    :class:`SpaceStream` over it with ``hold``.

    The file must be UTF-8; blank lines are skipped. A bad header, a row
    with the wrong number of components, an unparseable or non-finite value,
    an undecodable byte, a duplicate word and a row count that disagrees
    with the header raise ValueError with the line number. A first pass
    checks every line's word, so the last three come before any format
    error of a row.
    The rows are then parsed a block at a time and gathered.

    Each value is the one ``float()`` gives for its text. A block is read in
    chunks of about ``_CHUNK_BYTES`` that end at a line end, and a chunk
    goes through the numpy kernel :func:`_kernel_parse` when every line is
    ``word SP num (SP num)*(dim - 1) [SP] LF`` with no other byte below
    0x21 and every number is ``[-]d.f[e(+|-)dd]`` with 1 to 16 fraction
    digits, an integer of its digits of at most 2**53 and a power of ten
    from -22 to 22. That covers values written with ``%.8f`` and this
    module's output up to 15 digits, ``1.23456789e-05`` forms included. Any
    other chunk, such as one with a tab, a CR, a blank line, ``0``, ``+0.5``
    or 17 digits, is read by the per-line reader from its first line, so
    values, line numbers and messages do not depend on the path.

    With ``hold``, a set of words, the rows are streamed instead of held: a
    :class:`SpaceStream` is returned that holds only those words' rows and
    reads the file again on each pass over its blocks. Every line is
    decoded and checked for duplicates and the row count at once, but the
    other rows' format errors surface when a pass reaches them. The CLI's
    ``report`` uses ``held`` alone and makes no pass, so it parses only the
    rows it looks up.
    """
    count, dim, blocks, held = _scan_vec(path, language_tag, set() if hold is None else hold)

    def block(i):
        rows = np.empty((blocks[i][4] - blocks[i][3], dim))
        words = _read_rows(path, dim, blocks[i], rows)
        rows = rows[: len(words)]
        rows.setflags(write=False)
        return EmbeddingSpace(language_tag, tuple(words), rows)

    stream = SpaceStream(language_tag, count, dim, block, len(blocks), held=held)
    if hold is not None:
        return stream
    matrix, vocab = np.empty((count, dim)), []
    for part in stream.blocks():
        matrix[len(vocab):len(vocab) + len(part)] = part.matrix
        vocab += part.vocab
    if len(vocab) != count:
        raise ValueError(f"{path}: {len(vocab)} rows read, but the header declares {count}")
    matrix.setflags(write=False)
    return EmbeddingSpace(language_tag, tuple(vocab), matrix)


#: the most significant digits :func:`_kernel_rows` writes; above, every row goes through ``%``
_KERNEL_DIGITS = 9

#: :func:`_write_rows` gives :func:`_kernel_rows` the rows of about this many
#: values at once, 13 rows of 300, whatever the size of the space
_CHUNK_VALUES = 1 << 12

#: a bound, relative to ``a * _POW10[k]``, on its distance from the exact
#: ``a * 10**k``: the product's rounding where the power is exact (k <= 22),
#: and the power's rounding besides
_SLACK = np.where(np.arange(109) <= 22, 2.0**-53, 2.0**-51)


def _slot_words() -> np.ndarray:
    """The little-endian uint32 words :func:`_kernel_rows` builds its slots from.

    Words ``2 i`` and ``2 i + 1`` are the prefix ``i = ((form * 2 + dot) * 2 +
    minus) * 10 + lead``: form 0 is `` -d``, then ``.`` if dot; form f > 0 is
    `` -0.``, f - 1 zeros and ``d``. From ``_GROUP`` come the 4-digit groups
    0000 ... 9999, from ``_GROUP + 10_000`` the same without trailing zeros, and
    from ``_EXP`` ``e-XX`` for XX = 0 ... 99, empty below 5. A byte not
    written, such as a minus sign not there, is NUL.
    """
    form, dot, minus, lead = np.unravel_index(np.arange(200), (5, 2, 2, 10))
    after = np.arange(4)[:, None]  # the bytes after " -0."
    prefix = np.concatenate([
        [np.full(200, 32), 45 * minus, 48 + lead * (form == 0), 46 * ((form > 0) | (dot == 1))],
        np.select([after < form - 1, after == form - 1], [48, 48 + lead], 0),
    ]).T
    # in uint16 and uint8: built in int64, the tables raise the peak memory of a run
    n = np.arange(10_000, dtype=np.uint16)[:, None]
    digits = (48 + n // np.array((1000, 100, 10, 1), np.uint16) % 10).astype(np.uint8)
    # a digit is kept when it or one after it is not 0
    kept = np.logical_or.accumulate(digits[:, ::-1] != 48, axis=1)[:, ::-1]
    xx = np.arange(100)
    exp = np.stack([np.full(100, 101), np.full(100, 45), 48 + xx // 10, 48 + xx % 10], axis=1)
    exp[xx < 5] = 0
    parts = [prefix.reshape(-1, 4), digits, digits * kept, exp]
    return np.frombuffer(np.concatenate([part.astype(np.uint8) for part in parts]).tobytes(), "<u4")


_SLOT_WORDS = _slot_words()
_GROUP = 2 * 200  # after the two words of each of the 200 prefixes
_EXP = _GROUP + 20_000


def _kernel_rows(rows: np.ndarray, precision: int):
    """The text of each row of ``rows`` but its word, as ``%.{precision}g`` of
    each value after a space writes it, and whether the row may be used.

    For ``precision`` up to ``_KERNEL_DIGITS``. Each value's exponent comes
    from ``log10``, and its digits from one float64 product with a power of
    ten, rounded by ``rint``; they are used only when the product's error
    cannot move the rounding. A value takes a 16-byte slot gathered from
    :func:`_slot_words`: a prefix such as `` -0.00d`` and two 4-digit groups,
    or `` -d.``, the groups and ``e-XX``; the NULs padding them are dropped.
    A row may not be used when one of its values is
    neither 0 nor written with an exponent from -99 to 0 (1e-99 <= |x| < 10,
    less roundings up to 10), or rounds too close to a half to certify.
    """
    p = precision
    x = rows.ravel()
    a = np.abs(x)
    e = np.floor(np.log10(a, out=np.zeros_like(a), where=a > 0))  # 0 for 0
    np.clip(e, -100, 0, out=e)  # a value beyond is refused below
    k = (p - 1 - e).astype(np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = a * _POW10[k]
        d = np.rint(scaled)
        ok = np.abs(scaled - d) < 0.5 - _SLACK[k] * scaled
    top = 10.0**p
    carry = d == top  # 10**p is 10**(p - 1) at the next exponent
    e += carry
    ok &= (d <= top) & ((d >= top / 10) | (a == 0)) & (e >= -99) & (e <= 0)
    d[carry] = top / 10
    d = np.where(ok, d, 0).astype(np.int64)
    xx = (-e * ok).astype(np.intp)
    lead, rest = np.divmod(d, 10 ** (p - 1))
    high, low = np.divmod(rest * 10 ** (9 - p), 10_000)  # the other digits, 0-padded to 8
    form = np.where(xx <= 4, xx, 0)  # exponents -1 ... -4 write "0." and zeros
    prefix = 2 * (((form * 2 + (rest != 0)) * 2 + np.signbit(x)) * 10 + lead)
    high += _GROUP + 10_000 * (low == 0)
    low += _GROUP + 10_000
    fixed = form > 0  # " -0.00d", then both groups; else " -d.", the groups, e-XX
    slots = np.stack((prefix, np.where(fixed, prefix + 1, high), np.where(fixed, high, low),
                      np.where(fixed, low, _EXP + xx)), axis=1)
    text = _SLOT_WORDS[slots].reshape(len(rows), -1)
    return [row.tobytes().translate(None, b"\0") for row in text], ok.reshape(rows.shape).all(1)


def _format_row(line: str, word: str, row) -> bytes:
    """A row's text by ``%``, where ``line`` holds ``%s`` and then ``%.{p}g`` for each value."""
    return (line % (word, *row.tolist())).encode("utf-8")


def _write_rows(words, matrix, fh, precision: int) -> None:
    """Format the rows of ``matrix`` onto the open binary file ``fh``: each
    row's word, then ``%.{precision}g`` of each value after a space.

    The rows go about ``_CHUNK_VALUES`` values at a time. Up to
    ``_KERNEL_DIGITS`` digits, :func:`_kernel_rows` formats a chunk, and a
    row it cannot, like every row above, is given to :func:`_format_row`.
    Each row's text is written on its own, never joined with the rest of
    its chunk.
    """
    line = "%s" + f" %.{precision}g" * matrix.shape[1] + "\n"
    step = max(1, _CHUNK_VALUES // matrix.shape[1])
    words = iter(words)
    for start in range(0, len(matrix), step):
        rows = matrix[start:start + step]
        names = list(islice(words, len(rows)))
        for word in names:
            if not word or _WORD.match(word)[1] != word:  # the reader would not get it back
                raise ValueError(f"cannot write word {word!r}: empty or holds ASCII whitespace")
        bodies, usable = (_kernel_rows(rows, precision) if precision <= _KERNEL_DIGITS
                          else (rows, np.zeros(len(rows), dtype=bool)))
        for word, row, body, ok in zip(names, rows, bodies, usable):
            fh.write(word.encode("utf-8") + body + b"\n" if ok else _format_row(line, word, row))


def _append(fh, segment: str) -> None:
    """Move the bytes of the file ``segment`` onto the end of the open binary file ``fh``."""
    fh.flush()
    with open(segment, "rb", buffering=0) as src:
        # a file buffer at a time: appending holds no more than formatting does
        shutil.copyfileobj(src, fh, io.DEFAULT_BUFFER_SIZE)
    os.unlink(segment)


@contextmanager
def staged(*paths):
    """Temporary names beside ``paths`` for a body to write, each renamed onto
    its path once the body completes and removed if it raises: no file
    appears before all are written, and a failure leaves every path as it
    was. A path that exists but is not a regular file (``/dev/null``, a
    directory), or two paths of one file, raise ValueError at once.
    """
    targets = [os.path.realpath(path) for path in paths]
    for path, target in zip(paths, targets):
        if os.path.exists(target) and not os.path.isfile(target):
            raise ValueError(f"{path}: exists and is not a regular file")
    if len(set(targets)) < len(targets):
        raise ValueError(f"{' and '.join(map(str, paths))} name the same file")
    tmps = [f"{target}.{os.getpid()}.tmp" for target in targets]
    try:
        yield tmps
        for tmp, target in zip(tmps, targets):
            os.replace(tmp, target)
    except BaseException:
        for tmp in tmps:
            with suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def save_vec(space: EmbeddingSpace | SpaceStream, path, precision: int = 9) -> None:
    """Write a ``.vec`` file with ``precision`` significant digits.

    At precision 17 the float64 round trip through :func:`load_vec` is
    exact; at precision p the absolute coordinate error stays below
    ``10**(-p + 1)`` for the coordinate magnitudes (< 10) that embeddings
    use in practice. The file is written under a temporary name next to
    ``path`` and renamed into place, as :func:`staged` does, so it appears
    complete or not at all; a failure leaves no partial file and an
    existing one as it was. A path that exists but is not a regular file
    (``/dev/null``, a directory) raises ValueError before anything is
    written.

    The blocks are split into one consecutive share per process, as
    :func:`_processes` counts them. This process writes the first share,
    the smallest, straight into the output while each forked worker writes
    its own share to a file beside it; then it appends those files in
    order. A :class:`SpaceStream`'s blocks are computed by the process that
    formats them. The first error in file order is raised, and no worker
    outlives the call.

    Each value is written as ``%.{precision}g`` writes it. Up to 9 digits,
    :func:`_kernel_rows` formats the rows a chunk at a time: 0, -0 and every
    value whose exponent is from -99 to 0 (1e-99 <= |x| < 10, which covers
    a normalized space). A row holding another value, or one the kernel
    cannot certify, as it rounds too close to a half, is formatted by ``%``,
    one row at a time, as every row is from 10 digits on.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1 significant digit")
    if isinstance(space, SpaceStream):
        blocks = space._block_count

        def rows(i):
            block = space._block(i)
            return block.vocab, block.matrix
    else:
        spans = list(row_blocks(space.matrix))
        blocks = len(spans)

        def rows(i):  # the words are not copied
            words = map(space.vocab.__getitem__, range(len(space))[spans[i]])
            return words, space.matrix[spans[i]]

    width = _processes(len(space), space.dim)

    def write(i, fh):
        words, matrix = rows(i)
        _write_rows(words, matrix, fh, precision)
        return len(matrix)

    def share(k, fh):
        """Format the k-th of ``width`` consecutive shares of the blocks onto
        ``fh``; return its row count."""
        return sum(write(i, fh) for i in range(k * blocks // width, (k + 1) * blocks // width))

    workers = []  # (pid, the pipe its reply comes through)
    with staged(path) as (tmp,):
        try:
            with open(tmp, "wb") as fh:
                fh.write(f"{len(space)} {space.dim}\n".encode())
                for k in range(1, width):
                    workers.append(_fork(share, k, f"{tmp}.{k}"))
                written = share(0, fh)
                for k, (pid, pipe) in enumerate(workers, 1):
                    try:
                        ok, reply = pickle.load(pipe)
                    except EOFError:
                        raise ChildProcessError(f"text worker {pid} died before sending"
                                                f" block {k * blocks // width}") from None
                    if not ok:
                        raise reply
                    _append(fh, f"{tmp}.{k}")
                    written += reply
                if written != len(space):
                    raise ValueError(
                        f"{path}: {written} rows written, but the header declares {len(space)}"
                    )
        finally:
            for pid, pipe in workers:
                os.kill(pid, signal.SIGKILL)  # one that has replied has nothing left to do
                pipe.close()
                os.waitpid(pid, 0)
            for k in range(1, width):
                with suppress(FileNotFoundError):
                    os.unlink(f"{tmp}.{k}")


def normalize(space: EmbeddingSpace | SpaceStream) -> EmbeddingSpace | SpaceStream:
    """Scale every row to unit Euclidean norm.

    Idempotent: a space already flagged normalized is returned as is.
    A zero row cannot be normalized and raises ValueError naming the word;
    a :class:`SpaceStream` is normalized block by block as it is read, so
    there the error comes from the pass that reaches the row.
    """
    if space.normalized:
        return space
    if isinstance(space, SpaceStream):
        held = None if space.held is None else normalize(space.held)
        return space.derive(normalize, held=held, normalized=True)
    norms = row_norms(space.matrix)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        names = ", ".join(repr(space.vocab[i]) for i in zero[:8])
        raise ValueError(f"cannot normalize zero vector(s): {names}")
    matrix = space.matrix / norms[:, None]
    matrix.setflags(write=False)
    return EmbeddingSpace(space.language_tag, space.vocab, matrix, normalized=True)


def space_fingerprint(space: EmbeddingSpace) -> str:
    """Stable sha256 over the language tag, the vocabulary and the raw matrix bytes."""
    h = hashlib.sha256()
    h.update(space.language_tag.encode("utf-8"))
    h.update(b"\x00")
    for w in space.vocab:
        h.update(w.encode("utf-8"))
        h.update(b"\x00")
    h.update(str(space.matrix.shape).encode())
    h.update(memoryview(space.matrix))
    return h.hexdigest()
