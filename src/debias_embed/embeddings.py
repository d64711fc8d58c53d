"""Reading, writing, and normalizing word-embedding files.

The on-disk format is the plain text ``.vec`` layout used by fasttext:
a header line ``<count> <dim>`` followed by one line per word holding the
word and then ``dim`` decimal numbers, UTF-8 encoded with ``\\n`` line
endings. The word ends at the first ASCII whitespace character, as in
fasttext's own tokenizer, so any other character (U+00A0, U+3000, ...)
may appear in a word; the numbers are whitespace separated. A word that
is empty or holds ASCII whitespace cannot be written.

Parsing and formatting the text take most of a run's time, so
:func:`load_vec` and :func:`save_vec` split the rows into blocks of about
``BLOCK_BYTES`` and work on as many blocks at once as there are CPUs this
process may use, capped by ``DEBIAS_EMBED_THREADS`` and by the number of
full blocks. A row does not depend on the split, so the result does not
depend on the number of CPUs.
"""

from __future__ import annotations

import hashlib
import logging
import mmap
import os
import pickle
import re
import shutil
import signal
from contextlib import suppress
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
    "iter_vec",
    "load_vec",
    "save_vec",
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

        With ``language`` given, the ``"<language>:"`` prefixed form used
        by merged multilingual vocabularies is tried first; the bare form
        is accepted only when this space is tagged with that language.
        """
        if language is None:
            return self.index.get(word)
        row = self.index.get(f"{language}:{word}")
        if row is None and self.language_tag == language:
            row = self.index.get(word)
        return row


class SpaceStream:
    """A space read a block at a time instead of held, for inputs larger than memory.

    :func:`load_vec` with ``hold`` opens one over a ``.vec`` file;
    :func:`normalize` and :func:`~.debias.run_variant` derive others from
    it. Its rows come as consecutive EmbeddingSpace blocks of about
    ``BLOCK_BYTES``, each computed anew, and on its own, from its byte range
    of the file whenever it is needed. A row does not depend on the split,
    so :func:`save_vec` computes the blocks on every CPU; :meth:`blocks`
    yields them in order, computed in this process. Either pass gives the
    stream's taps, such as the debias notes of :func:`~.debias.run_variant`,
    every block's value in block order. ``held`` is an EmbeddingSpace of the
    rows of the words :func:`load_vec` was told to hold, in file order
    (empty if the file has none of them), kept for lookups such as a
    subspace fit; a stream derived without one, such as the debiased stream
    of :func:`~.debias.run_variant`, has None. The other words are not kept.
    """
    def __init__(self, language_tag: str, count: int, dim: int, block, block_count: int, *,
                 held=None, normalized: bool = False, taps=()):
        self.language_tag = language_tag
        self.dim = dim
        self.held = held
        self.normalized = normalized
        self._count = count
        #: i -> (block i, the value of each tap for it)
        self._block = block
        self._block_count = block_count
        #: what makes, for each pass, the objects the tap values go to, in order
        self._taps = taps

    def __len__(self):
        return self._count

    def blocks(self):
        """Yield the rows block by block, computed anew in this process."""
        taps = [make() for make in self._taps]
        for i in range(self._block_count):
            space, values = self._block(i)
            for tap, value in zip(taps, values):
                tap.add(value)
            del values
            yield space
            del space  # not alive while the next block is computed
        for tap in taps:
            tap.finish()

    def derive(self, step, *, held=None, normalized: bool = False, tap=None) -> SpaceStream:
        """The stream whose block i is ``step`` of this stream's block i: the
        same words in the same order.

        With ``tap``, ``step`` returns the derived block and a value, and each
        pass calls ``tap()`` once, in the process that runs the pass: the
        object made gets every block's value, in block order, through ``add``,
        and ``finish()`` after the last.
        """
        parent = self._block

        def block(i):
            space, values = parent(i)
            if tap is None:
                return step(space), values
            space, value = step(space)
            return space, values + (value,)

        return SpaceStream(self.language_tag, len(self), self.dim, block, self._block_count,
                           held=held, normalized=normalized,
                           taps=self._taps + ((tap,) if tap else ()))


def _processes(rows: int, dim: int) -> int:
    """How many processes share the text of ``rows`` rows of ``dim`` values:
    one per CPU this process may use, capped by ``DEBIAS_EMBED_THREADS`` and
    by the number of full blocks, as a worker with less than a block to do
    does not pay for its fork; 1 without fork."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, thread_cap() or cpus, rows // _block_rows(dim)))


def _map_blocks(task, count: int, take, width: int) -> None:
    """Call ``take(task(i))`` for i = 0, 1, ..., count - 1, in that order.

    With ``width`` > 1 and more than one task, this process runs tasks 0,
    width, 2 width, ... itself, and ``width - 1`` forked workers run the
    others and send their results, pickled, through a pipe each; otherwise
    every task runs here. ``take`` always runs here, in order, and this
    process runs a task only once every earlier result has been taken. A
    task's exception is raised at its turn, so the first error raised is
    the one a run in this process alone would raise. Results should be
    small: a worker's share of a large output goes to a file instead.
    Workers are reaped before this returns or raises.

    Workers are forked, not spawned: they start at once, without importing
    numpy again, and share the tasks' state, such as the block layout and an
    output matrix in shared memory, without pickling it. Only the calling
    thread is copied; the workers run no BLAS, whose own threads OpenBLAS
    stops and restarts around a fork.
    """
    width = min(width, count)
    if width <= 1:
        for i in range(count):
            take(task(i))
        return
    workers = []  # (pid, the pipe its results come through)
    finished = False
    try:
        for first in range(1, width):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _serve(task, range(first, count, width), w)
            os.close(w)
            # a small buffer: a large result is read straight into its own memory
            workers.append((pid, open(r, "rb", buffering=1024)))
        for i in range(count):
            # no name holds a result once it is taken
            take(_received(*workers[i % width - 1], i) if i % width else task(i))
        finished = True
    finally:
        for pid, results in workers:
            if not finished:
                os.kill(pid, signal.SIGKILL)
            results.close()
            os.waitpid(pid, 0)


def _received(pid: int, results, i: int):
    """The next result a worker of :func:`_map_blocks` sent, that of task ``i``."""
    try:
        ok, result = pickle.load(results)
    except EOFError:
        raise ChildProcessError(f"text worker {pid} died before sending block {i}") from None
    if not ok:
        raise result
    return result


def _serve(task, indices, fd: int) -> None:
    """A worker of :func:`_map_blocks`: run its tasks and send each outcome
    through ``fd``, up to the first error, then exit without cleaning up
    the state it shares with the process that forked it."""
    code = 1
    try:
        with open(fd, "wb") as out:
            for i in indices:
                try:
                    reply = True, task(i)
                except Exception as exc:  # sent, to be raised at its turn
                    reply = False, exc
                pickle.dump(reply, out, pickle.HIGHEST_PROTOCOL)
                out.flush()
                if not reply[0]:
                    break
        code = 0
    finally:
        os._exit(code)


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


def iter_vec(fh, keep=None):
    """Parse an open ``.vec`` text file into ``(count, dim, rows)``.

    The header is read and checked at once. ``rows`` is a generator of
    ``(lineno, word, row)`` for each line that is not blank, ``row`` being
    a float64 array of ``dim`` components. With ``keep``, a set of words,
    the rows of other words are not parsed and come as ``None``. Malformed
    input raises ValueError with the offending line number: bad header,
    wrong number of components, unparseable or non-finite values (the last
    three only in parsed rows). Duplicate words and the row count are left
    to the caller. Decoding is the caller's choice: a file opened in text
    mode is read with its own decoding, and one opened in binary mode is
    decoded as strict UTF-8 a line at a time, so that an undecodable byte
    is reported with its line number too.
    """
    name = fh.name
    header = decode_line(fh.readline(), name, 1)
    if not header.strip():
        raise ValueError(f"{name}: line 1: expected '<count> <dim>' header")
    fields = header.split()
    try:
        if len(fields) != 2:
            raise ValueError
        count, dim = int(fields[0]), int(fields[1])
    except ValueError:
        raise ValueError(f"{name}: line 1: malformed header {header.strip()!r}") from None
    if count < 1 or dim < 1:
        raise ValueError(f"{name}: line 1: header must declare positive count and dim")
    return count, dim, _vec_rows(fh, name, dim, keep)


def decode_line(line, name, lineno: int) -> str:
    """A line of a text file read in binary mode, decoded as strict UTF-8.

    An undecodable byte raises ValueError naming the file ``name`` and the
    line number, as ``<name>: line <lineno>: byte 0xff is not valid UTF-8``.
    A line that is text already is returned as is.
    """
    if isinstance(line, str):
        return line
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{name}: line {lineno}: byte 0x{line[exc.start]:02x} is not valid UTF-8"
        ) from None


def _vec_rows(fh, name, dim, keep, first=2):
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
    only the rows of the words in ``keep`` are parsed. Returns every word, in
    file order; the dim; the blocks of about ``BLOCK_BYTES`` of rows, as
    ``(offset, lineno, start, stop)``: the byte offset and line number
    :func:`_read_rows` parses rows ``start:stop`` from; and an
    (unnormalized) space of the kept words' rows.
    """
    with open(path, "rb") as fh:
        count, dim, rows = iter_vec(fh, keep)
        step = _block_rows(dim)
        starts = [(fh.tell(), 2)]
        seen: dict[str, int] = {}
        kept: list[str] = []
        matrix = np.empty((min(count, len(keep)), dim))
        lineno = 1
        for lineno, word, row in rows:
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
    vocab = tuple(seen)
    del seen  # so it and the space's word index never hold the words at once
    blocks = [(offset, line, start, min(start + step, count))
              for (offset, line), start in zip(starts, range(0, count, step))]
    matrix = matrix[: len(kept)]
    matrix.setflags(write=False)  # fresh and unshared, so the space need not copy it
    return vocab, dim, blocks, EmbeddingSpace(language_tag, tuple(kept), matrix)


def _read_rows(path, dim: int, block, out) -> list[str]:
    """Parse one block of :func:`_scan_vec` into the rows of ``out``; return its words.

    Line numbers and messages are those of a read of the whole file. Blank
    lines are skipped as there; a file that shrank since the scan gives
    fewer rows. Duplicates and the row count are the scan's to check.
    """
    offset, lineno, start, stop = block
    words: list[str] = []
    with open(path, "rb") as fh:
        fh.seek(offset)
        for _, word, row in islice(_vec_rows(fh, fh.name, dim, None, lineno), stop - start):
            out[len(words)] = row
            words.append(word)
    return words


def load_vec(path, language_tag: str, hold=None) -> EmbeddingSpace | SpaceStream:
    """Read a ``.vec`` file into an (unnormalized) EmbeddingSpace.

    The file must be UTF-8. Besides :func:`iter_vec`'s format errors, an
    undecodable byte, a duplicate word and a row count that disagrees with
    the header raise ValueError with the line number. A first pass checks
    every line's word, so these come before any format error of a row.
    The rows are then parsed a block at a time, on every CPU.

    With ``hold``, a set of words, the rows are streamed instead of held: a
    :class:`SpaceStream` is returned that holds only those words' rows and
    reads the file again on each pass over its blocks. Every line is
    decoded and checked for duplicates and the row count at once, but the
    other rows' format errors surface when a pass reaches them. The CLI's
    ``report`` uses ``held`` alone and makes no pass, so it parses only the
    rows it looks up.
    """
    vocab, dim, blocks, held = _scan_vec(path, language_tag, set() if hold is None else hold)
    if hold is not None:
        def block(i):
            rows = np.empty((blocks[i][3] - blocks[i][2], dim))
            words = _read_rows(path, dim, blocks[i], rows)
            rows = rows[: len(words)]
            rows.setflags(write=False)
            return EmbeddingSpace(language_tag, tuple(words), rows), ()

        return SpaceStream(language_tag, len(vocab), dim, block, len(blocks), held=held)

    # shared with the forked workers, which parse their blocks straight into it
    matrix = np.frombuffer(mmap.mmap(-1, 8 * len(vocab) * dim), dtype=np.float64)
    matrix = matrix.reshape(len(vocab), dim)

    def parse(i):
        start, stop = blocks[i][2:]
        return len(_read_rows(path, dim, blocks[i], matrix[start:stop]))

    parsed = []  # rows per block
    _map_blocks(parse, len(blocks), parsed.append, _processes(len(vocab), dim))
    if sum(parsed) != len(vocab):
        raise ValueError(f"{path}: {sum(parsed)} rows read, but the header declares {len(vocab)}")
    matrix.setflags(write=False)
    return EmbeddingSpace(language_tag, vocab, matrix)


def _write_rows(words, matrix, fh, line: str) -> None:
    """Format the rows of ``matrix`` onto the open text file ``fh``, one ``line`` each."""
    # one row at a time: formatting blocks of rows holds their strings at once
    for word, row in zip(words, matrix):
        if not word or _WORD.match(word)[1] != word:  # the reader would not get it back
            raise ValueError(f"cannot write word {word!r}: empty or holds ASCII whitespace")
        fh.write(line % (word, *row.tolist()))


def _append(fh, segment: str) -> None:
    """Move the bytes of the file ``segment`` onto the end of the open file ``fh``."""
    fh.flush()
    with open(segment, "rb", buffering=0) as src:
        if hasattr(os, "copy_file_range"):  # in the kernel, without reading it in
            left = os.fstat(src.fileno()).st_size
            while left:
                copied = os.copy_file_range(src.fileno(), fh.fileno(), left)
                if not copied:
                    raise OSError(f"{segment}: shorter than when it was written")
                left -= copied
        else:
            shutil.copyfileobj(src, fh.buffer)
    os.unlink(segment)


def save_vec(space: EmbeddingSpace | SpaceStream, path, precision: int = 9) -> None:
    """Write a ``.vec`` file with ``precision`` significant digits.

    At precision 17 the float64 round trip through :func:`load_vec` is
    exact; at precision p the absolute coordinate error stays below
    ``10**(-p + 1)`` for the coordinate magnitudes (< 10) that embeddings
    use in practice. The file is written under a temporary name next to
    ``path`` and renamed into place, so it appears complete or not at all;
    a failure leaves no partial file and an existing one as it was. A path
    that exists but is not a regular file (``/dev/null``, a directory)
    raises ValueError before anything is written.

    The rows are formatted a block at a time, on every CPU: this process
    writes its blocks into the output, and each worker writes its blocks to
    a file of their own beside it, which is appended when its turn comes. A
    :class:`SpaceStream`'s blocks are computed by the process that formats
    them; its taps, such as the debias notes, are fed here, in block order.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1 significant digit")
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise ValueError(f"{path}: exists and is not a regular file")
    line = "%s" + f" %.{precision}g" * space.dim + "\n"
    if isinstance(space, SpaceStream):
        blocks, taps = space._block_count, [make() for make in space._taps]

        def rows(i):
            block, values = space._block(i)
            return block.vocab, block.matrix, values
    else:
        spans, taps = list(row_blocks(space.matrix)), []
        blocks = len(spans)

        def rows(i):  # the words are not copied
            words = map(space.vocab.__getitem__, range(len(space))[spans[i]])
            return words, space.matrix[spans[i]], ()

    tmp = f"{target}.{os.getpid()}.tmp"
    owner = os.getpid()
    written = 0

    def task(i):
        words, matrix, values = rows(i)
        if os.getpid() == owner:  # every earlier block is in the output already
            _write_rows(words, matrix, fh, line)
            return len(matrix), values, None
        with open(f"{tmp}.{i}", "w", encoding="utf-8", newline="\n") as segment:
            _write_rows(words, matrix, segment, line)
        return len(matrix), values, segment.name

    def take(result):
        nonlocal written
        count, values, segment = result
        for tap, value in zip(taps, values):
            tap.add(value)
        if segment is not None:
            _append(fh, segment)
        written += count

    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{len(space)} {space.dim}\n")
            _map_blocks(task, blocks, take, _processes(len(space), space.dim))
            for tap in taps:
                tap.finish()
            if written != len(space):
                raise ValueError(
                    f"{path}: {written} rows written, but the header declares {len(space)}"
                )
        os.replace(tmp, target)
    except BaseException:
        for name in [tmp] + [f"{tmp}.{i}" for i in range(blocks)]:
            with suppress(FileNotFoundError):
                os.unlink(name)
        raise


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
