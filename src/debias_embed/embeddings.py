"""Reading, writing, and normalizing word-embedding files.

The on-disk format is the plain text ``.vec`` layout used by fasttext:
a header line ``<count> <dim>`` followed by one line per word holding the
word and then ``dim`` decimal numbers, UTF-8 encoded with ``\\n`` line
endings. The word ends at the first ASCII whitespace character, as in
fasttext's own tokenizer, so any other character (U+00A0, U+3000, ...)
may appear in a word; the numbers are whitespace separated. A word that
is empty or holds ASCII whitespace cannot be written.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from string import whitespace

import numpy as np

log = logging.getLogger(__name__)

__all__ = [
    "EmbeddingSpace",
    "SpaceStream",
    "iter_vec",
    "load_vec",
    "save_vec",
    "normalize",
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
        for rows in _row_blocks(arr):
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
    it. :meth:`blocks` yields every row, as consecutive EmbeddingSpace
    blocks of about ``BLOCK_BYTES``, and computes them anew on each call; a
    row does not depend on how the rows are split. ``held`` is an
    EmbeddingSpace of the rows of some words (None if there are none), kept
    for lookups such as a subspace fit. The words themselves are not kept,
    only the hash :func:`space_fingerprint` starts from.
    """

    def __init__(self, language_tag: str, count: int, dim: int, source, *, held=None,
                 normalized: bool = False, vocab_hash):
        self.language_tag = language_tag
        self.dim = dim
        self.held = held
        self.normalized = normalized
        #: the digest of the last pass that hashed every block, else None
        self.fingerprint = None
        self._count = count
        self._source = source
        self._vocab_hash = vocab_hash

    def __len__(self):
        return self._count

    def blocks(self, fingerprint: bool = False):
        """Yield the rows block by block, computed anew.

        With ``fingerprint``, the blocks are hashed as they pass, and once
        all have, ``self.fingerprint`` holds what :func:`space_fingerprint`
        gives, so it needs no pass of its own.
        """
        if not fingerprint:
            yield from self._source()
            return
        h = self._vocab_hash.copy()
        for block in self._source():
            h.update(memoryview(block.matrix))
            yield block
            del block  # not alive while the next block is computed
        self.fingerprint = h.hexdigest()

    def derive(self, blocks_of, *, held=None, normalized: bool = False,
               fingerprint: bool = False) -> SpaceStream:
        """The stream of ``blocks_of(self.blocks(fingerprint))``: the same words
        in the same order, each block computed from one of this stream's."""
        return SpaceStream(self.language_tag, len(self), self.dim,
                           lambda: blocks_of(self.blocks(fingerprint)), held=held,
                           normalized=normalized, vocab_hash=self._vocab_hash)


def _row_blocks(matrix):
    """Slices covering the rows of ``matrix`` about ``BLOCK_BYTES`` at a time."""
    n, d = matrix.shape
    step = max(1, BLOCK_BYTES // (matrix.itemsize * max(d, 1)))
    return (slice(start, start + step) for start in range(0, n, step))


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array.

    Bitwise equal to ``np.linalg.norm(matrix, axis=1)``, which reduces each
    row on its own, but squares one bounded block of rows at a time instead
    of the whole matrix.
    """
    norms = np.empty(len(matrix))
    for rows in _row_blocks(matrix):
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
    header = _decoded(fh.readline(), name, 1)
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


def _decoded(line, name, lineno):
    if isinstance(line, str):
        return line
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{name}: line {lineno}: byte 0x{line[exc.start]:02x} is not valid UTF-8"
        ) from None


def _vec_rows(fh, name, dim, keep):
    for lineno, raw in enumerate(fh, 2):
        raw = _decoded(raw, name, lineno)
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


def _scan_vec(path, language_tag: str, keep) -> tuple[tuple[str, ...], EmbeddingSpace]:
    """First of two passes over a ``.vec`` file too large to hold.

    Every line is decoded and checked as by :func:`load_vec`, but only the
    rows of the words in ``keep`` (every word when ``keep`` is None) are
    parsed. Returns every word, in file order, and an (unnormalized) space
    of the kept words' rows. :func:`_read_blocks` is the second pass.
    """
    with open(path, "rb") as fh:
        count, dim, rows = iter_vec(fh, keep)
        seen: dict[str, int] = {}
        kept: list[str] = []
        matrix = np.empty((count if keep is None else min(count, len(keep)), dim))
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

        if len(seen) != count:
            raise ValueError(
                f"{path}: line {lineno}: header declared {count} rows, found {len(seen)}"
            )
    vocab = tuple(seen)
    del seen  # so it and the space's word index never hold the words at once
    matrix = matrix[: len(kept)]
    matrix.setflags(write=False)  # fresh and unshared, so the space need not copy it
    return vocab, EmbeddingSpace(language_tag, tuple(kept), matrix, normalized=False)


def load_vec(path, language_tag: str, hold=None) -> EmbeddingSpace | SpaceStream:
    """Read a ``.vec`` file into an (unnormalized) EmbeddingSpace.

    The file must be UTF-8. Besides :func:`iter_vec`'s format errors, an
    undecodable byte, a duplicate word and a row count that disagrees with
    the header raise ValueError with the line number.

    With ``hold``, a set of words, the rows are streamed instead of held: a
    :class:`SpaceStream` is returned that holds only those words' rows and
    reads the file again on each pass over its blocks. Every line is
    decoded and checked for duplicates and the row count at once, but the
    other rows' format errors surface when a pass reaches them.
    """
    vocab, held = _scan_vec(path, language_tag, hold)
    if hold is None:
        return held
    return SpaceStream(language_tag, len(vocab), held.dim,
                       lambda: _read_blocks(path, language_tag), held=held,
                       vocab_hash=_vocab_hash(language_tag, vocab, (len(vocab), held.dim)))


def _read_blocks(path, language_tag: str):
    """Second pass: the rows of a ``.vec`` file as consecutive spaces.

    Yields (unnormalized) EmbeddingSpace blocks of about ``BLOCK_BYTES``
    each, in file order. Format errors are :func:`iter_vec`'s; duplicates
    and the row count are left to the first pass, :func:`_scan_vec`.
    """
    with open(path, "rb") as fh:
        _, dim, rows = iter_vec(fh)
        step = max(1, BLOCK_BYTES // (8 * dim))
        words, block = [], None
        for _, word, row in rows:
            if block is None:
                block = np.empty((step, dim))
            block[len(words)] = row
            words.append(word)
            if len(words) == step:
                ready = [_frozen_block(language_tag, words, block)]
                words, block = [], None
                yield ready.pop()  # no local keeps the raw rows alive while they are used
        if words:
            yield _frozen_block(language_tag, words, block[: len(words)])


def _frozen_block(language_tag, words, block):
    block.setflags(write=False)
    return EmbeddingSpace(language_tag, tuple(words), block)


@contextmanager
def _vec_writer(path, count: int, dim: int, precision: int = 9):
    """Write a ``.vec`` file of ``count`` rows a block at a time.

    Yields ``write(space)``, which appends the rows of a space, so the rows
    never need to be held at once. Values get ``precision`` significant
    digits. The file is written under a temporary name next to ``path`` and
    renamed onto it once every row is written, so a failure leaves no
    partial file and an existing one as it was. A path that exists but is
    not a regular file (``/dev/null``) is written directly.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1 significant digit")
    target = os.path.realpath(path)
    direct = os.path.exists(target) and not os.path.isfile(target)
    tmp = target if direct else f"{target}.{os.getpid()}.tmp"
    line = "%s" + f" %.{precision}g" * dim + "\n"
    written = 0

    def write(space: EmbeddingSpace) -> None:
        nonlocal written
        for word in space.vocab:
            if not word or _WORD.match(word)[1] != word:  # the reader would not get it back
                raise ValueError(f"cannot write word {word!r}: empty or holds ASCII whitespace")
        # one row at a time: formatting blocks of rows holds their strings at once
        for word, row in zip(space.vocab, space.matrix):
            fh.write(line % (word, *row.tolist()))
        written += len(space)

    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{count} {dim}\n")
            yield write
            if written != count:
                raise ValueError(f"{path}: {written} rows written, but the header declares {count}")
        if not direct:
            os.replace(tmp, target)
    except BaseException:
        if not direct and os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_vec(space: EmbeddingSpace | SpaceStream, path, precision: int = 9) -> None:
    """Write a ``.vec`` file with ``precision`` significant digits.

    At precision 17 the float64 round trip through :func:`load_vec` is
    exact; at precision p the absolute coordinate error stays below
    ``10**(-p + 1)`` for the coordinate magnitudes (< 10) that embeddings
    use in practice. The file is written under a temporary name next to
    ``path`` and renamed into place, so it appears complete or not at all.
    A :class:`SpaceStream` is written a block at a time, as its pass
    computes them.
    """
    blocks = space.blocks() if isinstance(space, SpaceStream) else [space]
    with _vec_writer(path, len(space), space.dim, precision) as write:
        for block in blocks:
            write(block)
            del block  # not alive while the next block is computed


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
        return space.derive(lambda blocks: map(normalize, blocks), held=held, normalized=True)
    norms = row_norms(space.matrix)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        names = ", ".join(repr(space.vocab[i]) for i in zero[:8])
        raise ValueError(f"cannot normalize zero vector(s): {names}")
    matrix = space.matrix / norms[:, None]
    matrix.setflags(write=False)
    return EmbeddingSpace(space.language_tag, space.vocab, matrix, normalized=True)


def space_fingerprint(space: EmbeddingSpace | SpaceStream) -> str:
    """Stable sha256 over the vocabulary and raw matrix bytes.

    A :class:`SpaceStream` is read for it, unless a pass that hashes its
    blocks has read them all already.
    """
    if isinstance(space, SpaceStream):
        if space.fingerprint is None:
            for _ in space.blocks(fingerprint=True):
                pass
        return space.fingerprint
    h = _vocab_hash(space.language_tag, space.vocab, space.matrix.shape)
    h.update(memoryview(space.matrix))
    return h.hexdigest()


def _vocab_hash(language_tag: str, vocab, shape):
    """The sha256 state :func:`space_fingerprint` has before the matrix.

    Feeding it the rows' bytes in order, a block at a time, gives the same
    digest as :func:`space_fingerprint` of the whole space, so a
    :class:`SpaceStream` keeps this instead of its words.
    """
    h = hashlib.sha256()
    h.update(language_tag.encode("utf-8"))
    h.update(b"\x00")
    for w in vocab:
        h.update(w.encode("utf-8"))
        h.update(b"\x00")
    h.update(str(tuple(shape)).encode())
    return h
