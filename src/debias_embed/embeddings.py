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
import re
from dataclasses import dataclass
from functools import cached_property
from string import whitespace

import numpy as np

log = logging.getLogger(__name__)

__all__ = [
    "EmbeddingSpace",
    "iter_vec",
    "load_vec",
    "save_vec",
    "normalize",
    "row_norms",
    "space_fingerprint",
]

#: a "normalized" space guarantees unit row norms within this tolerance
UNIT_TOL = 1e-9

#: whole-matrix checks and row norms run over blocks of rows of about this
#: many bytes, so their temporaries stay bounded whatever the vocabulary size
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
        if len(set(vocab)) != len(vocab):
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

    def __len__(self):
        return len(self.vocab)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.vocab)}

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


def iter_vec(fh):
    """Parse an open ``.vec`` text file into ``(count, dim, rows)``.

    The header is read and checked at once. ``rows`` is a generator of
    ``(lineno, word, row)`` for each line that is not blank, ``row`` being
    a float64 array of ``dim`` components. Malformed input raises
    ValueError with the offending line number: bad header, wrong number
    of components, unparseable or non-finite values. Duplicate words and
    the row count are left to the caller. Decoding is the caller's choice:
    a file opened in text mode is read with its own decoding, and one
    opened in binary mode is decoded as strict UTF-8 a line at a time, so
    that an undecodable byte is reported with its line number too.
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
    return count, dim, _vec_rows(fh, name, dim)


def _decoded(line, name, lineno):
    if isinstance(line, str):
        return line
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{name}: line {lineno}: byte 0x{line[exc.start]:02x} is not valid UTF-8"
        ) from None


def _vec_rows(fh, name, dim):
    for lineno, raw in enumerate(fh, 2):
        raw = _decoded(raw, name, lineno)
        head = _WORD.match(raw)
        word = head[1]
        if not word:
            continue  # tolerate blank (usually trailing) lines
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


def load_vec(path, language_tag: str) -> EmbeddingSpace:
    """Read a ``.vec`` file into an (unnormalized) EmbeddingSpace.

    The file must be UTF-8. Besides :func:`iter_vec`'s format errors, an
    undecodable byte, a duplicate word and a row count that disagrees with
    the header raise ValueError with the line number.
    """
    with open(path, "rb") as fh:
        count, dim, rows = iter_vec(fh)
        words: list[str] = []
        seen: dict[str, int] = {}
        matrix = np.empty((count, dim), dtype=np.float64)
        lineno = 1
        for lineno, word, row in rows:
            if len(words) >= count:
                raise ValueError(
                    f"{path}: line {lineno}: more rows than the declared count {count}"
                )
            if word in seen:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate word {word!r}"
                    f" (first seen at line {seen[word]})"
                )
            seen[word] = lineno
            matrix[len(words)] = row
            words.append(word)

        if len(words) != count:
            raise ValueError(
                f"{path}: line {lineno}: header declared {count} rows, found {len(words)}"
            )
    del seen  # so it and the space's own duplicate check never hold the words at once
    matrix.setflags(write=False)  # fresh and unshared, so the space need not copy it
    return EmbeddingSpace(language_tag, tuple(words), matrix, normalized=False)


def save_vec(space: EmbeddingSpace, path, precision: int = 9) -> None:
    """Write a ``.vec`` file with ``precision`` significant digits.

    At precision 17 the float64 round trip through :func:`load_vec` is
    exact; at precision p the absolute coordinate error stays below
    ``10**(-p + 1)`` for the coordinate magnitudes (< 10) that embeddings
    use in practice.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1 significant digit")
    for word in space.vocab:
        if not word or _WORD.match(word)[1] != word:  # the reader would not get it back
            raise ValueError(f"cannot write word {word!r}: empty or holds ASCII whitespace")
    line = "%s" + f" %.{precision}g" * space.dim + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(space)} {space.dim}\n")
        # one row at a time: formatting blocks of rows holds their strings at once
        for word, row in zip(space.vocab, space.matrix):
            fh.write(line % (word, *row.tolist()))


def normalize(space: EmbeddingSpace) -> EmbeddingSpace:
    """Scale every row to unit Euclidean norm.

    Idempotent: a space already flagged normalized is returned as is.
    A zero row cannot be normalized and raises ValueError naming the word.
    """
    if space.normalized:
        return space
    norms = row_norms(space.matrix)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        names = ", ".join(repr(space.vocab[i]) for i in zero[:8])
        raise ValueError(f"cannot normalize zero vector(s): {names}")
    matrix = space.matrix / norms[:, None]
    matrix.setflags(write=False)
    return EmbeddingSpace(space.language_tag, space.vocab, matrix, normalized=True)


def space_fingerprint(space: EmbeddingSpace) -> str:
    """Stable sha256 over the vocabulary and raw matrix bytes."""
    h = hashlib.sha256()
    h.update(space.language_tag.encode("utf-8"))
    h.update(b"\x00")
    for w in space.vocab:
        h.update(w.encode("utf-8"))
        h.update(b"\x00")
    h.update(str(space.matrix.shape).encode())
    h.update(memoryview(space.matrix))
    return h.hexdigest()
