"""Orthogonal cross-lingual alignment of embedding spaces.

Fits the orthogonal matrix W minimizing sum ||W x_i - y_i||^2 over a
bilingual dictionary (the classic Procrustes problem, solved in closed
form from one SVD of the cross-covariance of the paired vectors) and
merges the rotated source space with the target space under
"<language_tag>:" word prefixes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSpace, decode_line

log = logging.getLogger(__name__)

__all__ = [
    "BilingualDictionary",
    "OrthogonalMap",
    "load_dictionary",
    "procrustes_fit",
    "apply_map",
    "merge_spaces",
]

ORTHOGONALITY_TOL = 1e-6


@dataclass(frozen=True)
class BilingualDictionary:
    source_tag: str
    target_tag: str
    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError(
                f"empty dictionary {self.source_tag!r} -> {self.target_tag!r}"
            )
        if len(set(self.entries)) != len(self.entries):
            raise ValueError("duplicate entries in dictionary")

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class OrthogonalMap:
    """A dim x dim orthogonal matrix applied to source vectors as W @ x."""

    matrix: np.ndarray
    source_tag: str
    target_tag: str
    fit_pair_count: int

    def __post_init__(self):
        w = np.array(self.matrix, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"map matrix must be square, got shape {w.shape}")
        gram = w.T @ w
        err = np.linalg.norm(gram - np.eye(w.shape[0]))
        if err > ORTHOGONALITY_TOL:
            raise ValueError(f"map is not orthogonal: ||W'W - I||_F = {err:.3e}")
        w.setflags(write=False)
        object.__setattr__(self, "matrix", w)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def inverse(self) -> "OrthogonalMap":
        """The reverse map (transpose), target language back to source."""
        return OrthogonalMap(
            self.matrix.T.copy(), self.target_tag, self.source_tag, self.fit_pair_count
        )


def load_dictionary(path, source_tag: str, target_tag: str) -> BilingualDictionary:
    """Read "source<TAB>target" (or space separated) word pairs.

    The separator is auto-detected per file from the first data line.
    Duplicate pairs are dropped with a warning; a line that does not split
    into exactly two tokens, or is not UTF-8, raises ValueError with its
    line number.
    """
    entries: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    dropped = 0
    sep: str | None = None
    detected = False
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = decode_line(raw, path, lineno).rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            if not detected:
                sep = "\t" if "\t" in line else None
                detected = True
            fields = line.split(sep)
            fields = [f for f in fields if f != ""]
            if len(fields) != 2:
                raise ValueError(
                    f"{path}: line {lineno}: expected 2 tokens, found {len(fields)}"
                )
            pair = (fields[0], fields[1])
            if pair in seen:
                dropped += 1
                continue
            seen.add(pair)
            entries.append(pair)
    if dropped:
        log.warning("load_dictionary: dropped %d duplicate pair(s) from %s", dropped, path)
    if not entries:
        raise ValueError(f"{path}: dictionary has no entries")
    return BilingualDictionary(source_tag, target_tag, tuple(entries))


def procrustes_fit(
    source: EmbeddingSpace, target: EmbeddingSpace, dictionary: BilingualDictionary
) -> OrthogonalMap:
    """Fit the orthogonal W minimizing sum_i ||W x_i - y_i||^2.

    Dictionary pairs with either side out of vocabulary are dropped and
    counted. The optimum is W = U V' from the SVD U S V' = Y' X of the
    cross-covariance between target and source vectors, orthogonal by
    construction even for rank-deficient pair sets.
    """
    if source.dim != target.dim:
        raise ValueError(
            f"dimension mismatch: source dim {source.dim} vs target dim {target.dim}"
        )
    if not (source.normalized and target.normalized):
        log.warning("procrustes_fit: input spaces are not normalized")
    rows_x, rows_y, oov = [], [], 0
    for sw, tw in dictionary.entries:
        i = source.index.get(sw)
        j = target.index.get(tw)
        if i is None or j is None:
            oov += 1
            continue
        rows_x.append(i)
        rows_y.append(j)
    if oov:
        log.warning(
            "procrustes_fit: dropped %d/%d dictionary pair(s) with out-of-vocabulary words",
            oov,
            len(dictionary),
        )
    if not rows_x:
        raise ValueError("no dictionary pair is resolvable in both spaces")
    if len(rows_x) < source.dim:
        log.warning(
            "procrustes_fit: only %d usable pair(s) for dimension %d; the fit may be loose",
            len(rows_x),
            source.dim,
        )
    x = source.matrix[rows_x]
    y = target.matrix[rows_y]
    u, _, vt = np.linalg.svd(y.T @ x)
    w = u @ vt
    return OrthogonalMap(w, source.language_tag, target.language_tag, len(rows_x))


def apply_map(mapping: OrthogonalMap, space: EmbeddingSpace) -> EmbeddingSpace:
    """Rotate every row x of the space to W @ x.

    A rotation preserves norms only up to rounding, so the result is not
    marked normalized even when the input is: normalize it again for unit
    rows.
    """
    if mapping.dim != space.dim:
        raise ValueError(
            f"dimension mismatch: map dim {mapping.dim} vs space dim {space.dim}"
        )
    rotated = space.matrix @ mapping.matrix.T
    rotated.setflags(write=False)
    return EmbeddingSpace(space.language_tag, space.vocab, rotated)


def merge_spaces(aligned_source: EmbeddingSpace, target: EmbeddingSpace) -> EmbeddingSpace:
    """Stack two same-dimension spaces into one shared vocabulary.

    Words are disambiguated as "<language_tag>:<word>", so the same
    surface form may appear under both tags. The merged tag is
    "<source_tag>+<target_tag>". An input that is itself a merged space
    (its tag contains "+") keeps its existing prefixes, so merges chain:
    merging te into en+hi+be yields en+hi+be+te with single-level
    prefixes throughout.
    """
    if aligned_source.dim != target.dim:
        raise ValueError(
            f"dimension mismatch: {aligned_source.dim} vs {target.dim}"
        )

    def prefixed(space: EmbeddingSpace) -> tuple[str, ...]:
        if "+" in space.language_tag:
            return space.vocab
        return tuple(f"{space.language_tag}:{w}" for w in space.vocab)

    vocab = prefixed(aligned_source) + prefixed(target)
    matrix = np.vstack([aligned_source.matrix, target.matrix])
    matrix.setflags(write=False)
    return EmbeddingSpace(
        f"{aligned_source.language_tag}+{target.language_tag}",
        vocab,
        matrix,
        normalized=aligned_source.normalized and target.normalized,
    )
