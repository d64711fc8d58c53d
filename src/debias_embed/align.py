"""Orthogonal cross-lingual alignment of embedding spaces.

Fits the orthogonal matrix W minimizing sum ||W x_i - y_i||^2 over a
bilingual dictionary (the classic Procrustes problem, solved in closed
form from one SVD of the cross-covariance of the paired vectors) and
merges the rotated source space with the target space under
"<language_tag>:" word prefixes. The fit reads only the dictionary rows,
so the spaces may be streams, rotated and merged as they are read.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .embeddings import (EmbeddingSpace, SpaceStream, decode_line, entry_prefix, save_vec,
                         split_words, staged)

log = logging.getLogger(__name__)

__all__ = [
    "BilingualDictionary",
    "OrthogonalMap",
    "load_dictionary",
    "procrustes_fit",
    "apply_map",
    "merge_spaces",
    "merged_tag",
    "save_merged",
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


def load_dictionary(path, source_tag: str, target_tag: str) -> BilingualDictionary:
    """Read "source<TAB>target" (or whitespace separated) word pairs.

    The separator is auto-detected per file from the first data line: a
    tab, or else ASCII whitespace, which splits a line as ``.vec`` words
    are split (:func:`~.embeddings.split_words`).
    Duplicate pairs are dropped with a warning; a line that does not split
    into exactly two tokens, or is not UTF-8, raises ValueError with its
    line number.
    """
    entries: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    dropped = 0
    tab = None
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = decode_line(raw, path, lineno).rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            if tab is None:
                tab = "\t" in line
            fields = [f for f in line.split("\t") if f] if tab else split_words(line)
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
    # the gathered pairs are freed before the SVD and its workspace are allocated
    u, _, vt = np.linalg.svd(target.matrix[rows_y].T @ source.matrix[rows_x])
    w = u @ vt
    return OrthogonalMap(w, len(rows_x))


def apply_map(mapping: OrthogonalMap, space: EmbeddingSpace | SpaceStream
              ) -> EmbeddingSpace | SpaceStream:
    """Rotate every row x of the space to W @ x.

    Each row is rotated on its own, by ``np.einsum`` rather than BLAS, so
    its bits depend neither on the block split nor on the BLAS thread
    count. A :class:`~.embeddings.SpaceStream` is rotated block by block as
    it is read.

    A rotation preserves norms only up to rounding, so the result is not
    marked normalized even when the input is: normalize it again for unit
    rows.
    """
    if mapping.dim != space.dim:
        raise ValueError(
            f"dimension mismatch: map dim {mapping.dim} vs space dim {space.dim}"
        )
    if isinstance(space, SpaceStream):
        return space.derive(lambda block: apply_map(mapping, block))
    rotated = np.einsum("ij,kj->ik", space.matrix, mapping.matrix)  # row i is W @ x_i
    rotated.setflags(write=False)
    return EmbeddingSpace(space.language_tag, space.vocab, rotated)


def merged_tag(source_tag: str, target_tag: str) -> str:
    """The tag of :func:`merge_spaces` of spaces tagged ``source_tag`` and
    ``target_tag``: "<source_tag>+<target_tag>".

    Tags that share a language, split on "+" (``en`` and ``en``, ``en+hi``
    and ``hi``), raise ValueError: the merged space would prefix that
    language's words the same way twice.
    """
    shared = [tag for tag in target_tag.split("+") if tag in source_tag.split("+")]
    if shared:
        raise ValueError(f"cannot merge a space tagged {target_tag!r} into one tagged"
                         f" {source_tag!r}: both hold language {shared[0]!r}")
    return f"{source_tag}+{target_tag}"


def merge_spaces(aligned_source: EmbeddingSpace | SpaceStream,
                 target: EmbeddingSpace | SpaceStream) -> EmbeddingSpace | SpaceStream:
    """Stack two same-dimension spaces into one shared vocabulary.

    Words are disambiguated by their :func:`~.embeddings.entry_prefix`, as
    "<language_tag>:<word>", so the same surface form may appear under both
    tags. The merged tag is :func:`merged_tag`'s, so two inputs that share a
    language are refused. An input that is itself a merged space (its tag contains "+") keeps its
    existing prefixes, so merges chain: merging te into en+hi+be yields
    en+hi+be+te with single-level prefixes throughout. Two
    :class:`~.embeddings.SpaceStream` inputs give the stream of the source's
    blocks, then the target's, prefixed as read; a stream and a held space
    are refused.
    """
    if isinstance(aligned_source, SpaceStream) != isinstance(target, SpaceStream):
        raise ValueError(f"cannot merge a {type(aligned_source).__name__} with a"
                         f" {type(target).__name__}: both must be held or both streamed")
    if aligned_source.dim != target.dim:
        raise ValueError(
            f"dimension mismatch: {aligned_source.dim} vs {target.dim}"
        )
    tag = merged_tag(aligned_source.language_tag, target.language_tag)
    normalized = aligned_source.normalized and target.normalized

    def prefixed(space: EmbeddingSpace) -> tuple[str, ...]:
        prefix = entry_prefix(space.language_tag)
        return tuple(prefix + w for w in space.vocab) if prefix else space.vocab

    if isinstance(aligned_source, SpaceStream):
        return aligned_source.chain(
            target, tag, lambda block: EmbeddingSpace(tag, prefixed(block), block.matrix),
            normalized=normalized,
        )
    matrix = np.vstack([aligned_source.matrix, target.matrix])
    matrix.setflags(write=False)
    return EmbeddingSpace(
        tag, prefixed(aligned_source) + prefixed(target), matrix, normalized=normalized
    )


def save_merged(aligned_source: EmbeddingSpace | SpaceStream,
                target: EmbeddingSpace | SpaceStream, aligned_path, merged_path,
                precision: int = 9) -> None:
    """:func:`~.embeddings.save_vec` of ``aligned_source`` to ``aligned_path``
    and of ``merge_spaces(aligned_source, target)`` to ``merged_path``.

    Each source row is formatted once: the aligned file is the merged file's
    first half with the source prefix cut off. Neither file is renamed into
    place before both are complete, as :func:`~.embeddings.staged` does.
    """
    cut = len(entry_prefix(aligned_source.language_tag).encode("utf-8"))
    with staged(aligned_path, merged_path) as (aligned_tmp, merged_tmp):
        save_vec(merge_spaces(aligned_source, target), merged_tmp, precision)
        with open(merged_tmp, "rb") as src, open(aligned_tmp, "wb") as out:
            src.readline()  # the merged header
            out.write(f"{len(aligned_source)} {aligned_source.dim}\n".encode())
            for line in islice(src, len(aligned_source)):
                out.write(line[cut:])
