"""Gender subspace estimation from male/female difference vectors.

Two estimators are provided over the stacked difference matrix:

* :func:`pca_basis` takes the top-k right singular vectors of the rows
  as they are, as hard debiasing does: their mean is not subtracted,
  since the offset the pairs share is the gender direction itself;
  scores are explained-variance fractions.
* :func:`ppa_basis` is projection pursuit: it finds unit directions that
  maximize the excess kurtosis of the projected differences, one at a
  time, each constrained to the orthogonal complement of the previous
  ones (deflation). The search runs in coordinates of the row space of
  the difference matrix, so every direction lies in the span of the
  difference rows. In each step the centered rows are whitened, which
  makes the kurtosis a mean fourth power on the unit sphere, and 32
  seeded starts climb it together by a power iteration, as FastICA does
  (see :func:`_power_ascent`); scores are the achieved excess kurtosis
  values. The whole batch iterates until every start has settled, so
  every product keeps its operand shapes: a column of a BLAS product can
  change in its last bits with the columns beside it. Each direction is
  the lowest-index start within SCORE_TIE of the best, so rounding bits
  never pick it, and the result is deterministic for a given seed.

:func:`equal_rep_basis`, the multilingual eqr subspace, fits either one to
each language's own rows and orthonormalizes the union with one QR.

Basis vectors are sign-canonicalized (first non-negligible coordinate
positive) and every produced basis is orthonormal.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSpace, entry_prefix
from .manifest import write_json

log = logging.getLogger(__name__)

__all__ = [
    "DifferenceMatrix",
    "BiasSubspace",
    "difference_matrix",
    "pca_basis",
    "ppa_basis",
    "equal_rep_basis",
    "save_subspace",
]

BASIS_TOL = 1e-8  # orthonormality tolerance for any produced basis
RANK_RTOL = 1e-10  # singular values below RANK_RTOL * s_max do not count toward rank

PPA_STARTS = 32
PPA_MAX_ITER = 1000
PPA_MOVE_TOL = 1e-9  # a start has settled once an iteration moves it less than this
SCORE_TIE = 1e-12  # scores this close count as tied, and ties keep their order


@dataclass(frozen=True)
class DifferenceMatrix:
    """Stacked (male - female) vectors with a language tag per row."""

    rows: np.ndarray
    row_languages: tuple[str, ...]

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError(f"difference matrix must be 2-D and non-empty, got {rows.shape}")
        if len(self.row_languages) != rows.shape[0]:
            raise ValueError("one language tag required per row")
        norms = np.linalg.norm(rows, axis=1)
        if (norms == 0.0).any():
            raise ValueError("difference matrix contains a zero row")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "row_languages", tuple(self.row_languages))

    @property
    def shape(self):
        return self.rows.shape


@dataclass(frozen=True)
class BiasSubspace:
    """An orthonormal basis (k x dim) for the estimated gender subspace."""

    basis: np.ndarray
    method: str  # "pca" | "ppa"
    scores: tuple[float, ...]
    orientation_labels: tuple[str, ...] | None = None
    provenance: dict | None = None

    def __post_init__(self):
        basis = np.array(self.basis, dtype=np.float64)
        if basis.ndim != 2 or basis.shape[0] < 1:
            raise ValueError(f"basis must be a non-empty 2-D array, got {basis.shape}")
        if self.method not in ("pca", "ppa"):
            raise ValueError(f"unknown subspace method {self.method!r}")
        gram = basis @ basis.T
        err = np.max(np.abs(gram - np.eye(basis.shape[0])))
        if err > BASIS_TOL:
            raise ValueError(f"basis is not orthonormal (max Gram deviation {err:.3e})")
        scores = tuple(float(s) for s in np.atleast_1d(np.asarray(self.scores, dtype=np.float64)))
        if len(scores) != basis.shape[0]:
            raise ValueError("one score required per basis vector")
        if any(b - a > 1e-12 for a, b in zip(scores, scores[1:])):
            raise ValueError("scores must be non-increasing")
        if self.orientation_labels is not None and len(self.orientation_labels) != basis.shape[0]:
            raise ValueError("one orientation label required per basis vector")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "scores", scores)

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def difference_matrix(space: EmbeddingSpace, pairs) -> DifferenceMatrix:
    """Stack male-minus-female vectors for every resolvable pair.

    Pairs with a missing word, or whose two words share one vector, are
    skipped with a warning. No resolvable pair at all is an error naming
    each language of the pairs, and saying so when the space does not
    :meth:`~.embeddings.EmbeddingSpace.holds` one, as a space read under a
    merged tag but never merged does not.
    """
    if not space.normalized:
        log.warning("difference_matrix: space is not normalized")
    rows, langs, unresolved = [], [], {}
    for pair in pairs:
        i = space.locate(pair.male_word, pair.language_tag)
        j = space.locate(pair.female_word, pair.language_tag)
        if i is None or j is None:
            unresolved[pair.language_tag] = None
            log.warning(
                "difference_matrix: skipping pair (%s, %s) [%s]: word missing",
                pair.male_word,
                pair.female_word,
                pair.language_tag,
            )
            continue
        delta = space.matrix[i] - space.matrix[j]
        if not np.any(delta):
            unresolved[pair.language_tag] = None
            log.warning(
                "difference_matrix: skipping pair (%s, %s) [%s]: identical vectors",
                pair.male_word,
                pair.female_word,
                pair.language_tag,
            )
            continue
        rows.append(delta)
        langs.append(pair.language_tag)
    if not rows:
        raise ValueError("no gender pair is resolvable in the space" + "".join(
            f"; none of {lang!r} resolved"
            + ("" if space.holds(lang) else f" (the space holds no {entry_prefix(lang)!r} entries)")
            for lang in unresolved
        ))
    return DifferenceMatrix(np.vstack(rows), tuple(langs))


def _canonical_signs(basis: np.ndarray) -> np.ndarray:
    """Flip vectors so the first non-negligible coordinate is positive."""
    out = basis.copy()
    for row in out:
        scale = np.max(np.abs(row))
        if scale == 0.0:
            continue
        lead = np.flatnonzero(np.abs(row) > 1e-12 * scale)[0]
        if row[lead] < 0:
            row *= -1.0
    return out


def _factor(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """One thin SVD: singular values, right singular vectors, numerical rank."""
    _, s, vt = np.linalg.svd(data, full_matrices=False)
    rank = int(np.sum(s >= RANK_RTOL * s[0])) if s[0] > 0.0 else 0
    return s, vt, rank


def _check_k(k: int, rank: int) -> None:
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > rank:
        raise ValueError(
            f"k={k} exceeds the numerical rank of the difference matrix; achievable k is {rank}"
        )


def pca_basis(diffs: DifferenceMatrix, k: int) -> BiasSubspace:
    """Top-k principal directions of the difference matrix.

    The rows are factored as they are: subtracting their mean would remove
    the offset they share, which is the direction sought. Scores are
    explained-variance fractions (squared singular values over their
    total), so they are non-increasing. ``k`` above the numerical rank
    raises ValueError naming the achievable k.
    """
    s, vt, rank = _factor(diffs.rows)
    _check_k(k, rank)
    scores = (s**2 / np.sum(s**2))[:k]
    return BiasSubspace(basis=_canonical_signs(vt[:k]), method="pca", scores=scores)


def _unit_columns(x: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.add.reduce(x * x, axis=0))
    return x / np.where(norms > 0.0, norms, 1.0)


def _power_ascent(y: np.ndarray, a: np.ndarray):
    """Maximize the mean of ``(y @ a) ** 4`` over unit columns ``a``, all at once.

    ``y`` holds whitened coordinates ((1/n) yᵀy = I), so for a unit column
    that mean less 3 is the excess kurtosis of the projection. The columns
    of ``a`` are first scaled to unit length; then each iteration maps
    every column to its normalized gradient, ``yᵀ(y a)³``. The mean fourth
    power is convex, so that step never lowers it on the sphere. The whole
    batch iterates until every column moves by less than PPA_MOVE_TOL, or
    PPA_MAX_ITER times; a zero column stays zero. Returns the final
    columns, their excess kurtosis (-inf for a zero column) and, per
    column, the number of iterations in which it still moved by
    PPA_MOVE_TOL or more.
    """
    a = _unit_columns(a)
    steps = np.zeros(a.shape[1], dtype=int)
    for _ in range(PPA_MAX_ITER):
        z = y @ a
        ascent = _unit_columns(y.T @ (z * z * z))
        moving = np.sqrt(np.add.reduce((ascent - a) ** 2, axis=0)) >= PPA_MOVE_TOL
        a = ascent
        steps += moving
        if not moving.any():
            break
    values = np.add.reduce((y @ a) ** 4, axis=0) / y.shape[0] - 3.0
    return a, np.where(np.any(a, axis=0), values, -np.inf), steps


def _best(scores) -> int:
    """The lowest index whose score is within SCORE_TIE of the largest."""
    scores = np.asarray(scores)
    return int(np.flatnonzero(scores >= scores.max() - SCORE_TIE)[0])


def _score_order(scores) -> list[int]:
    """Indices by non-increasing score; scores within SCORE_TIE of the largest
    left count as tied, and ties go to the lowest index."""
    left = list(range(len(scores)))
    order = []
    while left:
        order.append(left.pop(_best([scores[i] for i in left])))
    return order


def ppa_basis(diffs: DifferenceMatrix, k: int, seed: int = 0) -> BiasSubspace:
    """Kurtosis-maximizing directions via multi-start whitened power ascent.

    The search runs in the coordinates of the row space of the difference
    matrix (one SVD), so every basis vector lies in the span of the
    difference rows; at least 4 rows are needed for a meaningful fourth
    moment. Direction j lies in the orthogonal complement of directions
    1..j-1 (deflation). There the centered rows are whitened by one thin
    SVD, keeping the singular values at least RANK_RTOL times the largest
    of the undeflated centered rows, so rounding noise is never whitened;
    k above the count kept at the first step raises ValueError naming the
    achievable k. :func:`_power_ascent` climbs from 32 seeded starts (the
    leading principal direction of the deflated rows and 31 random ones)
    as one full-width batch, and direction j is the lowest-index start
    whose score is within SCORE_TIE of the best. A warning names the rows'
    languages when chosen starts stopped at PPA_MAX_ITER before settling,
    and when directions reach the single-outlier bound
    (n-2) + 1/(n-1) - 3, where each separates one pair from the rest.
    Results are deterministic for a given seed.
    """
    n, dim = diffs.shape
    if n < 4:
        raise ValueError(f"projection pursuit needs at least 4 difference rows, got {n}")
    _, vt, rank = _factor(diffs.rows)
    _check_k(k, rank)
    span = vt[:rank]
    coords = diffs.rows @ span.T
    coords_c = coords - coords.mean(axis=0)
    rng = np.random.default_rng(seed)
    complement = np.eye(rank)  # orthonormal columns spanning what deflation leaves
    found, scores, capped = [], [], 0
    for _ in range(k):
        # start 0: leading principal direction of the deflated coordinates;
        # the others: random vectors, projected into the span.
        lead = np.linalg.svd(coords @ complement, full_matrices=False)[2][0]
        randoms = rng.standard_normal((PPA_STARTS - 1, dim)) @ span.T @ complement
        u, s, wt = np.linalg.svd(coords_c @ complement, full_matrices=False)
        if not found:  # the undeflated rows set the scale of rounding noise
            floor = max(RANK_RTOL * s[0], np.finfo(np.float64).tiny)
        kept = int(np.sum(s >= floor))
        if len(found) + kept < k:  # each direction found takes one of these dimensions
            raise ValueError(f"k={k} exceeds the numerical rank of the centered difference "
                             f"rows; achievable k is {len(found) + kept}")
        s, wt = s[:kept], wt[:kept]
        a = s[:, None] * (wt @ np.vstack([lead, randoms]).T)
        a, values, steps = _power_ascent(np.sqrt(n) * u[:, :kept], a)
        best = _best(values)
        direction = wt.T @ (a[:, best] / s)
        direction /= np.linalg.norm(direction)
        found.append(complement @ direction)
        scores.append(float(values[best]))
        capped += steps[best] == PPA_MAX_ITER
        # deflate: keep the part of the complement orthogonal to ``direction``
        complement = complement @ np.linalg.qr(direction[:, None], mode="complete")[0][:, 1:]
    languages = ", ".join(dict.fromkeys(diffs.row_languages))
    if capped:
        log.warning("ppa_basis: %d of %d direction(s) stopped at the iteration cap %d before "
                    "converging [%s]", capped, k, PPA_MAX_ITER, languages)
    bound = (n - 2) + 1.0 / (n - 1) - 3.0
    saturated = sum(abs(score - bound) <= 1e-9 for score in scores)
    if saturated:
        log.warning("ppa_basis: %d of %d direction(s) reach the single-outlier kurtosis bound "
                    "%.3f for %d rows [%s]; each isolates one pair rather than a shared "
                    "direction", saturated, k, bound, n, languages)
    order = _score_order(scores)
    basis = _canonical_signs(np.vstack(found)[order] @ span)
    return BiasSubspace(
        basis=basis, method="ppa", scores=np.asarray(scores)[order]
    )


def equal_rep_basis(
    diffs: DifferenceMatrix, k: int, languages, method: str = "pca", *, seed: int = 0
) -> BiasSubspace:
    """The eqr subspace: the span of each of the L ``languages``' own top k/L directions.

    :func:`pca_basis` or :func:`ppa_basis` fits k/L directions, and their
    scores, to each language's rows alone. The k directions are ordered by
    score (scores within SCORE_TIE count as tied, and ties keep the order
    of ``languages``), orthonormalized by one QR
    and sign-canonicalized, and labeled with their languages; their span
    does not depend on the order of ``languages``.

    Raises ValueError before any fit when ``languages`` is empty, k is not
    divisible by L, ``method`` is unknown or a language has no rows; after,
    naming the language, when its rows cannot give k/L directions or a
    direction's part outside the span of those before it (its QR diagonal)
    is below BASIS_TOL.
    """
    languages = tuple(languages)
    if not languages:
        raise ValueError("no languages given")
    if k % len(languages) != 0:
        raise ValueError(f"k={k} is not divisible by the language count {len(languages)}")
    if method not in ("pca", "ppa"):
        raise ValueError(f"unknown subspace method {method!r}")
    for lang in languages:
        if lang not in diffs.row_languages:
            raise ValueError(f"language {lang!r} has no rows in the difference matrix")
    per_language = k // len(languages)
    tags = np.asarray(diffs.row_languages)
    fits = []
    for lang in languages:
        own = DifferenceMatrix(diffs.rows[tags == lang], [lang] * int(np.sum(tags == lang)))
        try:
            fits.append(pca_basis(own, per_language) if method == "pca"
                        else ppa_basis(own, per_language, seed=seed))
        except ValueError as exc:
            raise ValueError(f"language {lang!r} cannot give {per_language} direction(s): {exc}")
    scores = np.concatenate([fit.scores for fit in fits])
    labels = [lang for lang in languages for _ in range(per_language)]
    order = _score_order(scores)
    q, r = np.linalg.qr(np.vstack([fit.basis for fit in fits])[order].T)
    # r has no diagonal past the dimension, where every direction lies in the span
    outside = np.pad(np.abs(np.diag(r)), (0, k - len(r)))
    if (inside := np.flatnonzero(outside < BASIS_TOL)).size:
        j = inside[0]
        raise ValueError(f"a direction of language {labels[order[j]]!r} lies in the span of "
                         f"the {j} direction(s) before it (QR diagonal {outside[j]:.1e})")
    return BiasSubspace(_canonical_signs(q.T), method, scores[order],
                        orientation_labels=tuple(labels[i] for i in order))


def pairs_fingerprint(pairs) -> str:
    """Stable sha256 over an ordered list of gender pairs."""
    h = hashlib.sha256()
    for p in pairs:
        h.update(f"{p.language_tag}\t{p.male_word}\t{p.female_word}\n".encode("utf-8"))
    return h.hexdigest()


def save_subspace(subspace: BiasSubspace, path) -> None:
    """Serialize a subspace to JSON (basis at full float precision)."""
    prov = dict(subspace.provenance or {})
    write_json(path, {
        "method": subspace.method,
        "k": subspace.k,
        "seed": prov.pop("seed", None),
        "basis": [[float(x) for x in row] for row in subspace.basis],
        "scores": [float(x) for x in subspace.scores],
        "orientation_labels": (
            list(subspace.orientation_labels) if subspace.orientation_labels else None
        ),
        "embedding_fingerprint": prov.pop("embedding_fingerprint", None),
        "pairs_fingerprint": prov.pop("pairs_fingerprint", None),
        "provenance": prov or None,
    })

