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
  difference rows. Each direction is located by multi-start projected
  gradient ascent (32 seeded starts, ascended together as one batch) so
  the result is deterministic for a given seed; scores are the achieved
  excess kurtosis values. The batch keeps each matrix product's operand
  shapes fixed (see :func:`_ascend`): a column of a BLAS product can
  change in its last bits with the count and layout of the columns
  beside it, and the best starts of one step can agree to 1e-14, so a
  different batching could pick a different direction.

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
PPA_GRAD_TOL = 1e-9


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


def _kurtosis_and_grad(coords_c: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Excess kurtosis of ``coords_c @ u`` and its gradient, one column per direction."""
    # coords_c is column-centered, so projections come out centered too
    n = float(coords_c.shape[0])
    z = coords_c @ u
    z2 = z * z
    m2 = np.add.reduce(z2, axis=0) / n
    m4 = np.add.reduce(z2 * z2, axis=0) / n
    some_flat = np.minimum.reduce(m2) < 1e-30
    if some_flat:  # there m4 < n * 1e-60, so with m2 = 1 the value is -3.0 exactly
        flat = m2 < 1e-30
        m2 = np.where(flat, 1.0, m2)
    m2sq = m2**2
    grad = coords_c.T @ ((4.0 / n) * z * (z2 / m2sq - m4 / m2**3))
    if some_flat:
        grad[:, flat] = 0.0
    return m4 / m2sq - 3.0, grad


def _tangent(projector: np.ndarray, grad: np.ndarray, u: np.ndarray):
    direction = projector @ grad
    direction -= np.add.reduce(direction * u, axis=0) * u
    return direction, np.sqrt(np.add.reduce(direction * direction, axis=0))


def _ascend(coords_c: np.ndarray, starts: np.ndarray, projector: np.ndarray):
    """Projected gradient ascent on the unit sphere, one column per start.

    Every column runs its own search: backtracking (Armijo) line search
    whose step doubles after an accepted step, up to 1e6, and halves
    after a rejected one, giving up below 1e-18; at most PPA_MAX_ITER
    accepted steps; stop once the tangent gradient is below PPA_GRAD_TOL.
    Returns the final columns and their values (-inf for a start that
    vanishes under the projector).

    Every product keeps its operand shapes: the candidate and gradient
    products run at the live count, the tangent product at the accepted
    count. Any other batching could change the winner, as a column of
    ``A @ X[:, :m]`` need not have the bits of that column of ``A @ X``
    and the best starts can agree to 1e-14. ``u`` and ``direction`` are
    held column-major, so with every column live they serve as operands
    without a gather, in the layout a gather gives.
    """
    u = projector @ starts
    norms = np.sqrt(np.add.reduce(u * u, axis=0))
    live = norms > 0.0
    u /= np.where(live, norms, 1.0)
    value, grad = _kurtosis_and_grad(coords_c, u)
    value[~live] = -np.inf
    direction, gnorm = _tangent(projector, grad, u)
    gnorm2 = gnorm**2
    live &= gnorm >= PPA_GRAD_TOL
    u, direction = np.asfortranarray(u), np.asfortranarray(direction)
    width = u.shape[1]
    step = np.ones(width)
    accepted = np.zeros(width, dtype=int)
    while (idx := np.flatnonzero(live)).size:
        cols = idx if idx.size < width else slice(None)  # no gather when every column is live
        cand = projector @ (u[:, cols] + step[cols] * direction[:, cols])
        # norm at least about 1: u is a unit vector in the projector's range, and
        # direction lies in that range, orthogonal to u
        cand /= np.sqrt(np.add.reduce(cand * cand, axis=0))
        cand_value, cand_grad = _kurtosis_and_grad(coords_c, cand)
        ok = cand_value > value[cols] + 1e-4 * step[cols] * gnorm2[cols]
        up, cand = idx[ok], cand[:, ok]
        u[:, up] = cand
        value[up] = cand_value[ok]
        direction[:, up], gnorm = _tangent(projector, cand_grad[:, ok], cand)
        gnorm2[up] = gnorm**2
        step[cols] = np.where(ok, np.minimum(step[cols] * 2.0, 1e6), step[cols] * 0.5)
        live[cols] = step[cols] > 1e-18  # an accepted column's step grew, so it passes
        accepted[up] += 1
        live[up] &= (gnorm >= PPA_GRAD_TOL) & (accepted[up] < PPA_MAX_ITER)
    return u, value


def ppa_basis(diffs: DifferenceMatrix, k: int, seed: int = 0) -> BiasSubspace:
    """Kurtosis-maximizing directions via multi-start projected ascent.

    The search runs in the coordinates of the row space of the difference
    matrix (one SVD), so every basis vector lies in the span of the
    difference rows. Direction j is the best of 32 seeded starts, ascended
    together as one batch and constrained to the orthogonal complement of
    directions 1..j-1; at least 4 rows are needed for a meaningful fourth
    moment. A direction whose score reaches the single-outlier bound
    (n-2) + 1/(n-1) - 3 separates one pair from the rest, which is
    logged as a warning naming the rows' languages. Results are deterministic for a given seed.
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
    found = np.zeros((0, rank))
    scores: list[float] = []
    for _ in range(k):
        projector = np.eye(rank) - found.T @ found
        # start 0: leading principal direction of the deflated coordinates;
        # remaining starts: random vectors, projected into the span.
        lead = np.linalg.svd(coords @ projector, full_matrices=False)[2][0]
        randoms = rng.standard_normal((PPA_STARTS - 1, dim)) @ span.T
        u, values = _ascend(coords_c, np.vstack([lead, randoms]).T, projector)
        best = int(np.argmax(values))
        if not np.isfinite(values[best]):
            raise ValueError("projection pursuit failed to find a direction")
        found = np.vstack([found, u[:, best]])
        scores.append(float(values[best]))
    bound = (n - 2) + 1.0 / (n - 1) - 3.0
    saturated = sum(abs(score - bound) <= 1e-9 for score in scores)
    if saturated:
        log.warning(
            "ppa_basis: %d of %d direction(s) reach the single-outlier kurtosis bound %.3f "
            "for %d rows [%s]; each isolates one pair rather than a shared direction",
            saturated,
            k,
            bound,
            n,
            ", ".join(dict.fromkeys(diffs.row_languages)),
        )
    order = np.argsort(-np.asarray(scores), kind="stable")
    basis = _canonical_signs(found[order] @ span)
    return BiasSubspace(
        basis=basis, method="ppa", scores=np.asarray(scores)[order]
    )


def equal_rep_basis(
    diffs: DifferenceMatrix, k: int, languages, method: str = "pca", *, seed: int = 0
) -> BiasSubspace:
    """The eqr subspace: the span of each of the L ``languages``' own top k/L directions.

    :func:`pca_basis` or :func:`ppa_basis` fits k/L directions, and their
    scores, to each language's rows alone. The k directions are ordered by
    score (ties keep the order of ``languages``), orthonormalized by one QR
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
    order = np.argsort(-scores, kind="stable")
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

