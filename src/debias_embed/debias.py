"""Linear projection debiasing.

Every in-scope word vector w is replaced by its residual against the
bias subspace: w' = w - sum_j <w, b_j> b_j. Three variants differ only
in which defining pairs build the subspace:

* ``mono``  - one language's train pairs,
* ``multi`` - the pooled train pairs of several languages,
* ``eqr``   - each of the L languages fits its top k/L directions to its
  own train pairs, and the basis spans all k, each labeled with its language.

With ``renormalize_after`` each residual is rescaled to unit norm, as
hard-debias's neutralize step does; a word inside the subspace has no
residual to rescale and is refused.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .embeddings import (EmbeddingSpace, SpaceStream, entry_forms, row_blocks, row_norms,
                         space_fingerprint)
from .lexicon import GenderLexicon, PairSplit
from .subspace import (
    METHODS,
    BiasSubspace,
    difference_matrix,
    equal_rep_basis,
    pairs_fingerprint,
    pca_basis,
    ppa_basis,
)

log = logging.getLogger(__name__)

__all__ = [
    "DebiasConfig",
    "residuals",
    "debias_space",
    "variant_words",
    "run_variant",
]

VARIANTS = ("mono", "multi", "eqr")
SCOPES = ("all", "neutral")

#: a residual with norm below this cannot be renormalized and is refused
ZERO_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class DebiasConfig:
    variant: str = "mono"
    k: int = 4
    method: str = "pca"
    scope: str = "all"
    renormalize_after: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}, got {self.scope!r}")
        if self.k < 1:
            raise ValueError("k must be at least 1")


def residuals(rows: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Each row of ``rows`` minus its projection onto the orthonormal ``basis`` rows.

    Every output row is computed from its own input row alone, with
    elementwise products and per-row sums rather than BLAS, so its bits
    depend neither on the other rows nor on how the rows are split between
    calls, nor on the BLAS thread count. Temporaries cover one block of
    :func:`~.embeddings.row_blocks` at a time.
    """
    out = np.empty_like(rows)
    for span in row_blocks(rows):
        x, proj = rows[span], out[span]
        term = np.empty_like(x)
        for j, b in enumerate(basis):
            np.multiply(x, b, out=term)
            coef = term.sum(axis=1)[:, None]
            if j == 0:
                np.multiply(coef, b, out=proj)
            else:
                np.multiply(coef, b, out=term)
                proj += term
        np.subtract(x, proj, out=proj)  # the projection's buffer becomes the residual
    return out


def debias_space(
    space: EmbeddingSpace,
    subspace: BiasSubspace,
    config: DebiasConfig,
    scope_words=None,
) -> EmbeddingSpace:
    """Remove the subspace component from every in-scope word.

    ``scope_words`` (vocabulary entries, prefixed form for merged
    spaces) is required when ``config.scope == "neutral"``; every other
    word is then carried over bit-identically. With
    ``renormalize_after`` residuals are rescaled to unit norm; a residual
    of norm below ``ZERO_RESIDUAL_TOL``, a word inside the subspace, has
    no unit direction, and the first such word in vocabulary order raises
    ValueError. Each row is computed by :func:`residuals`, so debiasing the
    blocks of any split of the space instead gives the same rows.
    """
    neutral = config.scope == "neutral"
    if neutral and scope_words is None:
        raise ValueError("scope 'neutral' needs the scope_words to restrict to")
    if space.dim != subspace.dim:
        raise ValueError(
            f"dimension mismatch: space dim {space.dim} vs basis dim {subspace.dim}"
        )
    if neutral:
        wanted = set(scope_words)
        rows = np.array([i for i, w in enumerate(space.vocab) if w in wanted], dtype=int)
    else:
        rows = slice(None)
    sub = residuals(space.matrix[rows], subspace.basis)

    normalized = False
    if config.renormalize_after:
        norms = row_norms(sub)
        if (zero := np.flatnonzero(norms < ZERO_RESIDUAL_TOL)).size:
            word = space.vocab[np.arange(len(space))[rows][zero[0]]]
            raise ValueError(f"cannot renormalize {word!r}: it lies in the bias subspace"
                             f" (residual norm {norms[zero[0]]:.1e})")
        sub /= norms[:, None]
        # unit everywhere only if any untouched out-of-scope rows were unit to begin with
        normalized = not neutral or space.normalized
    if neutral:
        matrix = space.matrix.copy()
        matrix[rows] = sub
    else:
        matrix = sub
    matrix.setflags(write=False)
    return EmbeddingSpace(space.language_tag, space.vocab, matrix, normalized=normalized)


def variant_words(lexicon: GenderLexicon, config: DebiasConfig, splits) -> set[str]:
    """Every vocabulary entry :func:`run_variant` may look up to fit the subspace.

    These are the train pairs' words and, for scope ``neutral``, the
    lexicon's neutral words of each language in ``splits``, in every form
    :func:`~.embeddings.entry_forms` gives. A space of just these rows fits the
    same subspace and scope as the whole space; :func:`run_variant` fits
    from, and fingerprints, only these rows.

    Raises ValueError, before any row is read or fitted, for languages the
    variant cannot use: none, more than one for ``mono``, or a count that
    does not divide ``k`` for ``eqr``.
    """
    if not splits:
        raise ValueError("at least one language split is required")
    if config.variant == "mono" and len(splits) != 1:
        raise ValueError(f"variant 'mono' uses exactly one language, got {len(splits)}")
    if config.variant == "eqr" and config.k % len(splits) != 0:
        raise ValueError(f"k={config.k} is not divisible by the language count {len(splits)}")
    words = []
    for lang, split in splits.items():
        words += [(p.language_tag, w) for p in split.train_pairs
                  for w in (p.male_word, p.female_word)]
        if config.scope == "neutral":
            words += [(lang, w) for w in lexicon.neutral_words[lang].all_words()]
    return entry_forms(words)


def _resolve_scope_words(space: EmbeddingSpace, lexicon: GenderLexicon, languages) -> set[str]:
    scope: set[str] = set()
    missing = 0
    for lang in languages:
        rows, absent = space.locate_all(lexicon.neutral_words[lang].all_words(), lang)
        scope.update(space.vocab[i] for i in rows)
        missing += len(absent)
    if missing:
        log.warning("run_variant: %d neutral scope word(s) are out of vocabulary", missing)
    return scope


def run_variant(
    space: EmbeddingSpace | SpaceStream,
    lexicon: GenderLexicon,
    config: DebiasConfig,
    splits: dict[str, PairSplit],
    *,
    seed: int = 0,
) -> tuple[EmbeddingSpace | SpaceStream, BiasSubspace]:
    """Build the variant's subspace from train pairs and debias the space.

    ``splits`` maps each participating language to its train/test pair
    split; ``mono`` expects exactly one language, ``multi`` pools them all
    (in mapping order), and ``eqr`` fits each one's own k/L directions.
    ``config.method`` picks the estimator of every fit, and ``seed`` seeds the
    random starts of projection pursuit (pca has none) and is recorded.
    Returns the debiased space and the subspace used, provenance attached.

    The subspace and the scope are fitted from the rows :func:`variant_words`
    names, in vocabulary order, and the provenance's ``embedding_fingerprint``
    is :func:`~.embeddings.space_fingerprint` of just those rows. ``space``
    may be a :class:`~.embeddings.SpaceStream`, whose held rows must include
    them; the debiased space is then a stream too, each block debiased by
    :func:`debias_space` as it is read.
    """
    streamed = isinstance(space, SpaceStream)
    held = space.held if streamed else space
    if held is None:
        raise ValueError("a streamed space needs held rows to fit the subspace from")
    words = variant_words(lexicon, config, splits)
    languages = list(splits)
    rows = sorted(held.index[w] for w in words if w in held.index)  # in vocabulary order
    matrix = held.matrix[rows]
    matrix.setflags(write=False)  # fresh and unshared, so the space need not copy it
    fitted = EmbeddingSpace(held.language_tag, tuple(held.vocab[i] for i in rows), matrix,
                            normalized=held.normalized)
    train_pairs = [p for lang in languages for p in splits[lang].train_pairs]
    diffs = difference_matrix(fitted, train_pairs)

    fit = pca_basis if config.method == "pca" else partial(ppa_basis, seed=seed)
    if config.variant == "eqr":
        subspace = equal_rep_basis(diffs, config.k, languages, fit)
    else:
        subspace = fit(diffs, config.k)

    scope_words = None
    if config.scope == "neutral":
        scope_words = _resolve_scope_words(fitted, lexicon, languages)

    def step(block):
        return debias_space(block, subspace, config, scope_words)

    # one step for a held space and for each block of a stream, wherever it is computed
    debiased = space.derive(step) if streamed else step(space)
    provenance = {
        "variant": config.variant,
        "method": config.method,
        "k": config.k,
        "scope": config.scope,
        "seed": seed,
        "languages": languages,
        "train_pair_counts": {lang: len(splits[lang].train_pairs) for lang in languages},
        "pairs_fingerprint": pairs_fingerprint(train_pairs),
        "embedding_fingerprint": space_fingerprint(fitted),
    }
    return debiased, replace(subspace, provenance=provenance)
