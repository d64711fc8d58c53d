"""Linear projection debiasing.

Every in-scope word vector w is replaced by its residual against the
bias subspace: w' = w - sum_j <w, b_j> b_j. Three variants differ only
in which defining pairs build the subspace:

* ``mono``  - one language's train pairs,
* ``multi`` - the pooled train pairs of several languages,
* ``eqr``   - pooled pairs, but the basis is selected so every language
  contributes the same number of orientation-labeled components.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .embeddings import EmbeddingSpace, row_norms, space_fingerprint
from .lexicon import GenderLexicon, PairSplit
from .subspace import (
    BiasSubspace,
    difference_matrix,
    equal_rep_basis,
    pairs_fingerprint,
    pca_basis,
    ppa_basis,
)

log = logging.getLogger(__name__)

__all__ = ["DebiasConfig", "debias_space", "run_variant"]

VARIANTS = ("mono", "multi", "eqr")
METHODS = ("pca", "ppa")
SCOPES = ("all", "neutral")

#: residuals with norm below this are treated as zero when renormalizing
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
    ``renormalize_after`` residuals are rescaled to unit norm, except
    residuals that vanished entirely, which stay zero and are logged.
    """
    if space.dim != subspace.dim:
        raise ValueError(
            f"dimension mismatch: space dim {space.dim} vs basis dim {subspace.dim}"
        )
    basis = subspace.basis
    if not space.normalized:
        log.warning("debias_space: input space is not normalized")

    if config.scope == "neutral":
        if scope_words is None:
            raise ValueError("scope 'neutral' needs the scope_words to restrict to")
        wanted = set(scope_words)
        rows = np.array([i for i, w in enumerate(space.vocab) if w in wanted], dtype=int)
        unknown = wanted - set(space.vocab)
        if unknown:
            log.warning(
                "debias_space: %d scope word(s) not in the vocabulary", len(unknown)
            )
    else:
        rows = slice(None)

    block = space.matrix[rows]  # a view for "all", a copy of the in-scope rows for "neutral"
    sub = (block @ basis.T) @ basis
    np.subtract(block, sub, out=sub)  # the residual replaces the projection: no input copy
    del block  # for "neutral", before the full copy below

    normalized = False
    if config.renormalize_after:
        norms = row_norms(sub)
        zero = norms < ZERO_RESIDUAL_TOL
        if zero.any():
            names = [space.vocab[i] for i in np.arange(len(space))[rows][zero]]
            shown = ", ".join(repr(w) for w in names[:10])
            more = f" (+{len(names) - 10} more)" if len(names) > 10 else ""
            log.warning(
                "debias_space: %d word(s) lie entirely in the bias subspace and stay "
                "zero after renormalization: %s%s",
                len(names),
                shown,
                more,
            )
            sub[zero] = 0.0
        np.divide(sub, norms[:, None], out=sub, where=~zero[:, None])
        # unit everywhere only if no residual vanished and any untouched
        # out-of-scope rows were unit to begin with
        normalized = bool(not zero.any() and (config.scope == "all" or space.normalized))
    if config.scope == "all":
        matrix = sub
    else:
        matrix = space.matrix.copy()
        matrix[rows] = sub
    matrix.setflags(write=False)
    return EmbeddingSpace(space.language_tag, space.vocab, matrix, normalized=normalized)


def _resolve_scope_words(space: EmbeddingSpace, lexicon: GenderLexicon, languages) -> set[str]:
    scope: set[str] = set()
    missing = 0
    for lang in languages:
        for word in lexicon.neutral_words[lang].all_words():
            row = space.locate(word, lang)
            if row is None:
                missing += 1
            else:
                scope.add(space.vocab[row])
    if missing:
        log.warning("run_variant: %d neutral scope word(s) are out of vocabulary", missing)
    return scope


def run_variant(
    space: EmbeddingSpace,
    lexicon: GenderLexicon,
    config: DebiasConfig,
    splits: dict[str, PairSplit],
    *,
    center: bool = False,
    seed: int = 0,
) -> tuple[EmbeddingSpace, BiasSubspace]:
    """Build the variant's subspace from train pairs and debias the space.

    ``splits`` maps each participating language to its train/test pair
    split; ``mono`` expects exactly one language, ``multi``/``eqr`` pool
    every language given (in mapping order). ``center`` (PCA only) centers
    the difference vectors first. Returns the debiased space together with
    the subspace used, provenance attached.
    """
    if not splits:
        raise ValueError("at least one language split is required")
    if center and config.method == "ppa":
        raise ValueError(
            "center applies to method 'pca' only: the PPA objective centers its projections"
        )
    languages = list(splits)
    if config.variant == "mono" and len(languages) != 1:
        raise ValueError(
            f"variant 'mono' uses exactly one language, got {len(languages)}"
        )
    train_pairs = [p for lang in languages for p in splits[lang].train_pairs]
    diffs = difference_matrix(space, train_pairs)

    if config.variant == "eqr":
        subspace = equal_rep_basis(
            diffs, config.k, languages, config.method, center=center, seed=seed
        )
    elif config.method == "pca":
        subspace = pca_basis(diffs, config.k, center=center)
    else:
        subspace = ppa_basis(diffs, config.k, seed=seed)

    scope_words = None
    if config.scope == "neutral":
        scope_words = _resolve_scope_words(space, lexicon, languages)

    debiased = debias_space(space, subspace, config, scope_words=scope_words)
    provenance = {
        "variant": config.variant,
        "method": config.method,
        "k": config.k,
        "scope": config.scope,
        "seed": seed,
        "center": center,
        "languages": list(languages),
        "train_pair_counts": {lang: len(splits[lang].train_pairs) for lang in languages},
        "embedding_fingerprint": space_fingerprint(space),
        "pairs_fingerprint": pairs_fingerprint(train_pairs),
    }
    return debiased, replace(subspace, provenance=provenance)
