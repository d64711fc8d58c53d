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

from .embeddings import EmbeddingSpace, SpaceStream, row_blocks, row_norms, space_fingerprint
from .lexicon import GenderLexicon, PairSplit, entry_forms
from .subspace import (
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
    "DebiasNotes",
    "residuals",
    "debias_space",
    "variant_words",
    "run_variant",
]

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


class DebiasNotes:
    """What :func:`debias_space` warns about, gathered over the blocks of one space.

    Made for one config and its ``scope_words`` (required for scope
    ``neutral``). Blocks debiased apart, each with notes of its own, are
    gathered with :meth:`add`; :meth:`finish` logs each warning once.
    """

    def __init__(self, config: DebiasConfig, scope_words=None):
        self.wanted = None
        if config.scope == "neutral":
            if scope_words is None:
                raise ValueError("scope 'neutral' needs the scope_words to restrict to")
            self.wanted = set(scope_words)
        self.found: set[str] = set()
        self.unnormalized = False
        self.zero_words: list[str] = []

    def add(self, other: DebiasNotes) -> None:
        """Gather the notes of another block of the same space."""
        self.found |= other.found
        self.unnormalized |= other.unnormalized
        self.zero_words += other.zero_words

    def finish(self) -> None:
        """Log each warning gathered, once."""
        if self.unnormalized:
            log.warning("debias_space: input space is not normalized")
        if self.wanted is not None and self.wanted - self.found:
            log.warning("debias_space: %d scope word(s) not in the vocabulary",
                        len(self.wanted - self.found))
        if self.zero_words:
            shown = ", ".join(repr(w) for w in self.zero_words[:10])
            more = f" (+{len(self.zero_words) - 10} more)" if len(self.zero_words) > 10 else ""
            log.warning(
                "debias_space: %d word(s) lie entirely in the bias subspace and stay "
                "zero after renormalization: %s%s",
                len(self.zero_words),
                shown,
                more,
            )


def debias_space(
    space: EmbeddingSpace,
    subspace: BiasSubspace,
    config: DebiasConfig,
    scope_words=None,
    *,
    notes: DebiasNotes | None = None,
) -> EmbeddingSpace:
    """Remove the subspace component from every in-scope word.

    ``scope_words`` (vocabulary entries, prefixed form for merged
    spaces) is required when ``config.scope == "neutral"``; every other
    word is then carried over bit-identically. With
    ``renormalize_after`` residuals are rescaled to unit norm, except
    residuals that vanished entirely, which stay zero and are logged.
    Each row is computed by :func:`residuals`, so debiasing the blocks of
    any split of the space instead, each with notes of its own gathered by
    :meth:`DebiasNotes.add`, gives the same rows and warnings. Given
    ``notes``, the scope words are the ones it was made with, and the
    warnings are gathered there instead of logged.
    """
    own_notes = notes is None
    if own_notes:
        notes = DebiasNotes(config, scope_words)
    if space.dim != subspace.dim:
        raise ValueError(
            f"dimension mismatch: space dim {space.dim} vs basis dim {subspace.dim}"
        )
    notes.unnormalized |= not space.normalized
    neutral = notes.wanted is not None
    if neutral:
        rows = np.array([i for i, w in enumerate(space.vocab) if w in notes.wanted], dtype=int)
        notes.found.update(space.vocab[i] for i in rows)
    else:
        rows = slice(None)
    sub = residuals(space.matrix[rows], subspace.basis)

    normalized = False
    if config.renormalize_after:
        norms = row_norms(sub)
        zero = norms < ZERO_RESIDUAL_TOL
        notes.zero_words += [space.vocab[i] for i in np.arange(len(space))[rows][zero]]
        sub[zero] = 0.0
        np.divide(sub, norms[:, None], out=sub, where=~zero[:, None])
        # unit everywhere only if no residual vanished and any untouched
        # out-of-scope rows were unit to begin with
        normalized = bool(not zero.any() and (not neutral or space.normalized))
    if neutral:
        matrix = space.matrix.copy()
        matrix[rows] = sub
    else:
        matrix = sub
    matrix.setflags(write=False)
    debiased = EmbeddingSpace(space.language_tag, space.vocab, matrix, normalized=normalized)
    if own_notes:
        notes.finish()
    return debiased


def variant_words(lexicon: GenderLexicon, config: DebiasConfig, splits) -> set[str]:
    """Every vocabulary entry :func:`run_variant` may look up to fit the subspace.

    These are the train pairs' words and, for scope ``neutral``, the
    lexicon's neutral words of each language in ``splits``, in every form
    :func:`~.lexicon.entry_forms` gives. A space of just these rows fits the
    same subspace and scope as the whole space.
    """
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
    space: EmbeddingSpace | SpaceStream,
    lexicon: GenderLexicon,
    config: DebiasConfig,
    splits: dict[str, PairSplit],
    *,
    center: bool = False,
    seed: int = 0,
    save=None,
) -> tuple[EmbeddingSpace | SpaceStream, BiasSubspace]:
    """Build the variant's subspace from train pairs and debias the space.

    ``splits`` maps each participating language to its train/test pair
    split; ``mono`` expects exactly one language, ``multi``/``eqr`` pool
    every language given (in mapping order). ``center`` (PCA only) centers
    the difference vectors first. Returns the debiased space together with
    the subspace used, its provenance attached.

    ``space`` may be a :class:`~.embeddings.SpaceStream`, fitted from its
    held rows (it must hold those :func:`variant_words` names); the
    debiased space is then a stream too, computed block by block as it is
    read, and a pass over it also hashes the input's blocks and gathers the
    debias warnings. ``save``, if given, is called with the debiased space
    before the input is fingerprinted: for a stream, that makes the pass
    which writes the output the one pass over the input that the
    fingerprint needs.
    """
    streamed = isinstance(space, SpaceStream)
    held = space.held if streamed else space
    if held is None:
        raise ValueError("a streamed space needs held rows to fit the subspace from")
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
    diffs = difference_matrix(held, train_pairs)

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
        scope_words = _resolve_scope_words(held, lexicon, languages)

    if streamed:
        def step(block):
            notes = DebiasNotes(config, scope_words)
            return debias_space(block, subspace, config, notes=notes), notes

        # each block gathers its own notes, wherever it is computed; the pass adds them up
        debiased = space.hashed().derive(step, tap=lambda: DebiasNotes(config, scope_words))
    else:
        debiased = debias_space(space, subspace, config, scope_words=scope_words)
    if save is not None:
        save(debiased)
    provenance = {
        "variant": config.variant,
        "method": config.method,
        "k": config.k,
        "scope": config.scope,
        "seed": seed,
        "center": center,
        "languages": languages,
        "train_pair_counts": {lang: len(splits[lang].train_pairs) for lang in languages},
        "pairs_fingerprint": pairs_fingerprint(train_pairs),
        "embedding_fingerprint": space_fingerprint(space),
    }
    return debiased, replace(subspace, provenance=provenance)
