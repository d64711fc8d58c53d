"""Intrinsic bias metrics over embedding spaces.

* :func:`dis` is mean cosine distance from one vector to a set.
* :func:`inbias` averages, over occupation pairs, the absolute gap
  between the masculine form's distance to the male seeds and the
  feminine form's distance to the female seeds, each word scored
  against its own language's seeds.
* :func:`cross_score_matrix` measures, for each ordered pair of
  languages, how much removing one language's top gender direction
  moves the other language's neutral words along that other language's
  own top gender direction (relative change of the absolute
  projection). A language against itself scores exactly 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSpace
from .lexicon import GenderLexicon
from .subspace import difference_matrix, pca_basis

log = logging.getLogger(__name__)

__all__ = [
    "dis",
    "InBiasResult",
    "inbias",
    "CrossScoreMatrix",
    "cross_score_matrix",
    "format_table",
    "format_inbias_table",
    "format_cross_table",
]


def dis(x, vectors) -> float:
    """Mean of 1 - cos(x, y) over y in ``vectors``; ranges over [0, 2]."""
    x = np.asarray(x, dtype=np.float64)
    xn = np.linalg.norm(x)
    if xn == 0.0:
        raise ValueError("dis is undefined for a zero vector")
    ys = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if ys.shape[0] == 0:
        raise ValueError("dis needs at least one reference vector")
    norms = np.linalg.norm(ys, axis=1)
    if (norms == 0.0).any():
        raise ValueError("dis is undefined against a zero reference vector")
    cos = (ys @ x) / (norms * xn)
    return float(np.mean(1.0 - cos))


@dataclass(frozen=True)
class InBiasResult:
    """Mean gap plus the per-occupation detail behind it.

    ``per_occupation`` rows are (language, masculine, feminine, gap);
    ``skipped`` rows are (language, masculine, feminine) pairs dropped
    because a word was missing.
    """

    value: float
    per_occupation: tuple[tuple[str, str, str, float], ...]
    skipped: tuple[tuple[str, str, str], ...]

    def language_value(self, lang: str) -> float:
        """The mean of ``lang``'s gaps: the value :func:`inbias` over ``lang``
        alone gives, bit for bit, as its gaps are the same in the same order."""
        gaps = [g[3] for g in self.per_occupation if g[0] == lang]
        if not gaps:
            raise ValueError(f"no occupation pair of {lang!r} is resolvable in the space")
        return float(np.mean(gaps))


def _seed_matrix(space, words, lang, side):
    rows, missing = space.locate_all(words, lang)
    for w in missing:
        log.warning("inbias: %s seed %r [%s] is out of vocabulary", side, w, lang)
    if not rows:
        raise ValueError(f"no usable {side} seed for language {lang!r}")
    return space.matrix[rows]


def inbias(
    space: EmbeddingSpace,
    lexicon: GenderLexicon,
    languages,
    seed_words: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] | None = None,
) -> InBiasResult:
    """Average |dis(masc, male seeds) - dis(fem, female seeds)|.

    ``seed_words`` optionally overrides the lexicon's static seed sets
    per language with (male_words, female_words), e.g. the two sides of
    held-out defining pairs. Occupation pairs with an unresolvable word
    are skipped and reported; a language none of whose pairs resolves is
    refused, naming each such language. A zero vector among the words
    scored is refused by :func:`dis`.
    """
    languages = lexicon.require_languages(languages)
    gaps: list[tuple[str, str, str, float]] = []
    skipped: list[tuple[str, str, str]] = []
    for lang in languages:
        if seed_words is not None and lang in seed_words:
            male_words, female_words = seed_words[lang]
        else:
            male_words = lexicon.seed_sets[lang].male
            female_words = lexicon.seed_sets[lang].female
        male = _seed_matrix(space, male_words, lang, "male")
        female = _seed_matrix(space, female_words, lang, "female")
        for masc, fem in lexicon.occupation_pairs[lang]:
            i = space.locate(masc, lang)
            j = space.locate(fem, lang)
            if i is None or j is None:
                skipped.append((lang, masc, fem))
                continue
            gap = abs(dis(space.matrix[i], male) - dis(space.matrix[j], female))
            gaps.append((lang, masc, fem, gap))
    if skipped:
        log.warning("inbias: skipped %d unresolvable occupation pair(s)", len(skipped))
    resolved = {g[0] for g in gaps}
    unresolved = " or ".join(repr(lang) for lang in languages if lang not in resolved)
    if unresolved:
        raise ValueError(f"no occupation pair of {unresolved} is resolvable in the space")
    value = float(np.mean([g[3] for g in gaps]))
    return InBiasResult(value=value, per_occupation=tuple(gaps), skipped=tuple(skipped))


def _language_terms(space, lexicon, lang, diffs, epsilon):
    """``lang``'s top direction from ``diffs``, its guarded neutral vectors, their projections."""
    direction = pca_basis(diffs, k=1).basis[0]
    rows, missing = space.locate_all(lexicon.neutral_words[lang].all_words(), lang)
    if missing:
        log.warning("cross_score: %d neutral %s word(s) are out of vocabulary",
                    len(missing), lang)
    if not rows:
        raise ValueError(f"no neutral word of {lang!r} is resolvable in the space")
    vecs = space.matrix[rows]
    proj = vecs @ direction
    keep = np.abs(proj) >= epsilon
    guarded = int(np.sum(~keep))
    if guarded:
        log.warning(
            "cross_score: %d/%d word(s) below the %.1e projection guard", guarded, len(rows), epsilon
        )
    if not keep.any():
        raise ValueError(
            f"every neutral word of {lang!r} falls below the epsilon guard ({epsilon:g})"
        )
    return direction, vecs[keep], proj[keep]


def _relative_change(b1, b2, vecs, proj) -> float:
    new_proj = (vecs - np.outer(vecs @ b1, b1)) @ b2
    return float(np.mean(np.abs(np.abs(new_proj) - np.abs(proj)) / np.abs(proj)))


@dataclass(frozen=True)
class CrossScoreMatrix:
    languages: tuple[str, ...]
    values: np.ndarray  # row = direction language l1, column = evaluated language l2

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        n = len(self.languages)
        if values.shape != (n, n):
            raise ValueError(f"values must be {n}x{n}, got {values.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "languages", tuple(self.languages))


def cross_score_matrix(
    space: EmbeddingSpace, lexicon: GenderLexicon, languages, epsilon: float = 1e-8
) -> CrossScoreMatrix:
    """Relative projection change of each l2's neutral words along l2's own
    top gender direction after removing each l1's top gender direction,
    for all ordered language pairs; errors from any cell propagate, and
    one error names every language none of whose pairs resolves.

    Words whose original absolute projection falls below ``epsilon`` are
    skipped (their relative change is numerically meaningless); if every
    word is skipped that is an error. Each language's top direction is
    fitted, and its neutral words are resolved, once.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    languages = lexicon.require_languages(languages)
    terms, unresolved = [], []
    for lang in languages:
        try:
            diffs = difference_matrix(space, lexicon.defining_pairs[lang])
        except ValueError as exc:  # raised only when none of the pairs resolves
            unresolved.append(str(exc))  # naming lang after "; "
            continue
        if not unresolved:  # past such a language, only look for more of them
            terms.append(_language_terms(space, lexicon, lang, diffs, epsilon))
    if unresolved:
        raise ValueError(unresolved[0] + "".join(m[m.index("; "):] for m in unresolved[1:]))
    values = [[_relative_change(t1[0], *t2) for t2 in terms] for t1 in terms]
    return CrossScoreMatrix(languages=languages, values=values)


def format_table(header: list[str], rows: list[list[str]]) -> str:
    """Left-aligned text columns two spaces apart, header first, no trailing blanks."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    lines = ("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in [header, *rows])
    return "".join(line + "\n" for line in lines)


def format_cross_table(matrix: CrossScoreMatrix) -> str:
    """Aligned text table, directions as rows and word sets as columns."""
    header = ["lang"] + [f"N_{l}" for l in matrix.languages]
    rows = [
        [f"b_{l1}"] + [f"{v:.3f}" for v in matrix.values[i]]
        for i, l1 in enumerate(matrix.languages)
    ]
    return format_table(header, rows)


def format_inbias_table(columns: list[str], rows: list[tuple[str, dict[str, float]]]) -> str:
    """Aligned text table of per-language values, one column per run label."""
    header = ["lang"] + list(columns)
    body = []
    for lang, values in rows:
        body.append([lang] + [
            f"{values[c]:.4f}" if c in values and values[c] is not None else "-"
            for c in columns
        ])
    return format_table(header, body)
