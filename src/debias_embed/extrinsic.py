"""Extrinsic bias harness: occupation classification from short bios.

A deterministic multinomial linear classifier is trained by full-batch
gradient descent on cross-entropy over mean-of-token-vector features,
embeddings frozen. The features are ``M @ H``, the records x rows
averaging matrix ``M`` times the distinct token rows ``H`` the records
use. When the records share few enough distinct rows that products with
the two factors cost fewer flops than products with the features
(``r * (n + dim) < n * dim`` for n records and r rows, so r < dim),
training works on the factors and never materializes the features (see
``train_classifier``); the weights may then differ in the last bits from
those of descent on the features, and a prediction can move only for a
record whose top two scores tie to within that rounding.

Bias is summarized as the mean absolute gap between per-occupation
accuracies for male- and female-authored records, and a comparison of two
runs reports the fraction of occupations whose gap strictly shrank.

The corpus format is TSV: ``gender<TAB>occupation<TAB>token token ...``
with gender ``M`` or ``F``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from collections import Counter, defaultdict

import numpy as np

from .embeddings import EmbeddingSpace, decode_line
from .intrinsic import format_table

log = logging.getLogger(__name__)

__all__ = [
    "BioRecord",
    "TrainConfig",
    "Classifier",
    "ExtrinsicResult",
    "load_corpus",
    "split_corpus",
    "featurize",
    "cross_entropy_loss_and_grad",
    "train_classifier",
    "evaluate_gap",
    "compare_runs",
    "format_gap_table",
]

GENDERS = ("M", "F")

#: ``featurize`` drops a record when less than this share of its tokens is in the vocabulary
MIN_COVERAGE = 0.5


@dataclass(frozen=True)
class BioRecord:
    gender: str
    occupation: str
    tokens: tuple[str, ...]

    def __post_init__(self):
        if self.gender not in GENDERS:
            raise ValueError(f"gender must be 'M' or 'F', got {self.gender!r}")
        if not self.occupation:
            raise ValueError("empty occupation")
        if not self.tokens:
            raise ValueError("record has no tokens")
        object.__setattr__(self, "tokens", tuple(self.tokens))


def load_corpus(path, min_count: int = 100) -> list[BioRecord]:
    """Read a bios TSV; occupations rarer than ``min_count`` are dropped.

    A line that is not three tab-separated fields, a record that
    :class:`BioRecord` refuses and undecodable UTF-8 raise ValueError with
    the line number. Dropped occupations are logged.
    """
    records: list[BioRecord] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = decode_line(raw, path, lineno).rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(
                    f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            gender, occupation, text = fields
            try:
                records.append(BioRecord(gender, occupation, tuple(text.split())))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    counts = Counter(r.occupation for r in records)
    rare = {occ for occ, c in counts.items() if c < min_count}
    if rare:
        log.warning(
            "load_corpus: dropping %d occupation(s) with fewer than %d records: %s",
            len(rare),
            min_count,
            ", ".join(sorted(rare)),
        )
        records = [r for r in records if r.occupation not in rare]
    if not records:
        raise ValueError(f"{path}: no records left after the min-count filter")
    return records


def split_corpus(records, test_fraction: float = 0.2, seed: int = 0):
    """Stratified train/test split by (occupation, gender), seeded."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    strata: dict[tuple[str, str], list[int]] = defaultdict(list)
    for i, r in enumerate(records):
        strata[(r.occupation, r.gender)].append(i)
    rng = np.random.default_rng(seed)
    test_rows: set[int] = set()
    for key in sorted(strata):
        rows = strata[key]
        order = rng.permutation(len(rows))
        n_test = int(round(len(rows) * test_fraction))
        n_test = min(max(n_test, 1 if len(rows) > 1 else 0), len(rows) - 1)
        test_rows.update(rows[i] for i in order[:n_test])
    train = [r for i, r in enumerate(records) if i not in test_rows]
    test = [r for i, r in enumerate(records) if i in test_rows]
    return train, test


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1.0
    epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")


def _resolve(space: EmbeddingSpace, records, language):
    """The matrix rows of each record's in-vocabulary tokens; returns (rows, kept).

    ``rows[i]`` lists one row per in-vocabulary token of ``kept[i]``, a
    repeated token once per occurrence. Records with in-vocabulary token
    coverage below ``MIN_COVERAGE`` (or with no resolvable token at all)
    are dropped with one warning.
    """
    resolved, kept, dropped = [], [], 0
    for record in records:
        rows = space.locate_all(record.tokens, language)[0]
        coverage = len(rows) / len(record.tokens)
        if not rows or coverage < MIN_COVERAGE:
            dropped += 1
            continue
        resolved.append(rows)
        kept.append(record)
    if dropped:
        log.warning(
            "featurize: dropped %d/%d record(s) with token coverage below %.0f%%",
            dropped,
            dropped + len(kept),
            100.0 * MIN_COVERAGE,
        )
    return resolved, kept


def featurize(space: EmbeddingSpace, records, language: str | None = None):
    """Mean-of-token-vector features; returns (features, kept_records).

    Records with in-vocabulary token coverage below ``MIN_COVERAGE`` (or
    with no resolvable token at all) are dropped with a warning.
    """
    resolved, kept = _resolve(space, records, language)
    return _mean_rows(space, resolved), kept


def _mean_rows(space: EmbeddingSpace, resolved):
    """The (records x dim) means of each record's resolved rows."""
    feats = [space.matrix[rows].mean(axis=0) for rows in resolved]
    return np.vstack(feats) if feats else np.empty((0, space.dim))


def cross_entropy_loss_and_grad(weights, bias, features, labels):
    """Mean softmax cross-entropy and its analytic gradient.

    ``weights`` is (classes x dim), ``bias`` (classes,), ``features``
    (n x dim), ``labels`` integer class ids (n,). Returns
    (loss, d_weights, d_bias). The softmax is taken class-major, on the
    (classes x n) logits, so each record's max and sum reduce across
    contiguous rows of n values instead of along rows of a few classes.

    When it trains on the factored features, ``train_classifier`` passes
    ``W @ H.T`` as the weights and the averaging matrix ``M`` as the
    features, so the logits are those of ``M @ H`` and ``d_weights`` is
    the row-space gradient, which it maps back to the weights with ``@ H``.
    """
    n = features.shape[0]
    records = np.arange(n)
    probs = weights @ features.T + bias[:, None]
    probs -= probs.max(axis=0)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=0)
    loss = float(-np.mean(np.log(probs[labels, records] + 1e-300)))
    probs[labels, records] -= 1.0
    probs /= n
    return loss, probs @ features, probs.sum(axis=1)


@dataclass(frozen=True)
class Classifier:
    weights: np.ndarray
    bias: np.ndarray
    labels: tuple[str, ...]
    space: EmbeddingSpace
    config: TrainConfig
    language: str | None
    loss_history: tuple[float, ...] = field(repr=False, default=())

    def predict(self, features: np.ndarray) -> tuple[str, ...]:
        """Predicted occupation labels; score ties resolve to the earlier label."""
        indices = np.argmax(features @ self.weights.T + self.bias, axis=1)
        return tuple(self.labels[i] for i in indices)


def train_classifier(
    space: EmbeddingSpace,
    train,
    config: TrainConfig = TrainConfig(),
    language: str | None = None,
) -> Classifier:
    """Full-batch gradient descent on softmax cross-entropy, seeded init.

    The embedding stays frozen; only the linear head is learned. At the
    default learning rate (features are means of unit vectors) the loss
    is non-increasing across epochs.

    The descent is that on the ``featurize`` features, which are
    ``M @ H``: ``H`` the r distinct token rows the n kept records use and
    ``M`` the records x rows averaging matrix (a token a record holds
    twice weighs 2/len). Which form an epoch works on is decided from
    these sizes. When ``r * (n + dim) < n * dim`` (records that share a
    vocabulary of fewer than ``dim`` rows), each epoch scores ``M``
    against the weights mapped into row space, ``W @ H.T``, and maps the
    gradient back with ``@ H``; ``M`` is then smaller than the features
    and an epoch costs fewer flops. The products are summed in another
    order than on the features, so the weights and ``loss_history`` may
    differ from theirs in the last bits. Otherwise (a natural-text
    vocabulary of thousands of distinct tokens) the epochs run on the
    materialized (n x dim) features.
    """
    resolved, kept = _resolve(space, train, language)
    if not kept:
        raise ValueError("no trainable record after coverage filtering")
    label_names = tuple(sorted({r.occupation for r in kept}))
    if len(label_names) < 2:
        raise ValueError(f"training needs at least 2 occupations, got {label_names}")
    label_ids = {name: i for i, name in enumerate(label_names)}
    y = np.array([label_ids[r.occupation] for r in kept])

    n, dim = len(kept), space.dim
    distinct, column = np.unique(np.concatenate(resolved), return_inverse=True)
    if len(distinct) * (n + dim) < n * dim:
        lengths = np.array([len(rows) for rows in resolved])
        token_rows = space.matrix[distinct]
        features = np.zeros((n, len(distinct)))
        np.add.at(features, (np.repeat(np.arange(n), lengths), column), 1.0)
        features /= lengths[:, None]
    else:
        token_rows, features = None, _mean_rows(space, resolved)

    def loss_and_grad(weights, bias):
        if token_rows is None:
            return cross_entropy_loss_and_grad(weights, bias, features, y)
        loss, d_scores, d_bias = cross_entropy_loss_and_grad(
            weights @ token_rows.T, bias, features, y
        )
        return loss, d_scores @ token_rows, d_bias

    rng = np.random.default_rng(config.seed)
    weights = 0.01 * rng.standard_normal((len(label_names), dim))
    bias = np.zeros(len(label_names))
    history = []
    for _ in range(config.epochs):
        loss, d_weights, d_bias = loss_and_grad(weights, bias)
        history.append(loss)
        weights = weights - config.learning_rate * d_weights
        bias = bias - config.learning_rate * d_bias
    history.append(loss_and_grad(weights, bias)[0])
    weights.setflags(write=False)
    bias.setflags(write=False)
    return Classifier(
        weights=weights,
        bias=bias,
        labels=label_names,
        space=space,
        config=config,
        language=language,
        loss_history=tuple(history),
    )


@dataclass(frozen=True)
class ExtrinsicResult:
    """Per-occupation accuracy gaps on a held-out set.

    ``per_occupation`` rows are (occupation, acc_male, acc_female, gap),
    sorted by occupation name. ``diff`` is the mean gap.
    """

    per_occupation: tuple[tuple[str, float, float, float], ...]
    diff: float
    male_acc: float
    female_acc: float

    def __post_init__(self):
        object.__setattr__(self, "per_occupation", tuple(self.per_occupation))
        gaps = [abs(m - f) for _, m, f, _ in self.per_occupation]
        if gaps and abs(self.diff - sum(gaps) / len(gaps)) > 1e-9:
            raise ValueError("diff must equal the mean per-occupation accuracy gap")
        for value in (self.male_acc, self.female_acc, *gaps):
            if not 0.0 <= value <= 1.0:
                raise ValueError("accuracies must lie in [0, 1]")

    def occupations(self) -> tuple[str, ...]:
        return tuple(row[0] for row in self.per_occupation)


def evaluate_gap(classifier: Classifier, test) -> ExtrinsicResult:
    """Score a test set; occupations missing a gender are excluded."""
    features, kept = featurize(classifier.space, test, classifier.language)
    if not kept:
        raise ValueError("no evaluable record after coverage filtering")
    known = set(classifier.labels)
    unseen = {r.occupation for r in kept} - known
    if unseen:
        log.warning(
            "evaluate_gap: excluding occupation(s) unseen in training: %s",
            ", ".join(sorted(unseen)),
        )
    preds = classifier.predict(features)
    totals: dict[tuple[str, str], int] = Counter()
    hits: dict[tuple[str, str], int] = Counter()
    for record, pred in zip(kept, preds):
        if record.occupation not in known:
            continue
        key = (record.occupation, record.gender)
        totals[key] += 1
        hits[key] += int(pred == record.occupation)

    per_occupation = []
    scored = []
    for occ in sorted({occ for occ, _ in totals}):
        if totals[(occ, "M")] == 0 or totals[(occ, "F")] == 0:
            log.warning("evaluate_gap: occupation %r lacks one gender in the test set", occ)
            continue
        acc_m = hits[(occ, "M")] / totals[(occ, "M")]
        acc_f = hits[(occ, "F")] / totals[(occ, "F")]
        per_occupation.append((occ, acc_m, acc_f, abs(acc_m - acc_f)))
        scored.append(occ)
    if not per_occupation:
        raise ValueError("no occupation has test records of both genders")
    scored_set = set(scored)
    m_hits = sum(hits[(o, "M")] for o in scored_set)
    m_total = sum(totals[(o, "M")] for o in scored_set)
    f_hits = sum(hits[(o, "F")] for o in scored_set)
    f_total = sum(totals[(o, "F")] for o in scored_set)
    return ExtrinsicResult(
        per_occupation=tuple(per_occupation),
        diff=float(np.mean([row[3] for row in per_occupation])),
        male_acc=m_hits / m_total,
        female_acc=f_hits / f_total,
    )


def compare_runs(before: ExtrinsicResult, after: ExtrinsicResult) -> float:
    """f_i: the fraction of occupations whose gap strictly shrank from ``before`` to ``after``."""
    if before.occupations() != after.occupations():
        raise ValueError(
            "occupation sets differ between runs: "
            f"{before.occupations()} vs {after.occupations()}"
        )
    reduced = sum(
        gap_a < gap_b  # ties do not count as reduced
        for (_, _, _, gap_b), (_, _, _, gap_a) in zip(before.per_occupation, after.per_occupation)
    )
    return reduced / len(before.per_occupation)


def format_gap_table(rows: list[tuple[str, ExtrinsicResult, float | None]]) -> str:
    """Aligned text table of (label, result, f_i) rows, accuracies in %."""
    header = ["emb", "M", "F", "|Diff|", "f_i"]
    body = []
    for label, result, f_i in rows:
        body.append([
            label,
            f"{100.0 * result.male_acc:.2f}",
            f"{100.0 * result.female_acc:.2f}",
            f"{100.0 * result.diff:.2f}",
            "-" if f_i is None else f"{f_i:.3f}",
        ])
    return format_table(header, body)
