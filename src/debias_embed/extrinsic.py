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
from dataclasses import dataclass, field
from collections import Counter, defaultdict

import numpy as np

from .embeddings import EmbeddingSpace, decode_line
from .intrinsic import format_table
from .subspace import BiasSubspace

log = logging.getLogger(__name__)

__all__ = [
    "BioRecord",
    "TrainConfig",
    "SynthesisConfig",
    "Classifier",
    "ExtrinsicResult",
    "GapComparison",
    "load_corpus",
    "synthesize_corpus",
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

# planted-correlation corpus: indicator words per occupation, marker words per
# gender, indicator and marker tokens drawn per record, and the largest skew of
# an occupation's male share away from 0.5
INDICATORS_PER_OCCUPATION = 8
MARKERS_PER_GENDER = 6
INDICATOR_TOKENS = 8
GENDERED_TOKENS = 4
MAX_SKEW = 0.4


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

    Unknown gender tokens, empty bio texts and undecodable UTF-8 raise
    ValueError with the line number. Dropped occupations are logged.
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
            if gender not in GENDERS:
                raise ValueError(
                    f"{path}: line {lineno}: unknown gender token {gender!r}"
                )
            tokens = tuple(text.split())
            if not tokens:
                raise ValueError(f"{path}: line {lineno}: empty bio text")
            if not occupation:
                raise ValueError(f"{path}: line {lineno}: empty occupation")
            records.append(BioRecord(gender, occupation, tokens))
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


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs for the planted-correlation corpus generator.

    ``bias_strength`` in [0, 1] sets how strongly author gender (and so
    the gendered marker words each record carries) co-occurs with the
    occupation label: occupation i leans male for even i and female for
    odd i, with the male share at 0.5 + MAX_SKEW * bias_strength * (+-1).
    Marker words are the vocabulary entries with the most positive /
    most negative projection on the first direction of ``subspace``;
    occupation-indicator words are picked from the least gender-loaded
    part of the vocabulary.
    """

    n_occupations: int
    n_records: int
    bias_strength: float
    subspace: BiasSubspace

    def __post_init__(self):
        if self.n_occupations < 2:
            raise ValueError("need at least 2 occupations")
        if self.n_records < self.n_occupations:
            raise ValueError("need at least one record per occupation")
        if not 0.0 <= self.bias_strength <= 1.0:
            raise ValueError("bias_strength must lie in [0, 1]")


def synthesize_corpus(
    space: EmbeddingSpace, config: SynthesisConfig, seed: int = 0
) -> list[BioRecord]:
    """Deterministically generate bios with a planted gender-occupation link."""
    need = config.n_occupations * INDICATORS_PER_OCCUPATION + 2 * MARKERS_PER_GENDER
    if len(space) < need:
        raise ValueError(
            f"vocabulary too small: {len(space)} words, {need} needed for this config"
        )
    b1 = config.subspace.basis[0]
    proj = space.matrix @ b1
    order = np.argsort(proj, kind="stable")
    m = MARKERS_PER_GENDER
    female_markers = [space.vocab[i] for i in order[:m]]
    male_markers = [space.vocab[i] for i in order[-m:]]
    marker_rows = set(order[:m]) | set(order[-m:])

    loading = np.linalg.norm(space.matrix @ config.subspace.basis.T, axis=1)
    neutral_order = [
        i for i in np.argsort(loading, kind="stable") if i not in marker_rows
    ]
    per = INDICATORS_PER_OCCUPATION
    indicator_sets = []
    for occ in range(config.n_occupations):
        rows = neutral_order[occ * per : (occ + 1) * per]
        indicator_sets.append([space.vocab[i] for i in rows])

    rng = np.random.default_rng(seed)
    base, extra = divmod(config.n_records, config.n_occupations)
    records: list[BioRecord] = []
    for occ in range(config.n_occupations):
        name = f"occ{occ:02d}"
        count = base + (1 if occ < extra else 0)
        polarity = 1.0 if occ % 2 == 0 else -1.0
        male_share = 0.5 + MAX_SKEW * config.bias_strength * polarity
        n_male = int(round(count * male_share))
        n_male = min(max(n_male, 0), count)
        genders = np.array(["M"] * n_male + ["F"] * (count - n_male))
        rng.shuffle(genders)
        indicators = indicator_sets[occ]
        for g in genders:
            ind = rng.choice(indicators, size=INDICATOR_TOKENS, replace=True)
            markers = male_markers if g == "M" else female_markers
            gen = rng.choice(markers, size=GENDERED_TOKENS, replace=True)
            records.append(BioRecord(str(g), name, tuple(ind) + tuple(gen)))
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
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
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
        rows = [space.locate(t, language) for t in record.tokens]
        rows = [i for i in rows if i is not None]
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
    seed: int

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
        seed=classifier.config.seed,
    )


@dataclass(frozen=True)
class GapComparison:
    """Occupation-level view of how gaps moved between two runs.

    ``f_i`` is the fraction of occupations whose gap strictly shrank;
    ``per_occupation_delta`` rows are (occupation, gap_before, gap_after).
    """

    f_i: float
    per_occupation_delta: tuple[tuple[str, float, float], ...]


def compare_runs(before: ExtrinsicResult, after: ExtrinsicResult) -> GapComparison:
    if before.occupations() != after.occupations():
        raise ValueError(
            "occupation sets differ between runs: "
            f"{before.occupations()} vs {after.occupations()}"
        )
    deltas = []
    reduced = 0
    for (occ, _, _, gap_b), (_, _, _, gap_a) in zip(
        before.per_occupation, after.per_occupation
    ):
        deltas.append((occ, gap_b, gap_a))
        if gap_a < gap_b:  # ties do not count as reduced
            reduced += 1
    return GapComparison(
        f_i=reduced / len(deltas), per_occupation_delta=tuple(deltas)
    )


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
