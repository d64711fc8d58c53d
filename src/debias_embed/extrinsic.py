"""Extrinsic bias harness: occupation classification from short bios.

A multinomial linear classifier (a softmax head) is trained on
mean-of-token-vector features, embeddings frozen. It minimizes the mean
softmax cross-entropy plus ``(L2_PENALTY / 2) * ||W||^2`` on the weights
``W`` (the bias is not penalized), starting from zero. The objective is
strictly convex along every direction but a shift common to all biases,
which changes no prediction; its gradient in the bias sums to zero, so
the biases keep summing to zero and the optimum reached is unique. The
fit is a deterministic L-BFGS (Nocedal & Wright 2006, "Numerical
Optimization", ch. 7): the two-loop recursion over the last
``FIT_MEMORY`` curvature pairs, scaled by ``s.y / y.y``, and an Armijo
backtracking search from step 1. It stops once no component of the
gradient exceeds ``FIT_GRAD_TOL``, or after ``FIT_MAX_ITER`` iterations,
when it warns and records the fit as not converged. The penalty gives
the objective a minimum even on bios that the words separate, where the
cross-entropy alone has none, so no number depends on a seed or on an
iteration budget.

The features are ``M @ H``, the records x rows averaging matrix ``M``
times the distinct token rows ``H`` the records use. When the records
share few enough distinct rows that products with the two factors cost
fewer flops than products with the features (``r * (n + dim) < n * dim``
for n records and r rows, so r < dim), each evaluation works on the
factors and never materializes the features (see ``train_classifier``).
That path is kept for memory: on the benchmark's ``align_report_5k``
bios (3840 training bios over 180 distinct rows of 300 dims),
materializing the features takes the ``report --exbias`` process's peak
RSS from 51.4 MB to 54.9 MB. Each datum is held once: the records share
one string per distinct token, the kept records' token rows are one flat
array, and each record's mean is written into one preallocated records x
dim array.

Bias is summarized as the mean absolute gap between per-occupation
accuracies for male- and female-authored records, and a comparison of two
runs reports the fraction of occupations whose gap strictly shrank.

The corpus format is TSV: ``gender<TAB>occupation<TAB>token token ...``
with gender ``M`` or ``F``.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass, field
from collections import Counter, defaultdict
from string import whitespace

import numpy as np

from .embeddings import EmbeddingSpace, decode_line, split_words
from .intrinsic import format_table

log = logging.getLogger(__name__)

__all__ = [
    "BioRecord",
    "Fit",
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

#: the classifier minimizes mean cross-entropy + (L2_PENALTY / 2) * ||W||^2
L2_PENALTY = 1e-3
#: the fit converges once no component of the objective's gradient exceeds this
FIT_GRAD_TOL = 1e-6
#: the fit stops unconverged after this many iterations
FIT_MAX_ITER = 1000
#: L-BFGS curvature pairs kept
FIT_MEMORY = 10


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

    The text is split into tokens at ASCII whitespace, as ``.vec`` words
    are (:func:`~.embeddings.split_words`), and the records share one
    string per distinct token. A line of ASCII whitespace only is blank, and
    skipped, by the same rule. A line that is not three tab-separated
    fields, a record that :class:`BioRecord` refuses and undecodable UTF-8
    raise ValueError with the line number. Dropped occupations are logged.
    """
    records: list[BioRecord] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = decode_line(raw, path, lineno).rstrip("\n").rstrip("\r")
            if not line.strip(whitespace):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(
                    f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            gender, occupation, text = fields
            try:
                tokens = tuple(map(sys.intern, split_words(text)))
                records.append(BioRecord(gender, occupation, tokens))
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


def _resolve(space: EmbeddingSpace, records, language, step):
    """The matrix rows of the records' in-vocabulary tokens; returns
    (rows, lengths, kept).

    ``rows`` is one flat intp array: the ``lengths[0]`` rows of ``kept[0]``,
    then those of ``kept[1]`` and so on, one row per in-vocabulary token, a
    repeated token once per occurrence. Records with in-vocabulary token
    coverage below ``MIN_COVERAGE`` (or with no resolvable token at all)
    are dropped with one warning, in the name of ``step``.
    """
    resolved, lengths, kept, dropped = [], [], [], 0
    for record in records:
        rows = space.locate_all(record.tokens, language)[0]
        coverage = len(rows) / len(record.tokens)
        if not rows or coverage < MIN_COVERAGE:
            dropped += 1
            continue
        resolved += rows
        lengths.append(len(rows))
        kept.append(record)
    if dropped:
        log.warning(
            "%s: dropped %d/%d record(s) with token coverage below %.0f%%",
            step,
            dropped,
            dropped + len(kept),
            100.0 * MIN_COVERAGE,
        )
    return np.array(resolved, dtype=np.intp), np.array(lengths, dtype=np.intp), kept


def featurize(space: EmbeddingSpace, records, language: str | None = None):
    """Mean-of-token-vector features; returns (features, kept_records).

    Records with in-vocabulary token coverage below ``MIN_COVERAGE`` (or
    with no resolvable token at all) are dropped with a warning.
    """
    rows, lengths, kept = _resolve(space, records, language, "featurize")
    return _mean_rows(space, rows, lengths), kept


def _mean_rows(space: EmbeddingSpace, rows, lengths):
    """The (records x dim) means of each record's rows, as :func:`_resolve`
    returns them, written into one preallocated array."""
    features = np.empty((len(lengths), space.dim))
    stops = np.cumsum(lengths)
    for i, (start, stop) in enumerate(zip(stops - lengths, stops)):
        features[i] = space.matrix[rows[start:stop]].mean(axis=0)
    return features


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
class Fit:
    """How a classifier fit ended: its L-BFGS iterations, its objective
    evaluations (line-search trials included), the largest absolute
    component of its final gradient, and whether that is at most
    ``FIT_GRAD_TOL``."""

    iterations: int
    evaluations: int
    grad_norm: float
    converged: bool


@dataclass(frozen=True)
class Classifier:
    weights: np.ndarray
    bias: np.ndarray
    labels: tuple[str, ...]
    space: EmbeddingSpace
    language: str | None
    fit: Fit
    #: the objective at the start and after each iteration
    objective_history: tuple[float, ...] = field(repr=False, default=())

    def predict(self, features: np.ndarray) -> tuple[str, ...]:
        """Predicted occupation labels; score ties resolve to the earlier label."""
        indices = np.argmax(features @ self.weights.T + self.bias, axis=1)
        return tuple(self.labels[i] for i in indices)


def _minimize(objective, x):
    """L-BFGS on ``objective(x) -> (value, gradient)`` from ``x``.

    Returns (the last iterate, its ``Fit``, the objective at the start and
    after each iteration). Each step is accepted by the Armijo test with
    c = 1e-4, halving from step 1; a search that finds no step passing it
    in 60 halvings ends the fit, unconverged. A curvature pair with ``s.y <= 0``
    is not kept, so the direction is one of descent.
    """
    value, grad = objective(x)
    history, pairs, evaluations = [value], [], 1
    while np.abs(grad).max() > FIT_GRAD_TOL and len(history) <= FIT_MAX_ITER:
        direction = -grad
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ direction))
            direction -= alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            direction *= (s @ y) / (y @ y)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            direction += (alpha - rho * (y @ direction)) * s
        slope, step = grad @ direction, 1.0
        for _ in range(60):
            trial = x + step * direction
            trial_value, trial_grad = objective(trial)
            evaluations += 1
            if trial_value <= value + 1e-4 * step * slope:
                break
            step /= 2
        else:
            break
        s, y = trial - x, trial_grad - grad
        if s @ y > 0:
            pairs.append((s, y, 1.0 / (s @ y)))
            del pairs[:-FIT_MEMORY]
        x, value, grad = trial, trial_value, trial_grad
        history.append(value)
    grad_norm = float(np.abs(grad).max())
    fit = Fit(len(history) - 1, evaluations, grad_norm, grad_norm <= FIT_GRAD_TOL)
    return x, fit, tuple(history)


def train_classifier(
    space: EmbeddingSpace,
    train,
    language: str | None = None,
) -> Classifier:
    """The softmax head that minimizes the L2-regularized cross-entropy on
    the ``featurize`` features of ``train``, fitted by L-BFGS from zero.

    The embedding stays frozen; only the linear head is learned. A fit
    that stops before its gradient is within ``FIT_GRAD_TOL`` warns, and
    its ``fit.converged`` is false.

    The features are ``M @ H``: ``H`` the r distinct token rows the n
    kept records use and ``M`` the records x rows averaging matrix (a
    token a record holds twice weighs 2/len). Which form an evaluation
    works on is decided from these sizes. When ``r * (n + dim) < n * dim``
    (records that share a vocabulary of fewer than ``dim`` rows), it
    scores ``M`` against the weights mapped into row space, ``W @ H.T``,
    and maps the gradient back with ``@ H``; ``M`` is then smaller than
    the features and an evaluation costs fewer flops and less memory.
    Otherwise (a natural-text vocabulary of thousands of distinct tokens)
    it works on the materialized (n x dim) features. Either way the fit
    reaches the one optimum to within the tolerance.
    """
    rows, lengths, kept = _resolve(space, train, language, "train_classifier")
    if not kept:
        raise ValueError("no trainable record after coverage filtering")
    label_names = tuple(sorted({r.occupation for r in kept}))
    if len(label_names) < 2:
        raise ValueError(f"training needs at least 2 occupations, got {label_names}")
    label_ids = {name: i for i, name in enumerate(label_names)}
    y = np.array([label_ids[r.occupation] for r in kept])

    n, dim = len(kept), space.dim
    distinct, column = np.unique(rows, return_inverse=True)
    if len(distinct) * (n + dim) < n * dim:
        token_rows = space.matrix[distinct]
        features = np.zeros((n, len(distinct)))
        np.add.at(features, (np.repeat(np.arange(n), lengths), column), 1.0)
        features /= lengths[:, None]
    else:
        token_rows, features = None, _mean_rows(space, rows, lengths)

    def loss_and_grad(weights, bias):
        if token_rows is None:
            return cross_entropy_loss_and_grad(weights, bias, features, y)
        loss, d_scores, d_bias = cross_entropy_loss_and_grad(
            weights @ token_rows.T, bias, features, y
        )
        return loss, d_scores @ token_rows, d_bias

    shape = (len(label_names), dim)
    split = shape[0] * dim

    def objective(x):
        weights = x[:split].reshape(shape)
        loss, d_weights, d_bias = loss_and_grad(weights, x[split:])
        value = loss + 0.5 * L2_PENALTY * float(x[:split] @ x[:split])
        return value, np.concatenate([(d_weights + L2_PENALTY * weights).ravel(), d_bias])

    x, fit, history = _minimize(objective, np.zeros(split + shape[0]))
    if not fit.converged:
        log.warning(
            "train_classifier: stopped after %d iteration(s) with gradient norm %.3g, "
            "above the tolerance %g",
            fit.iterations, fit.grad_norm, FIT_GRAD_TOL,
        )
    weights, bias = x[:split].reshape(shape), x[split:]
    weights.setflags(write=False)
    bias.setflags(write=False)
    return Classifier(
        weights=weights,
        bias=bias,
        labels=label_names,
        space=space,
        language=language,
        fit=fit,
        objective_history=history,
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
