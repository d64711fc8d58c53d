import logging

import numpy as np
import pytest

from debias_embed import extrinsic
from debias_embed.debias import DebiasConfig, debias_space
from debias_embed.embeddings import EmbeddingSpace, space_fingerprint
from debias_embed.extrinsic import (
    BioRecord,
    Classifier,
    ExtrinsicResult,
    compare_runs,
    cross_entropy_loss_and_grad,
    evaluate_gap,
    featurize,
    format_gap_table,
    load_corpus,
    split_corpus,
    train_classifier,
)
from debias_embed.subspace import BiasSubspace
from helpers import random_space
from oracles import central_difference_grad, newton_softmax, softmax_xent
from planted import bios, graded_bios, marker_world


def write_corpus(path, rows):
    path.write_text("".join(f"{g}\t{o}\t{t}\n" for g, o, t in rows), encoding="utf-8")
    return str(path)


def small_setup(seed=0):
    words, rows, basis = marker_world(seed, dim=60, k=2, n_plain=80)
    space = EmbeddingSpace("xx", words, rows, normalized=True)
    return space, BiasSubspace(basis, "pca", (2.0, 1.0))


# --- corpus I/O ---


def test_load_corpus_parses_records(tmp_path):
    p = write_corpus(
        tmp_path / "c.tsv",
        [("M", "professor", "teaches at university")] * 3 + [("F", "professor", "runs a lab")] * 3,
    )
    records = load_corpus(p, min_count=2)
    assert len(records) == 6
    assert records[0] == BioRecord("M", "professor", ("teaches", "at", "university"))


def test_load_corpus_rejects_unknown_gender(tmp_path):
    p = write_corpus(tmp_path / "c.tsv", [("X", "professor", "text here")])
    with pytest.raises(ValueError, match="line 1: gender must be 'M' or 'F', got 'X'"):
        load_corpus(p, min_count=1)


def test_load_corpus_rejects_empty_text(tmp_path):
    p = (tmp_path / "c.tsv")
    p.write_text("M\tprofessor\t\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1: record has no tokens"):
        load_corpus(str(p), min_count=1)


def test_load_corpus_rejects_empty_occupation(tmp_path):
    p = (tmp_path / "c.tsv")
    p.write_text("M\t\ttext here\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1: empty occupation"):
        load_corpus(str(p), min_count=1)


def test_load_corpus_drops_rare_occupations_with_warning(tmp_path, caplog):
    rows = [("M", "common", "a b")] * 5 + [("F", "common", "a b")] * 5 + [("M", "rare", "a b")]
    p = write_corpus(tmp_path / "c.tsv", rows)
    with caplog.at_level(logging.WARNING, logger="debias_embed"):
        records = load_corpus(p, min_count=5)
    assert {r.occupation for r in records} == {"common"}
    assert any("rare" in m for m in caplog.messages)


# --- synthesis ---


def test_synthesize_is_deterministic():
    space, sub = small_setup()
    a, b, c = (bios(space.vocab, space.matrix, sub.basis, n_occupations=3, n_records=120,
                    bias_strength=0.7, seed=seed) for seed in (3, 3, 4))
    assert a == b
    assert a != c


def test_synthesize_balanced_when_bias_strength_zero():
    space, sub = small_setup()
    records = bios(space.vocab, space.matrix, sub.basis, n_occupations=2, n_records=400,
                   bias_strength=0.0, seed=0)
    for occ in {r.occupation for r in records}:
        genders = [r.gender for r in records if r.occupation == occ]
        assert abs(genders.count("M") - genders.count("F")) <= 1


def test_synthesize_rejects_tiny_vocab():
    space = random_space(0, 8, 12)
    basis = np.zeros((2, 12))
    basis[0, 0] = basis[1, 1] = 1.0
    with pytest.raises(ValueError):
        bios(space.vocab, space.matrix, basis, n_occupations=5, n_records=50, bias_strength=1.0,
             seed=0)


# --- training ---


def test_training_reaches_perfect_accuracy_on_separable_data():
    space, sub = small_setup()
    records = bios(space.vocab, space.matrix, sub.basis, n_occupations=2, n_records=200,
                   bias_strength=0.0, seed=1)
    clf = train_classifier(space, records)
    assert clf.fit.converged
    features, kept = featurize(space, records)
    predictions = clf.predict(features)
    assert all(p == r.occupation for p, r in zip(predictions, kept))


def test_the_objective_never_rises_across_iterations():
    space, sub = small_setup()
    records = graded_bios(space.vocab, space.matrix, sub.basis, n_records=150, skew=0.3, seed=2)
    clf = train_classifier(space, records)
    history = clf.objective_history
    assert clf.fit.converged
    assert len(history) == clf.fit.iterations + 1
    assert clf.fit.evaluations >= clf.fit.iterations + 1  # line-search trials count too
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert history[0] == pytest.approx(np.log(4), abs=1e-12)  # zero weights: uniform scores


def test_training_needs_two_classes():
    space, _ = small_setup()
    records = [BioRecord("M", "only", ("w000", "w001"))] * 10
    with pytest.raises(ValueError):
        train_classifier(space, records)


def test_training_reruns_bitwise_and_freezes_embeddings():
    space, sub = small_setup()
    records = graded_bios(space.vocab, space.matrix, sub.basis, n_records=100, skew=0.2, seed=5)
    before = space_fingerprint(space)
    a = train_classifier(space, records)
    b = train_classifier(space, records)
    assert space_fingerprint(space) == before
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.bias.tobytes() == b.bias.tobytes()
    assert a.fit == b.fit
    assert a.objective_history == b.objective_history


def test_a_fit_that_hits_the_iteration_cap_warns_and_says_so(caplog, monkeypatch):
    space, sub = small_setup()
    records = graded_bios(space.vocab, space.matrix, sub.basis, n_records=100, skew=0.2, seed=5)
    monkeypatch.setattr(extrinsic, "FIT_MAX_ITER", 3)
    with caplog.at_level(logging.WARNING, logger="debias_embed"):
        clf = train_classifier(space, records)
    assert clf.fit.iterations == 3 and not clf.fit.converged
    assert clf.fit.grad_norm > extrinsic.FIT_GRAD_TOL
    assert caplog.messages == [
        f"train_classifier: stopped after 3 iteration(s) with gradient norm "
        f"{clf.fit.grad_norm:.3g}, above the tolerance 1e-06"]


def test_low_coverage_records_dropped_with_warning(caplog):
    space, _ = small_setup()
    records = [
        BioRecord("M", "a", ("w000", "w001")),
        BioRecord("F", "a", ("w000", "w002")),
        BioRecord("M", "b", ("w003", "zzz", "qqq", "xxx")),  # 25% coverage
        BioRecord("F", "b", ("w004", "w005")),
    ]
    with caplog.at_level(logging.WARNING, logger="debias_embed"):
        features, kept = featurize(space, records)
    assert len(kept) == 3
    assert features.shape == (3, space.dim)
    assert any("coverage" in m for m in caplog.messages)


@pytest.mark.parametrize("n_records, spread, factored", [
    (600, False, True),  # 600 records share ~40 distinct rows of 60 dims
    (120, True, False),  # the 92-word vocabulary: more distinct rows than dims
], ids=["shared-rows", "more-rows-than-dims"])
def test_training_reaches_the_newton_optimum(caplog, monkeypatch, n_records, spread, factored):
    space, sub = small_setup()
    records = bios(space.vocab, space.matrix, sub.basis, n_occupations=3, n_records=n_records,
                   bias_strength=0.6, seed=3)
    # out-of-vocabulary tokens vary the token count per record, one record
    # holds a token twice, and one falls below the coverage floor
    records = [BioRecord(r.gender, r.occupation,
                         r.tokens + ("oov",) * (i % 4) + (space.vocab[i % len(space)],) * spread)
               for i, r in enumerate(records)]
    records[0] = BioRecord(records[0].gender, records[0].occupation, ("w001", "w001", "w002"))
    records.append(BioRecord("F", "occ01", ("w005", "zzz", "qqq")))
    widths = []

    def spy(weights, bias, features, labels):
        widths.append(features.shape[1])
        return cross_entropy_loss_and_grad(weights, bias, features, labels)

    monkeypatch.setattr(extrinsic, "cross_entropy_loss_and_grad", spy)
    with caplog.at_level(logging.WARNING, logger="debias_embed"):
        clf = train_classifier(space, records)
    assert [m for m in caplog.messages if "coverage" in m] == [
        f"featurize: dropped 1/{n_records + 1} record(s) with token coverage below 50%"
    ]
    assert clf.fit.converged and len(widths) == clf.fit.evaluations
    assert all(w < space.dim for w in widths) if factored else set(widths) == {space.dim}
    features, kept = featurize(space, records)
    labels = np.array([clf.labels.index(r.occupation) for r in kept])
    weights, bias = newton_softmax(features, labels, len(clf.labels), extrinsic.L2_PENALTY)
    # a gradient within 1e-6 leaves the fit within about 1e-6 / 1e-3 per
    # component of the optimum, at the penalty's curvature (observed: 4e-4)
    np.testing.assert_allclose(clf.weights, weights, rtol=0, atol=1e-3)
    np.testing.assert_allclose(clf.bias, bias, rtol=0, atol=1e-3)
    reached = Classifier(weights, bias, clf.labels, space, None, clf.fit)
    assert clf.predict(features) == reached.predict(features)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(0)
    features = rng.standard_normal((3, 4))
    labels = np.array([0, 1, 0])
    onehot = np.zeros((3, 2))
    onehot[np.arange(3), labels] = 1.0
    weights = rng.standard_normal((2, 4)) * 0.3
    bias = rng.standard_normal(2) * 0.1

    loss, grad_w, grad_b = cross_entropy_loss_and_grad(weights, bias, features, labels)
    assert loss == pytest.approx(softmax_xent(weights, bias, features, onehot), abs=1e-12)

    flat = np.concatenate([weights.ravel(), bias])

    def unflatten(v):
        return v[:8].reshape(2, 4), v[8:]

    def f(v):
        w, b = unflatten(v)
        return cross_entropy_loss_and_grad(w, b, features, labels)[0]

    numeric = central_difference_grad(f, flat, h=1e-5)
    analytic = np.concatenate([grad_w.ravel(), grad_b])
    rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
    assert rel < 1e-6


# --- evaluation ---


def test_split_corpus_stratified():
    space, sub = small_setup()
    records = bios(space.vocab, space.matrix, sub.basis, n_occupations=2, n_records=200,
                   bias_strength=0.5, seed=6)
    train, test = split_corpus(records, test_fraction=0.2, seed=0)
    assert len(train) + len(test) == len(records)
    for occ in {r.occupation for r in records}:
        for gender in "MF":
            stratum = [r for r in records if r.occupation == occ and r.gender == gender]
            got = [r for r in test if r.occupation == occ and r.gender == gender]
            expected = min(max(1, round(0.2 * len(stratum))), len(stratum) - 1)
            assert len(got) == expected


def test_evaluate_gap_perfect_classifier_has_zero_diff():
    space, sub = small_setup()
    records = bios(space.vocab, space.matrix, sub.basis, n_occupations=2, n_records=300,
                   bias_strength=0.0, seed=8)
    train, test = split_corpus(records, seed=0)
    clf = train_classifier(space, train)
    result = evaluate_gap(clf, test)
    assert result.diff == pytest.approx(0.0, abs=1e-12)
    assert result.male_acc == 1.0 and result.female_acc == 1.0


def test_planted_imbalance_golden_gap():
    # frozen after the first verified run of this exact configuration
    space, sub = small_setup(seed=0)
    records = graded_bios(space.vocab, space.matrix, sub.basis, n_records=400, skew=0.4, seed=0)
    train, test = split_corpus(records, seed=0)
    result = evaluate_gap(train_classifier(space, train), test)
    assert result.diff > 0.0
    assert result.diff == pytest.approx(0.625, abs=1e-9)


def test_balanced_corpus_has_no_gap_golden():
    space, sub = small_setup(seed=0)
    records = bios(space.vocab, space.matrix, sub.basis, n_occupations=2, n_records=400,
                   bias_strength=0.0, seed=0)
    train, test = split_corpus(records, seed=0)
    assert evaluate_gap(train_classifier(space, train), test).diff == pytest.approx(0.0, abs=1e-9)


def test_graded_plant_gap_rises_with_the_skew_and_debiasing_removes_it(monkeypatch):
    # the planted basis is removed; 2000 bios a world, 400 of them test bios
    skews = (0.0, 0.1, 0.2, 0.3, 0.4)
    before, after = np.zeros((5, len(skews))), np.zeros((5, len(skews)))
    for seed in range(5):
        words, rows, basis = marker_world(seed, dim=300, k=4, n_plain=200)
        space = EmbeddingSpace("xx", words, rows, normalized=True)
        debiased = debias_space(space, BiasSubspace(basis, "pca", (4.0, 3.0, 2.0, 1.0)),
                                DebiasConfig(k=4))
        for j, skew in enumerate(skews):
            train, test = split_corpus(graded_bios(words, rows, basis, 2000, skew, seed),
                                       seed=seed)
            classifiers = [train_classifier(space, train), train_classifier(debiased, train)]
            before[seed, j], after[seed, j] = (evaluate_gap(c, test).diff for c in classifiers)
            if skew == 0.3:  # the same predictions at 1/100 of the tolerance
                with monkeypatch.context() as m:
                    m.setattr(extrinsic, "FIT_GRAD_TOL", extrinsic.FIT_GRAD_TOL / 100)
                    for clf in classifiers:
                        tighter = train_classifier(clf.space, train)
                        features, _ = featurize(clf.space, test)
                        assert tighter.fit.converged
                        assert tighter.fit.iterations > clf.fit.iterations
                        assert tighter.predict(features) == clf.predict(features)
    # at skew 0 and 0.1 the seed means, 0.017 and 0.014, lie within the
    # spread of the skew-0 gaps themselves (0.010 to 0.025)
    assert np.all(np.diff(before.mean(axis=0)[1:]) > 0)
    assert np.all(before[:, -1] > before[:, 0])
    assert after.max() < 0.15

def result_with_gaps(gaps):
    per = [(f"occ{i:02d}", 0.8, 0.8 - g, abs(g)) for i, g in enumerate(gaps)]
    diff = float(np.mean([abs(g) for g in gaps]))
    return ExtrinsicResult(per, diff, 0.8, 0.7)


def test_compare_runs_fraction_examples():
    before = result_with_gaps([0.2, 0.3, 0.1])
    all_better = result_with_gaps([0.1, 0.2, 0.05])
    assert compare_runs(before, all_better) == 1.0
    unchanged = result_with_gaps([0.2, 0.3, 0.1])
    assert compare_runs(before, unchanged) == 0.0  # ties are not reductions


def test_compare_runs_eleven_of_seventeen():
    before = result_with_gaps([0.2] * 17)
    after_gaps = [0.1] * 11 + [0.25] * 6
    after = result_with_gaps(after_gaps)
    f_i = compare_runs(before, after)
    assert f_i == pytest.approx(11 / 17)
    assert f"{f_i:.3f}" == "0.647"


def test_compare_runs_occupation_mismatch():
    before = result_with_gaps([0.2, 0.3])
    after = ExtrinsicResult([("other", 0.8, 0.7, 0.1)], 0.1, 0.8, 0.7)
    with pytest.raises(ValueError):
        compare_runs(before, after)


def test_gap_table_layout():
    rows = [("orig", result_with_gaps([0.2, 0.1]), None),
            ("debiased", result_with_gaps([0.1, 0.05]), 1.0)]
    table = format_gap_table(rows)
    lines = table.strip().splitlines()
    assert lines[0].split() == ["emb", "M", "F", "|Diff|", "f_i"]
    assert lines[1].split()[0] == "orig"
    assert lines[1].split()[-1] == "-"
    assert lines[2].split()[-1] == "1.000"


def test_extrinsic_result_validates_diff():
    with pytest.raises(ValueError):
        ExtrinsicResult([("a", 0.8, 0.6, 0.2)], diff=0.9, male_acc=0.8, female_acc=0.6)
