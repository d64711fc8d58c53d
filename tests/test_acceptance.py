"""Acceptance gate: one test and one printed verdict line per criterion."""

import json
import os
import time

import numpy as np
import pytest

from conftest import record_verdict
from debias_embed.cli import main as cli_main
from debias_embed.debias import DebiasConfig, debias_space
from debias_embed.embeddings import EmbeddingSpace, save_vec
from debias_embed.intrinsic import cross_score_matrix, inbias
from debias_embed.lexicon import (
    GenderLexicon,
    GenderPair,
    NeutralWords,
    SeedSets,
    builtin_lexicon,
)
from debias_embed.subspace import BiasSubspace, DifferenceMatrix, pca_basis, ppa_basis
from debias_embed import extrinsic as ex
from debias_embed.align import BilingualDictionary, procrustes_fit
from helpers import load_script, orthonormal_rows, unit_rows
from oracles import grid_best_direction_2d, central_difference_grad, principal_angle_sines
from planted import bios, marker_world


def check(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    record_verdict(f"[ACCEPTANCE] {number:02d} {name}: {status}{suffix}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_01_projection_zeroing_speed_and_tolerance():
    rng = np.random.default_rng(0)
    words = tuple(f"w{i:05d}" for i in range(5000))
    space = EmbeddingSpace("en", words, unit_rows(rng, 5000, 300), normalized=True)
    basis = BiasSubspace(orthonormal_rows(rng, 4, 300), "pca", (4.0, 3.0, 2.0, 1.0))
    start = time.perf_counter()
    out = debias_space(space, basis, DebiasConfig(k=4))
    elapsed = time.perf_counter() - start
    worst = float(np.abs(out.matrix @ basis.basis.T).max())
    check(
        1,
        "projection zeroing (5000x300, k=4)",
        worst < 1e-6 and elapsed < 5.0,
        f"max residual projection {worst:.2e}, {elapsed:.2f}s",
    )


def test_02_cross_score_diagonal_exactly_one():
    lex = builtin_lexicon()
    tags = list(lex.languages())
    rng = np.random.default_rng(1)
    vocab = tuple(f"{t}:{w}" for t in tags for w in lex.words(t))
    space = EmbeddingSpace("+".join(tags), vocab, unit_rows(rng, len(vocab), 50),
                           normalized=True)
    matrix = cross_score_matrix(space, lex, tags)
    worst = float(np.abs(np.diag(matrix.values) - 1.0).max())
    check(2, "cross-language score diagonal", worst < 1e-9,
          f"max |diagonal - 1| = {worst:.2e} over {len(tags)} languages")


def test_03_pca_matches_brute_force_eigensolver():
    rng = np.random.default_rng(2)
    accepted = 0
    worst = 0.0
    while accepted < 200:
        n = int(rng.integers(2, 11))
        d = int(rng.integers(2, 11))
        data = rng.standard_normal((n, d))
        s = np.linalg.svd(data, compute_uv=False)
        k = int(rng.integers(1, min(n, d) + 1))
        if s[k - 1] < 1e-3:  # too close to rank deficiency
            continue
        if k < len(s) and s[k - 1] - s[k] < 1e-3:  # subspace not well defined
            continue
        accepted += 1
        mine = pca_basis(DifferenceMatrix(data, ("en",) * n), k=k)
        gram = data.T @ data
        eigvals, eigvecs = np.linalg.eigh(gram)
        oracle = eigvecs[:, np.argsort(eigvals)[::-1][:k]].T
        worst = max(worst, float(principal_angle_sines(mine.basis, oracle).max()))
    check(3, "top-k subspace matches eigensolver oracle", worst < 1e-8,
          f"largest principal-angle sine {worst:.2e} over 200 matrices")


def test_04_kurtosis_ascent_beats_grid_oracle():
    worst_shortfall = -np.inf
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(12, 40))
        rows = rng.standard_t(df=3, size=(n, 2))
        rows[rng.integers(0, n)] *= rng.uniform(4, 9)
        rows[np.linalg.norm(rows, axis=1) < 1e-12] = [1e-6, 0.0]
        grid_val, _ = grid_best_direction_2d(rows, 10_000)
        sub = ppa_basis(DifferenceMatrix(rows, ("en",) * n), k=1, seed=0)
        worst_shortfall = max(worst_shortfall, grid_val - sub.scores[0])
    check(4, "kurtosis ascent vs 10k-direction grid", worst_shortfall < 1e-6,
          f"worst shortfall {worst_shortfall:.2e} over 50 instances")


def test_05_orthogonal_map_recovery():
    rng = np.random.default_rng(3)
    worst_recovery = 0.0
    worst_orthogonality = 0.0
    for trial in range(100):
        d = int(rng.integers(2, 11))
        n = 2 * d + int(rng.integers(0, 5))
        w_true = np.linalg.qr(rng.standard_normal((d, d)))[0]
        x = unit_rows(rng, n, d)
        if trial % 10 == 9:  # every tenth trial: rank-deficient source data
            x = np.repeat(x[:1], n, axis=0)
        y = x @ w_true.T
        words = tuple(f"w{i}" for i in range(n))
        src = EmbeddingSpace("en", words, x, normalized=True)
        tgt = EmbeddingSpace("hi", words, y, normalized=True)
        mapping = procrustes_fit(
            src, tgt, BilingualDictionary("en", "hi", tuple((w, w) for w in words))
        )
        gram_err = float(
            np.abs(mapping.matrix.T @ mapping.matrix - np.eye(d)).max()
        )
        worst_orthogonality = max(worst_orthogonality, gram_err)
        if trial % 10 != 9:  # recovery is only defined for full-rank data
            worst_recovery = max(
                worst_recovery, float(np.linalg.norm(mapping.matrix - w_true))
            )
    check(5, "rotation recovery and orthogonality",
          worst_recovery < 1e-6 and worst_orthogonality < 1e-6,
          f"worst recovery error {worst_recovery:.2e}, worst Gram error {worst_orthogonality:.2e}")


def planted_distance_setup(seed, d=300, n_seeds=8, n_occ=12, beta=0.4):
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)

    def perp_unit():
        v = rng.standard_normal(d)
        v -= (v @ direction) * direction
        return v / np.linalg.norm(v)

    words, vecs, male, female = [], [], [], []
    for j in range(n_seeds):
        shared = perp_unit()
        words.append(f"m{j}")
        vecs.append(np.sqrt(1 - beta**2) * shared + beta * direction)
        male.append(f"m{j}")
        words.append(f"f{j}")
        vecs.append(np.sqrt(1 - beta**2) * shared - beta * direction)
        female.append(f"f{j}")
    gammas = np.linspace(-0.5, 0.5, n_occ)
    occupations = []
    for i, gamma in enumerate(gammas):
        words.append(f"occ{i}")
        vecs.append(np.sqrt(1 - gamma**2) * perp_unit() + gamma * direction)
        occupations.append((f"occ{i}", f"occ{i}"))
    space = EmbeddingSpace("xx", tuple(words), np.array(vecs), normalized=True)
    lex = GenderLexicon(
        defining_pairs={"xx": (GenderPair("m0", "f0", "xx"),)},
        neutral_words={"xx": NeutralWords((), (), ())},
        seed_sets={"xx": SeedSets(tuple(male), tuple(female))},
        occupation_pairs={"xx": tuple(occupations)},
    )
    return space, lex, direction


def test_06_planted_distance_gap_removed_with_specificity():
    worst_ratio = 0.0
    worst_drift = 0.0
    for seed in range(5):
        space, lex, direction = planted_distance_setup(seed)
        before = inbias(space, lex, ["xx"]).value
        planted = BiasSubspace(direction[None, :], "pca", (1.0,))
        after = inbias(debias_space(space, planted, DebiasConfig(k=1)), lex, ["xx"]).value
        worst_ratio = max(worst_ratio, after / before)

        rng = np.random.default_rng(seed + 500)
        raw = rng.standard_normal((space.dim, 4))
        raw -= np.outer(direction, direction @ raw)
        unrelated = BiasSubspace(
            np.linalg.qr(raw)[0].T.copy(), "pca", (4.0, 3.0, 2.0, 1.0)
        )
        drifted = inbias(debias_space(space, unrelated, DebiasConfig(k=4)), lex, ["xx"]).value
        worst_drift = max(worst_drift, abs(drifted - before) / before)
    check(6, "planted distance-gap removal with specificity",
          worst_ratio < 0.01 and worst_drift < 0.05,
          f"worst after/before ratio {worst_ratio:.2e}, worst off-target drift {worst_drift:.2%}")


def test_07_training_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    features = rng.standard_normal((3, 5))
    labels = np.array([0, 1, 2])
    weights = 0.4 * rng.standard_normal((3, 5))
    bias = 0.2 * rng.standard_normal(3)
    _, grad_w, grad_b = ex.cross_entropy_loss_and_grad(weights, bias, features, labels)
    flat = np.concatenate([weights.ravel(), bias])

    def loss_at(v):
        w = v[:15].reshape(3, 5)
        return ex.cross_entropy_loss_and_grad(w, v[15:], features, labels)[0]

    numeric = central_difference_grad(loss_at, flat, h=1e-5)
    analytic = np.concatenate([grad_w.ravel(), grad_b])
    rel = float(np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric))
    check(7, "analytic gradient vs central differences", rel < 1e-6,
          f"relative deviation {rel:.2e} on a 3-record problem")


def test_08_planted_classifier_gap_reduced_across_seeds():
    start = time.perf_counter()
    reduced = 0
    for seed in range(10):
        words, rows, basis = marker_world(seed, dim=300, k=4, n_plain=200)
        space = EmbeddingSpace("xx", words, rows, normalized=True)
        sub = BiasSubspace(basis, "pca", (4.0, 3.0, 2.0, 1.0))
        records = bios(words, rows, basis, n_occupations=4, n_records=2000, bias_strength=1.0,
                       seed=seed)
        train, test = ex.split_corpus(records, seed=seed)
        hyper = ex.TrainConfig(epochs=150, seed=seed)
        before = ex.evaluate_gap(ex.train_classifier(space, train, hyper), test)
        debiased = debias_space(space, sub, DebiasConfig(k=4))
        after = ex.evaluate_gap(ex.train_classifier(debiased, train, hyper), test)
        reduced += int(after.diff < before.diff)
    elapsed = time.perf_counter() - start
    check(8, "planted classifier gap reduced", reduced >= 8 and elapsed < 60.0,
          f"reduced in {reduced}/10 seeds, {elapsed:.1f}s")


def test_09_public_vectors_directional_reproduction(tmp_path):
    reproduce = load_script("reproduce_mono_inbias")
    wiki_dir = os.environ.get("DEBIAS_EMBED_WIKI_DIR")
    if not wiki_dir:
        record_verdict(
            "[ACCEPTANCE] 09 public-vector reduction for en/hi/be/te: SKIP"
            "  (set DEBIAS_EMBED_WIKI_DIR to a directory with wiki.{en,hi,bn,te}.vec)"
        )
        pytest.skip("needs downloaded fasttext wiki vectors")
    missing = [f for f in reproduce.FILES.values() if not os.path.exists(os.path.join(wiki_dir, f))]
    if missing:
        record_verdict(
            f"[ACCEPTANCE] 09 public-vector reduction for en/hi/be/te: SKIP  (missing {missing})"
        )
        pytest.skip(f"missing vector files: {missing}")

    # the published script's own computation, with its defaults: mono, pca, k=4, seed 0
    out = tmp_path / "inbias.json"
    assert reproduce.main(["--vectors-dir", wiki_dir, "--json", str(out)]) == 0
    values = json.loads(out.read_text(encoding="utf-8"))["inbias"]
    outcomes = [(t, values[t]["orig"], values[t]["debiased"]) for t in reproduce.FILES]
    detail = ", ".join(f"{t}: {b:.4f}->{a:.4f}" for t, b, a in outcomes)
    check(9, "public-vector reduction for en/hi/be/te",
          all(a < b for _, b, a in outcomes), detail)


def test_10_pipeline_reruns_byte_identical(tmp_path):
    lex = builtin_lexicon()
    words = lex.words("en")
    rng = np.random.default_rng(10)
    space = EmbeddingSpace("en", words, unit_rows(rng, len(words), 24),
                           normalized=True)
    emb = tmp_path / "en.vec"
    save_vec(space, str(emb))
    out = tmp_path / "deb.vec"
    report = tmp_path / "report.json"
    xreport = tmp_path / "xscore.json"

    def pipeline():
        assert cli_main(["debias", "--emb", str(emb), "--languages", "en",
                         "--method", "ppa", "--k", "2", "--seed", "3",
                         "--out", str(out)]) == 0
        assert cli_main(["report", "--inbias", "--emb", str(emb), "--emb-after", str(out),
                         "--languages", "en", "--seed", "3", "--json", str(report)]) == 0
        assert cli_main(["report", "--xscore", "--emb", str(emb), "--languages", "en",
                         "--json", str(xreport)]) == 0

    tracked = ["deb.vec", "deb.vec.subspace.json", "report.json", "xscore.json"]
    manifests = ["deb.vec.manifest.json", "report.json.manifest.json",
                 "xscore.json.manifest.json"]
    pipeline()
    first = {name: (tmp_path / name).read_bytes() for name in tracked + manifests}
    pipeline()

    identical = all((tmp_path / name).read_bytes() == first[name] for name in tracked)
    manifests_match = True
    for name in manifests:
        before = json.loads(first[name].decode())
        after = json.loads((tmp_path / name).read_text())
        before.pop("created_at")
        after.pop("created_at")
        manifests_match = manifests_match and before == after
    check(10, "byte-identical reruns", identical and manifests_match,
          f"{len(tracked)} artifacts byte-identical, manifests equal minus timestamp")
