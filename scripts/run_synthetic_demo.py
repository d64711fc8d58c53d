#!/usr/bin/env python3
"""End-to-end demo on synthetic embeddings with a planted gender direction.

Builds one space per bundled language over the bundled lexicon vocabulary,
plants a per-language bias direction (pairwise correlated across languages),
then walks the whole pipeline without downloading anything:

  1. per-language debiasing plus the two pooled variants, with the
     seed-distance gap before/after each,
  2. the cross-language relatedness table on the merged space,
  3. a planted-marker classification corpus showing the occupation
     accuracy gap closing once the direction is removed.

Run:  python3 scripts/run_synthetic_demo.py [--dim 64] [--seed 0]
"""

import argparse
import sys

import numpy as np

from debias_embed.align import merge_spaces
from debias_embed.debias import DebiasConfig, debias_space, run_variant
from debias_embed.embeddings import EmbeddingSpace
from debias_embed.intrinsic import (
    cross_score_matrix,
    format_cross_table,
    format_inbias_table,
    inbias,
)
from debias_embed.lexicon import builtin_lexicon, split_pairs
from debias_embed.subspace import BiasSubspace
from debias_embed import extrinsic as ex

ANGLES_DEG = {"en": 25.0, "hi": 35.0, "be": 45.0, "te": 55.0}


def unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def planted_language_space(tag, lexicon, direction, rng, dim, beta, noise):
    """Unit-row space over the lexicon vocabulary for one language.

    Words from defining pairs and seed sets sit at +-beta along the
    planted direction (plus per-word jitter so the pair differences
    have rank > 1); occupation words get graded tilts; everything else
    is isotropic noise.
    """
    rows: dict[str, np.ndarray] = {}

    def place(word, component):
        v = np.sqrt(max(0.0, 1.0 - component**2)) * unit(rng, dim)
        v += component * direction + noise * rng.standard_normal(dim)
        rows[word] = v / np.linalg.norm(v)

    for pair in lexicon.defining_pairs[tag]:
        shared = unit(rng, dim)
        for word, sign in ((pair.male_word, 1.0), (pair.female_word, -1.0)):
            v = np.sqrt(1.0 - beta**2) * shared + sign * beta * direction
            v += noise * rng.standard_normal(dim)
            rows.setdefault(word, v / np.linalg.norm(v))
    seeds = lexicon.seed_sets[tag]
    for word in seeds.male:
        if word not in rows:
            place(word, beta)
    for word in seeds.female:
        if word not in rows:
            place(word, -beta)
    occupations = [m for m, _ in lexicon.occupation_pairs[tag]]
    tilts = np.linspace(-0.45, 0.45, len(occupations))
    for word, tilt in zip(occupations, tilts):
        place(word, tilt)
    neutral = lexicon.neutral_words[tag]
    for word in neutral.adjectives + neutral.transliterations:
        if word not in rows:
            place(word, 0.0)
    vocab = tuple(rows)
    return EmbeddingSpace(tag, vocab, np.array([rows[w] for w in vocab]),
                          normalized=True)


def build_spaces(lexicon, dim, beta, noise, seed):
    rng = np.random.default_rng(seed)
    common = unit(rng, dim)
    spaces = {}
    for tag, angle in ANGLES_DEG.items():
        perp = rng.standard_normal(dim)
        perp -= (perp @ common) * common
        perp /= np.linalg.norm(perp)
        theta = np.radians(angle)
        direction = np.cos(theta) * common + np.sin(theta) * perp
        spaces[tag] = planted_language_space(tag, lexicon, direction, rng,
                                             dim, beta, noise)
    return spaces


def merge_all(spaces):
    tags = list(spaces)
    merged = spaces[tags[0]]
    for tag in tags[1:]:
        merged = merge_spaces(merged, spaces[tag])
    return merged


def intrinsic_section(lexicon, spaces, k, seed, out):
    tags = list(spaces)
    splits = {t: split_pairs(lexicon, t, seed=seed) for t in tags}
    test_seeds = {t: splits[t].held_out_words() for t in tags}

    def score(space, langs):
        return inbias(space, lexicon, langs, seed_words=test_seeds).value

    merged = merge_all(spaces)
    values = {t: {"orig": score(spaces[t], [t])} for t in tags}
    totals = {"orig": score(merged, tags)}

    for tag in tags:
        mono, _ = run_variant(
            spaces[tag], lexicon, DebiasConfig(variant="mono", k=k),
            {tag: splits[tag]}, seed=seed,
        )
        values[tag]["mono"] = score(mono, [tag])
    for variant in ("multi", "eqr"):
        debiased, _ = run_variant(
            merged, lexicon, DebiasConfig(variant=variant, k=k), splits,
            seed=seed,
        )
        for tag in tags:
            values[tag][variant] = score(debiased, [tag])
        totals[variant] = score(debiased, tags)

    columns = ["orig", "mono", "multi", "eqr"]
    table_rows = [(t, values[t]) for t in tags] + [("all", totals)]
    out.write("== seed-distance gap by variant (k=%d) ==\n" % k)
    out.write(format_inbias_table(columns, table_rows))
    out.write("\n")
    return merged


def cross_section(lexicon, merged, out):
    tags = list(ANGLES_DEG)
    matrix = cross_score_matrix(merged, lexicon, tags)
    out.write("== cross-language direction relatedness (original space) ==\n")
    out.write(format_cross_table(matrix))
    out.write("\n")


def marker_space(rng, dim, k, n_plain, eta=0.05):
    """Tiny space whose gendered markers hug the first planted direction."""
    basis = np.linalg.qr(rng.standard_normal((dim, k)))[0].T
    words, vecs = [], []
    for i in range(6):
        for prefix, sign in (("him", 1.0), ("her", -1.0)):
            perp = rng.standard_normal(dim)
            perp -= basis @ perp @ basis
            perp /= np.linalg.norm(perp)
            words.append(f"{prefix}{i}")
            vecs.append(np.sqrt(1 - eta**2) * sign * basis[0] + eta * perp)
    for i in range(n_plain):
        v = rng.standard_normal(dim)
        v -= basis.T @ (basis @ v)
        words.append(f"plain{i}")
        vecs.append(v / np.linalg.norm(v))
    space = EmbeddingSpace("xx", tuple(words), np.array(vecs), normalized=True)
    return space, BiasSubspace(basis, "pca", tuple(float(k - i) for i in range(k)))


def extrinsic_section(seed, n_records, epochs, out):
    rng = np.random.default_rng(seed + 99)
    space, sub = marker_space(rng, dim=60, k=2, n_plain=80)
    debiased = debias_space(space, sub, DebiasConfig(k=2))
    hyper = ex.TrainConfig(epochs=epochs, seed=seed)

    rows = []
    for strength, label in ((1.0, "planted link"), (0.0, "no link")):
        config = ex.SynthesisConfig(
            n_occupations=4, n_records=n_records, bias_strength=strength,
            subspace=sub,
        )
        records = ex.synthesize_corpus(space, config, seed=seed)
        train, test = ex.split_corpus(records, seed=seed)
        before = ex.evaluate_gap(ex.train_classifier(space, train, hyper), test)
        after = ex.evaluate_gap(ex.train_classifier(debiased, train, hyper), test)
        f_i = ex.compare_runs(before, after).f_i
        rows.append((f"orig ({label})", before, None))
        rows.append((f"debiased ({label})", after, f_i))
    out.write("== occupation accuracy gap on a planted-marker corpus ==\n")
    out.write(ex.format_gap_table(rows))
    out.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--beta", type=float, default=0.5,
                        help="planted bias strength for gendered words")
    parser.add_argument("--noise", type=float, default=0.08)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--records", type=int, default=1200)
    parser.add_argument("--epochs", type=int, default=120)
    args = parser.parse_args(argv)

    lexicon = builtin_lexicon()
    spaces = build_spaces(lexicon, args.dim, args.beta, args.noise, args.seed)
    merged = intrinsic_section(lexicon, spaces, args.k, args.seed, sys.stdout)
    cross_section(lexicon, merged, sys.stdout)
    extrinsic_section(args.seed, args.records, args.epochs, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
