#!/usr/bin/env python3
"""End-to-end demo on synthetic embeddings with a planted gender direction.

Builds one space per bundled language over the bundled lexicon vocabulary,
plants a per-language bias direction (pairwise correlated across languages;
the worlds come from ``planted.py`` beside this script), then walks the
whole pipeline without downloading anything:

  1. per-language debiasing plus the two pooled variants, with the
     seed-distance gap before/after each,
  2. the cross-language relatedness table on the merged space,
  3. a planted-marker classification corpus showing the occupation
     accuracy gap closing once the direction is removed.

Run:  python3 scripts/run_synthetic_demo.py [--dim 64] [--seed 0]
"""

import argparse
import sys

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
from planted import ANGLES_DEG, MAX_SKEW, graded_bios, language_world, marker_world


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


def extrinsic_section(seed, n_records, out):
    words, rows, basis = marker_world(seed + 99, dim=60, k=2, n_plain=80)
    space = EmbeddingSpace("xx", words, rows, normalized=True)
    sub = BiasSubspace(basis, "pca", (2.0, 1.0))
    debiased = debias_space(space, sub, DebiasConfig(k=2))

    table = []
    for skew, label in ((MAX_SKEW, "planted link"), (0.0, "no link")):
        records = graded_bios(words, rows, basis, n_records=n_records, skew=skew, seed=seed)
        train, test = ex.split_corpus(records, seed=seed)
        before = ex.evaluate_gap(ex.train_classifier(space, train), test)
        after = ex.evaluate_gap(ex.train_classifier(debiased, train), test)
        f_i = ex.compare_runs(before, after)
        table.append((f"orig ({label})", before, None))
        table.append((f"debiased ({label})", after, f_i))
    out.write("== occupation accuracy gap on a planted-marker corpus ==\n")
    out.write(ex.format_gap_table(table))
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
    args = parser.parse_args(argv)

    lexicon = builtin_lexicon()
    world = language_world(lexicon, args.dim, args.beta, args.noise, args.seed)
    spaces = {tag: EmbeddingSpace(tag, lang.words, lang.rows, normalized=True)
              for tag, lang in world.items()}
    merged = intrinsic_section(lexicon, spaces, args.k, args.seed, sys.stdout)
    cross_section(lexicon, merged, sys.stdout)
    extrinsic_section(args.seed, args.records, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
