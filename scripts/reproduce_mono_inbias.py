#!/usr/bin/env python3
"""Per-language debiasing on published fasttext wiki vectors.

For each of en/hi/be/te: load the .vec file, length-normalize, learn a
k-direction gender subspace from the bundled lexicon's training pairs,
remove it, and report the held-out seed-distance gap before and after.

Expects a directory containing wiki.en.vec, wiki.hi.vec, wiki.bn.vec
(tagged "be" here) and wiki.te.vec, downloaded separately, e.g. from
https://fasttext.cc/docs/en/pretrained-vectors.html

Run:  python3 scripts/reproduce_mono_inbias.py --vectors-dir DIR
      [--max-words 200000] [--k 4] [--method pca] [--json out.json]

--max-words keeps only the first N rows of each file (they are
frequency-sorted, so lexicon words survive); 0 loads everything, which
needs roughly 8 GB of memory for the full four-language set.
"""

import argparse
import json
import os
import sys

import numpy as np

from debias_embed.debias import DebiasConfig, run_variant
from debias_embed.embeddings import EmbeddingSpace, iter_vec, normalize
from debias_embed.intrinsic import format_inbias_table, inbias
from debias_embed.lexicon import builtin_lexicon, split_pairs

FILES = {"en": "wiki.en.vec", "hi": "wiki.hi.vec", "be": "wiki.bn.vec",
         "te": "wiki.te.vec"}


def load_capped(path, tag, max_words):
    """Read a .vec file through the package parser, keeping at most max_words rows.

    Published files occasionally contain duplicate words or all-zero
    rows; both are dropped (first occurrence wins) so the result
    normalizes cleanly. Undecodable bytes become U+FFFD; a malformed line
    stops the run with the parser's line-numbered ValueError.
    """
    words, rows, seen = [], [], set()
    dropped_dup = dropped_zero = 0
    with open(path, encoding="utf-8", errors="replace") as fh:
        _, _, lines = iter_vec(fh)
        for _, word, vec in lines:
            if word in seen:
                dropped_dup += 1
                continue
            if np.linalg.norm(vec) < 1e-12:
                dropped_zero += 1
                continue
            seen.add(word)
            words.append(word)
            rows.append(vec)
            if len(words) == max_words:
                break
    if dropped_dup or dropped_zero:
        print(f"{tag}: dropped {dropped_dup} duplicate and {dropped_zero} "
              f"zero rows", file=sys.stderr)
    return EmbeddingSpace(tag, tuple(words), np.array(rows))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vectors-dir", required=True)
    parser.add_argument("--max-words", type=int, default=200_000)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--method", choices=("pca", "ppa"), default="pca")
    parser.add_argument("--train-count", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", help="also write the numbers as JSON")
    args = parser.parse_args(argv)

    lexicon = builtin_lexicon()
    rows = []
    for tag, filename in FILES.items():
        path = os.path.join(args.vectors_dir, filename)
        if not os.path.exists(path):
            parser.error(f"missing vector file: {path}")
        space = normalize(load_capped(path, tag, args.max_words))
        print(f"{tag}: {len(space)} words x {space.dim} dims", file=sys.stderr)
        split = split_pairs(lexicon, tag, train_count=args.train_count,
                            seed=args.seed)
        config = DebiasConfig(variant="mono", method=args.method, k=args.k)
        debiased, _ = run_variant(space, lexicon, config, {tag: split},
                                  seed=args.seed)
        held_out = {tag: (tuple(p.male_word for p in split.test_pairs),
                          tuple(p.female_word for p in split.test_pairs))}
        before = inbias(space, lexicon, [tag], seed_words=held_out).value
        after = inbias(debiased, lexicon, [tag], seed_words=held_out).value
        rows.append((tag, {"orig": before, "debiased": after}))
        print(f"{tag}: {before:.4f} -> {after:.4f}", file=sys.stderr)

    print(format_inbias_table(["orig", "debiased"], rows), end="")
    reduced = sum(v["debiased"] < v["orig"] for _, v in rows)
    print(f"reduced in {reduced}/{len(rows)} languages")
    if args.json:
        payload = {
            "method": args.method, "k": args.k, "seed": args.seed,
            "max_words": args.max_words,
            "inbias": {t: v for t, v in rows},
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
