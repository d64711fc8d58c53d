#!/usr/bin/env python3
"""Per-language debiasing on published fasttext wiki vectors.

For each of en/hi/be/te: load the .vec file, length-normalize, learn a
k-direction gender subspace from the bundled lexicon's training pairs,
remove it, and report the held-out seed-distance gap before and after.

Expects a directory containing wiki.en.vec, wiki.hi.vec, wiki.bn.vec
(tagged "be" here) and wiki.te.vec, downloaded separately, e.g. from
https://fasttext.cc/docs/en/pretrained-vectors.html

Each file is read as ``debias-embed report`` reads it: every line is
checked, and a duplicate word, an undecodable byte or a wrong row count
stops the run with the line-numbered error, but only the rows of the
lexicon's words are parsed and held (a zero one stops the run too).

Run:  python3 scripts/reproduce_mono_inbias.py --vectors-dir DIR
      [--k 4] [--method pca] [--json out.json]
"""

import argparse
import os
import sys

from debias_embed.debias import DebiasConfig, run_variant
from debias_embed.embeddings import entry_forms, load_vec, normalize
from debias_embed.intrinsic import format_inbias_table, inbias
from debias_embed.lexicon import builtin_lexicon, split_pairs
from debias_embed.manifest import write_json

FILES = {"en": "wiki.en.vec", "hi": "wiki.hi.vec", "be": "wiki.bn.vec",
         "te": "wiki.te.vec"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vectors-dir", required=True)
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
        stream = load_vec(path, tag, hold=entry_forms((tag, w) for w in lexicon.words(tag)))
        space = normalize(stream.held)
        print(f"{tag}: {len(space)} of {len(stream)} words x {space.dim} dims", file=sys.stderr)
        split = split_pairs(lexicon, tag, train_count=args.train_count,
                            seed=args.seed)
        config = DebiasConfig(variant="mono", method=args.method, k=args.k)
        debiased, _ = run_variant(space, lexicon, config, {tag: split},
                                  seed=args.seed)
        held_out = {tag: split.held_out_words()}
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
            "inbias": {t: v for t, v in rows},
        }
        write_json(args.json, payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
