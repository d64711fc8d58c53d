"""Command-line interface: ``debias-embed align | debias | report``.

Exit codes: 0 success, 1 validation or usage problem, 2 I/O failure.
Outputs are deterministic for a fixed seed. A run that writes files also
writes one ``<first output>.manifest.json`` recording the command line,
config, seeds, the fingerprints of what it read and wrote, and its warnings;
``report`` writes files only with ``--json``.

Set ``DEBIAS_EMBED_THREADS`` to cap the BLAS thread pools; it is applied
before numpy is first imported, which is why the heavy submodules are
imported lazily inside the subcommand handlers.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

__all__ = ["main", "build_parser"]

log = logging.getLogger(__name__)


def _apply_thread_cap() -> None:
    threads = os.environ.get("DEBIAS_EMBED_THREADS")
    if not threads:
        return
    if not threads.isdigit() or int(threads) < 1:
        raise ValueError(f"DEBIAS_EMBED_THREADS must be a positive integer, got {threads!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, threads)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2
    # for I/O problems, so usage/validation problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="debias-embed", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser._by_subcommand = {}

    p_align = sub.add_parser("align", parents=[], help="rotate a source space onto a target space")
    p_align.add_argument("--src", required=True, help="source .vec file")
    p_align.add_argument("--src-lang", required=True, help="language tag of the source space")
    p_align.add_argument("--tgt", required=True, help="target .vec file")
    p_align.add_argument("--tgt-lang", required=True, help="language tag of the target space")
    p_align.add_argument("--dict", required=True, dest="dictionary",
                         help="bilingual dictionary (source<TAB>target per line)")
    p_align.add_argument("--out", required=True, help="aligned source .vec output")
    p_align.add_argument("--merged-out", help="also write the merged two-language space here")
    p_align.add_argument("--precision", type=int, default=9,
                         help="significant digits in .vec output (default 9)")
    p_align.set_defaults(func=cmd_align)

    p_deb = sub.add_parser("debias", help="remove a gender subspace from an embedding")
    p_deb.add_argument("--emb", required=True, help="input .vec file")
    p_deb.add_argument("--languages", required=True,
                       help="comma-separated language tags (one for mono)")
    p_deb.add_argument("--lexicon", default="builtin",
                       help="lexicon JSON path, or 'builtin' (default)")
    p_deb.add_argument("--variant", choices=("mono", "multi", "eqr"), default="mono")
    p_deb.add_argument("--method", choices=("pca", "ppa"), default="pca")
    p_deb.add_argument("--k", type=int, default=4, help="subspace dimension (default 4)")
    p_deb.add_argument("--scope", choices=("all", "neutral"), default="all",
                       help="debias every word or only the lexicon's neutral words")
    p_deb.add_argument("--center", action="store_true",
                       help="center difference vectors before PCA (PCA only; "
                            "rejected with --method ppa)")
    p_deb.add_argument("--renormalize", action="store_true",
                       help="rescale residuals to unit norm")
    p_deb.add_argument("--seed", type=int, default=0,
                       help="seed for the pair split and projection pursuit (default 0)")
    p_deb.add_argument("--train-count", type=int, default=10,
                       help="defining pairs per language used for the subspace (default 10)")
    p_deb.add_argument("--out", required=True, help="debiased .vec output")
    p_deb.add_argument("--subspace-out", help="subspace JSON output (default <out>.subspace.json)")
    p_deb.add_argument("--precision", type=int, default=9)
    p_deb.set_defaults(func=cmd_debias)

    p_rep = sub.add_parser("report", help="bias metrics as text tables plus JSON")
    mode = p_rep.add_mutually_exclusive_group(required=True)
    mode.add_argument("--inbias", action="store_true", help="occupation/seed distance gaps")
    mode.add_argument("--xscore", action="store_true", help="cross-language direction overlap")
    mode.add_argument("--exbias", action="store_true", help="classifier accuracy gaps")
    p_rep.add_argument("--emb", required=True, help="embedding .vec file (the 'before' run)")
    p_rep.add_argument("--emb-after", help="optional debiased .vec for a before/after comparison")
    p_rep.add_argument("--languages", required=True, help="comma-separated language tags")
    p_rep.add_argument("--lexicon", default="builtin")
    p_rep.add_argument("--json", dest="json_out", help="write the report as JSON here")
    p_rep.add_argument("--seed", type=int, default=0)
    # inbias options
    p_rep.add_argument("--seeds", choices=("test", "lexicon"), default="test",
                       help="score against held-out pair sides (default) or static seeds")
    p_rep.add_argument("--train-count", type=int, default=10,
                       help="train pairs per language when --seeds test recomputes the split")
    # xscore options
    p_rep.add_argument("--epsilon", type=float, default=1e-8,
                       help="skip words whose base projection is below this (default 1e-8)")
    # exbias options
    p_rep.add_argument("--corpus", help="bios TSV for --exbias")
    p_rep.add_argument("--corpus-after", help="optional second corpus for the after run")
    p_rep.add_argument("--corpus-lang", help="language tag of the bios (for merged spaces)")
    p_rep.add_argument("--min-count", type=int, default=100,
                       help="drop occupations with fewer records (default 100)")
    p_rep.add_argument("--test-fraction", type=float, default=0.2)
    p_rep.add_argument("--learning-rate", type=float, default=1.0)
    p_rep.add_argument("--epochs", type=int, default=300)
    p_rep.set_defaults(func=cmd_report)

    for name, p in (("align", p_align), ("debias", p_deb), ("report", p_rep)):
        p.add_argument("--config", help="JSON file of flag defaults; explicit flags win")
        parser._by_subcommand[name] = p
    return parser


def _apply_config_defaults(parser, args, argv):
    """Re-parse with defaults taken from the ``--config`` JSON, if any.

    Flags given on the command line still win because argparse defaults only
    fill in absent options.
    """
    path = getattr(args, "config", None)
    if not path:
        return args
    with open(path, encoding="utf-8") as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError(f"{path}: config must be a JSON object of flag defaults")
    subparser = parser._by_subcommand[args.subcommand]
    known = {a.dest for a in subparser._actions} - {"help", "func", "config"}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ValueError(
            f"{path}: unknown config key(s) {', '.join(unknown)} for {args.subcommand!r}"
        )
    subparser.set_defaults(**overrides)
    return parser.parse_args(argv)


def _load_lexicon(source: str):
    from . import lexicon as lexmod

    if source == "builtin":
        return lexmod.builtin_lexicon()
    return lexmod.load_lexicon(source)


def _languages(args) -> list[str]:
    languages = [t for t in args.languages.split(",") if t]
    if not languages:
        raise ValueError("--languages must name at least one language tag")
    return languages


def _space_tag(languages: list[str]) -> str:
    """Language tag of a loaded space: the tag itself, or ``a+b`` for a merged space."""
    return languages[0] if len(languages) == 1 else "+".join(languages)


# Each subcommand handler does its work and returns what ``main`` records in
# the run manifest: (config, seeds, inputs, outputs, manifest path), or None
# when the run wrote no file.


def cmd_align(args):
    from . import align as alignmod
    from . import embeddings as emb

    source = emb.normalize(emb.load_vec(args.src, args.src_lang))
    target = emb.normalize(emb.load_vec(args.tgt, args.tgt_lang))
    dictionary = alignmod.load_dictionary(args.dictionary, args.src_lang, args.tgt_lang)
    mapping = alignmod.procrustes_fit(source, target, dictionary)
    aligned = alignmod.apply_map(mapping, source)
    aligned = emb.normalize(
        emb.EmbeddingSpace(aligned.language_tag, aligned.vocab, aligned.matrix)
    )
    emb.save_vec(aligned, args.out, args.precision)
    outputs = [args.out]
    if args.merged_out:
        emb.save_vec(alignmod.merge_spaces(aligned, target), args.merged_out, args.precision)
        outputs.append(args.merged_out)
    print(f"aligned {len(dictionary)} dictionary pair(s) -> {args.out}")
    config = {
        "subcommand": "align",
        "src_lang": args.src_lang,
        "tgt_lang": args.tgt_lang,
        "precision": args.precision,
        "renormalize": True,  # always; the key keeps align manifests' shape
        "fit_pairs": mapping.fit_pair_count,
    }
    inputs = [args.src, args.tgt, args.dictionary]
    return config, {}, inputs, outputs, args.out + ".manifest.json"


def cmd_debias(args):
    from . import debias as debmod
    from . import embeddings as emb
    from . import lexicon as lexmod
    from . import subspace as submod

    languages = _languages(args)
    debias_config = debmod.DebiasConfig(
        variant=args.variant,
        k=args.k,
        method=args.method,
        scope=args.scope,
        renormalize_after=args.renormalize,
    )
    lexicon = _load_lexicon(args.lexicon)
    space = emb.normalize(emb.load_vec(args.emb, _space_tag(languages)))
    splits = {
        lang: lexmod.split_pairs(lexicon, lang, args.train_count, args.seed)
        for lang in languages
    }
    debiased, used = debmod.run_variant(
        space, lexicon, debias_config, splits, center=args.center, seed=args.seed
    )
    emb.save_vec(debiased, args.out, args.precision)
    subspace_out = args.subspace_out or args.out + ".subspace.json"
    submod.save_subspace(used, subspace_out)
    print(f"debiased {len(debiased)} word(s) ({args.variant}/{args.method}, k={args.k})"
          f" -> {args.out}")
    config = {
        "subcommand": "debias",
        "variant": args.variant,
        "method": args.method,
        "k": args.k,
        "scope": args.scope,
        "center": args.center,
        "renormalize": args.renormalize,
        "languages": languages,
        "train_count": args.train_count,
        "precision": args.precision,
    }
    inputs = [args.emb] + ([args.lexicon] if args.lexicon != "builtin" else [])
    outputs = [args.out, subspace_out]
    return config, {"seed": args.seed}, inputs, outputs, args.out + ".manifest.json"


def _report_inbias(args, languages, lexicon):
    from . import embeddings as emb
    from . import intrinsic
    from . import lexicon as lexmod

    tag = _space_tag(languages)
    seed_words = None
    if args.seeds == "test":
        seed_words = {}
        for lang in languages:
            split = lexmod.split_pairs(lexicon, lang, args.train_count, args.seed)
            if not split.test_pairs:
                raise ValueError(
                    f"--seeds test needs held-out pairs for {lang!r}; lower --train-count"
                )
            seed_words[lang] = split.held_out_words()

    runs = [("orig", args.emb)]
    if args.emb_after:
        runs.append(("debiased", args.emb_after))
    row_keys = list(languages) + (["all"] if len(languages) > 1 else [])
    per_run = {}
    for label, path in runs:
        space = emb.normalize(emb.load_vec(path, tag))
        per_run[label] = {
            key: intrinsic.inbias(
                space, lexicon, languages if key == "all" else [key], seed_words=seed_words
            )
            for key in row_keys
        }

    columns = [label for label, _ in runs]
    table_rows = [
        (key, {label: per_run[label][key].value for label in columns}) for key in row_keys
    ]
    table = intrinsic.format_inbias_table(columns, table_rows)
    payload = {
        "metric": "inbias",
        "languages": languages,
        "seeds": args.seeds,
        "values": {
            label: {key: per_run[label][key].value for key in row_keys} for label in columns
        },
        "per_occupation": {
            label: [
                {"language": lang, "masculine": m, "feminine": f, "gap": gap}
                for (lang, m, f, gap) in per_run[label][row_keys[-1]].per_occupation
            ]
            for label in columns
        },
    }
    return table, payload


def _report_xscore(args, languages, lexicon):
    from . import embeddings as emb
    from . import intrinsic

    space = emb.normalize(emb.load_vec(args.emb, _space_tag(languages)))
    matrix = intrinsic.cross_score_matrix(space, lexicon, languages, args.epsilon)
    table = intrinsic.format_cross_table(matrix)
    payload = {
        "metric": "cross_score",
        "languages": languages,
        "epsilon": args.epsilon,
        "values": {
            l1: {l2: float(matrix.values[i, j]) for j, l2 in enumerate(languages)}
            for i, l1 in enumerate(languages)
        },
    }
    return table, payload


def _report_exbias(args, languages, lexicon):
    from . import embeddings as emb
    from . import extrinsic

    if not args.corpus:
        raise ValueError("--exbias needs --corpus")
    tag = _space_tag(languages)
    train_config = extrinsic.TrainConfig(
        learning_rate=args.learning_rate, epochs=args.epochs, seed=args.seed
    )

    def run(embedding_path, corpus_path):
        records = extrinsic.load_corpus(corpus_path, args.min_count)
        train, test = extrinsic.split_corpus(records, args.test_fraction, args.seed)
        space = emb.normalize(emb.load_vec(embedding_path, tag))
        clf = extrinsic.train_classifier(space, train, train_config, args.corpus_lang)
        return extrinsic.evaluate_gap(clf, test)

    before = run(args.emb, args.corpus)
    rows = [("orig", before, None)]
    comparison = None
    if args.emb_after:
        after = run(args.emb_after, args.corpus_after or args.corpus)
        comparison = extrinsic.compare_runs(before, after)
        rows.append(("debiased", after, comparison.f_i))
    table = extrinsic.format_gap_table(rows)
    payload = {
        "metric": "extrinsic_gap",
        "languages": languages,
        "seed": args.seed,
        "runs": {
            label: {
                "male_acc": result.male_acc,
                "female_acc": result.female_acc,
                "diff": result.diff,
                "f_i": f_i,
                "per_occupation": [
                    {"occupation": occ, "acc_male": am, "acc_female": af, "gap": gap}
                    for occ, am, af, gap in result.per_occupation
                ],
            }
            for label, result, f_i in rows
        },
    }
    return table, payload


def cmd_report(args):
    languages = _languages(args)
    mode = "inbias" if args.inbias else "xscore" if args.xscore else "exbias"
    report = {"inbias": _report_inbias, "xscore": _report_xscore, "exbias": _report_exbias}[mode]
    table, payload = report(args, languages, _load_lexicon(args.lexicon))

    print(table, end="")
    if not args.json_out:
        return None
    manifest_path = args.json_out + ".manifest.json"
    payload["manifest"] = os.path.basename(manifest_path)  # sibling file
    with open(args.json_out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    config = {
        "subcommand": "report",
        "mode": mode,
        "languages": languages,
        "seeds_source": args.seeds if mode == "inbias" else None,
        "epsilon": args.epsilon if mode == "xscore" else None,
    }
    inputs = [p for p in (args.emb, args.emb_after, args.corpus, args.corpus_after) if p]
    if args.lexicon != "builtin":
        inputs.append(args.lexicon)
    return config, {"seed": args.seed}, inputs, [args.json_out], manifest_path


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _apply_thread_cap()
    except ValueError as exc:
        print(f"debias-embed: {exc}", file=sys.stderr)
        return 1
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args = _apply_config_defaults(parser, args, argv)
        from .manifest import RunManifest, capture_warnings

        with capture_warnings() as warnings:
            run = args.func(args)
        if run is not None:
            config, seeds, inputs, outputs, manifest_path = run
            manifest = RunManifest(["debias-embed"] + argv, config, seeds, {}, warnings=warnings)
            for path in inputs:
                manifest.add_input(path)
            for path in outputs:
                manifest.add_output(path)
            manifest.write(manifest_path)
        return 0
    except OSError as exc:
        print(f"debias-embed: i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"debias-embed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
