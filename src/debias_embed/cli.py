"""Command-line interface: ``debias-embed align | debias | report``.

Exit codes: 0 success, 1 validation or usage problem, 2 I/O failure.
Outputs are deterministic for a fixed seed. A run that writes files also
writes one ``<first output>.manifest.json`` recording the command line,
config, seeds, the fingerprints of what it read and wrote, and its warnings;
``report`` writes files only with ``--json``.

Set ``DEBIAS_EMBED_THREADS`` to cap the BLAS thread pools and the processes
that parse and format ``.vec`` text; the BLAS cap is applied before numpy
is first imported, which is why the heavy submodules are imported lazily
inside the subcommand handlers.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import thread_cap

__all__ = ["main", "build_parser"]

log = logging.getLogger(__name__)


def _apply_thread_cap() -> None:
    """Cap each BLAS thread pool at ``DEBIAS_EMBED_THREADS``: a pool variable
    already set to a smaller positive integer stays, any other value is
    replaced by the cap."""
    threads = thread_cap()
    if threads is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not (value.isdecimal() and 1 <= int(value) < threads):
            os.environ[var] = str(threads)


def _precision(text: str) -> int:
    """The ``--precision`` value: significant digits, at least 1."""
    try:
        digits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if digits < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {digits}")
    return digits


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
    p_align.add_argument("--precision", type=_precision, default=9,
                         help="significant digits in .vec output (default 9)")
    p_align.set_defaults(func=cmd_align)

    p_deb = sub.add_parser("debias", help="remove a gender subspace from an embedding")
    p_deb.add_argument("--emb", required=True, help="input .vec file")
    p_deb.add_argument("--languages", required=True,
                       help="comma-separated language tags (one for mono)")
    p_deb.add_argument("--lexicon", default="builtin",
                       help="lexicon JSON path, or 'builtin' (default)")
    p_deb.add_argument("--variant", choices=("mono", "multi", "eqr"), default="mono")
    p_deb.add_argument("--method", choices=("pca", "ppa"), default="pca",
                       help="subspace estimator (default pca). ppa, kurtosis projection "
                            "pursuit, currently removes a direction that isolates one pair "
                            "instead of a shared gender direction, and warns when it does")
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
    p_deb.add_argument("--precision", type=_precision, default=9,
                       help="significant digits in .vec output (default 9)")
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
    # the options of one mode; their defaults, in MODE_OPTIONS, are filled in by cmd_report
    p_rep.add_argument("--seeds", choices=("test", "lexicon"),
                       help="inbias: score against held-out pair sides (default) or static seeds")
    p_rep.add_argument("--train-count", type=int,
                       help="inbias: train pairs per language when --seeds test recomputes "
                            "the split (default 10)")
    p_rep.add_argument("--epsilon", type=float,
                       help="xscore: skip words whose base projection is below this "
                            "(default 1e-8)")
    p_rep.add_argument("--corpus", help="bios TSV for --exbias")
    p_rep.add_argument("--corpus-after", help="optional second corpus for the after run")
    p_rep.add_argument("--corpus-lang", help="language tag of the bios (for merged spaces)")
    p_rep.add_argument("--min-count", type=int,
                       help="exbias: drop occupations with fewer records (default 100)")
    p_rep.add_argument("--test-fraction", type=float, help="exbias (default 0.2)")
    p_rep.add_argument("--learning-rate", type=float, help="exbias (default 1.0)")
    p_rep.add_argument("--epochs", type=int, help="exbias (default 300)")
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
# the run manifest besides the outputs of ``_output_paths``: (config, seeds,
# inputs), or None when the run wrote no file. The inputs are the files the
# run read, which for ``report`` depends on the mode, not on every path the
# command line gave.


def cmd_align(args):
    from . import align as alignmod
    from . import embeddings as emb

    source = emb.normalize(emb.load_vec(args.src, args.src_lang))
    target = emb.normalize(emb.load_vec(args.tgt, args.tgt_lang))
    dictionary = alignmod.load_dictionary(args.dictionary, args.src_lang, args.tgt_lang)
    mapping = alignmod.procrustes_fit(source, target, dictionary)
    aligned = alignmod.apply_map(mapping, source)
    del source  # rotated: free it before normalize allocates the next matrix
    aligned = emb.normalize(aligned)
    emb.save_vec(aligned, args.out, args.precision)
    if args.merged_out:
        emb.save_vec(alignmod.merge_spaces(aligned, target), args.merged_out, args.precision)
    print(f"aligned {len(dictionary)} dictionary pair(s) -> {args.out}")
    config = {
        "subcommand": "align",
        "src_lang": args.src_lang,
        "tgt_lang": args.tgt_lang,
        "precision": args.precision,
        "renormalize": True,  # always; the key keeps align manifests' shape
        "fit_pairs": mapping.fit_pair_count,
    }
    return config, {}, [args.src, args.tgt, args.dictionary]


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
    tag = _space_tag(languages)
    splits = {
        lang: lexmod.split_pairs(lexicon, lang, args.train_count, args.seed)
        for lang in languages
    }
    # Two passes over the input, so the matrix is never held. The first
    # checks every line but holds only the rows the subspace fit reads; the
    # second normalizes, debiases and writes a block of rows at a time.
    space = emb.normalize(emb.load_vec(
        args.emb, tag, hold=debmod.variant_words(lexicon, debias_config, splits)
    ))
    debiased, used = debmod.run_variant(
        space, lexicon, debias_config, splits, center=args.center, seed=args.seed
    )
    emb.save_vec(debiased, args.out, args.precision)
    submod.save_subspace(used, _output_paths(args)["--subspace-out"])
    print(f"debiased {len(space)} word(s) ({args.variant}/{args.method}, k={args.k})"
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
    return config, {"seed": args.seed}, inputs


def _held_space(path, tag, words):
    """The normalized rows of ``words`` in the ``.vec`` file ``path``.

    A report looks up only these, so the other rows are not parsed: every
    line is still checked for UTF-8, duplicates and the row count, but an
    unread row's number format and zero norm are not.
    """
    from . import embeddings as emb

    return emb.normalize(emb.load_vec(path, tag, hold=words).held)


def _lexicon_entries(lexicon, languages):
    """Every vocabulary entry a lexicon metric over ``languages`` may look up.

    A language the lexicon lacks adds none; the metric names it.
    """
    from . import lexicon as lexmod

    return lexmod.entry_forms((lang, w) for lang in languages
                              if lang in lexicon.defining_pairs for w in lexicon.words(lang))


def _report_inbias(args, languages, lexicon):
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
    words = _lexicon_entries(lexicon, languages)
    per_run = {}
    for label, path in runs:
        space = _held_space(path, tag, words)
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
    return table, payload, [path for _, path in runs]


def _report_xscore(args, languages, lexicon):
    from . import intrinsic

    space = _held_space(args.emb, _space_tag(languages), _lexicon_entries(lexicon, languages))
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
    return table, payload, [args.emb]


def _report_exbias(args, languages, lexicon):
    from . import extrinsic
    from . import lexicon as lexmod

    if not args.corpus:
        raise ValueError("--exbias needs --corpus")
    tag = _space_tag(languages)
    train_config = extrinsic.TrainConfig(
        learning_rate=args.learning_rate, epochs=args.epochs, seed=args.seed
    )

    def read_corpus(corpus_path):
        """(train, test, every vocabulary entry the records' tokens may resolve to)"""
        records = extrinsic.load_corpus(corpus_path, args.min_count)
        tokens = {t for r in records for t in r.tokens}
        words = lexmod.entry_forms((args.corpus_lang, t) for t in tokens)
        return (*extrinsic.split_corpus(records, args.test_fraction, args.seed), words)

    def run(embedding_path, corpus):
        train, test, words = corpus
        space = _held_space(embedding_path, tag, words)
        clf = extrinsic.train_classifier(space, train, train_config, args.corpus_lang)
        return extrinsic.evaluate_gap(clf, test)

    corpus = read_corpus(args.corpus)
    before = run(args.emb, corpus)
    inputs = [args.emb, args.corpus]
    rows = [("orig", before, None)]
    comparison = None
    if args.emb_after:
        after = run(args.emb_after, read_corpus(args.corpus_after) if args.corpus_after else corpus)
        comparison = extrinsic.compare_runs(before, after)
        rows.append(("debiased", after, comparison.f_i))
        inputs += [p for p in (args.emb_after, args.corpus_after) if p]
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
    return table, payload, inputs


#: the options only one report mode reads, with their defaults
MODE_OPTIONS = {
    "inbias": {"seeds": "test", "train_count": 10},
    "xscore": {"epsilon": 1e-8},
    "exbias": {"corpus": None, "corpus_after": None, "corpus_lang": None, "min_count": 100,
               "test_fraction": 0.2, "learning_rate": 1.0, "epochs": 300},
}

#: what each report mode does not read; giving one, as a flag or in --config, is refused
UNREAD_FLAGS = {
    mode: ("emb_after",) * (mode == "xscore")
    + tuple(dest for other in MODE_OPTIONS if other != mode for dest in MODE_OPTIONS[other])
    for mode in MODE_OPTIONS
}


def cmd_report(args):
    languages = _languages(args)
    mode = "inbias" if args.inbias else "xscore" if args.xscore else "exbias"
    for dest in UNREAD_FLAGS[mode]:
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest.replace('_', '-')} is not read by --{mode}")
    for dest, default in MODE_OPTIONS[mode].items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    report = {"inbias": _report_inbias, "xscore": _report_xscore, "exbias": _report_exbias}[mode]
    table, payload, inputs = report(args, languages, _load_lexicon(args.lexicon))

    print(table, end="")
    if not args.json_out:
        return None
    payload["manifest"] = os.path.basename(_output_paths(args)["manifest"])  # sibling file
    with open(args.json_out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    config = {
        "subcommand": "report",
        "mode": mode,
        "languages": languages,
        "seeds_source": args.seeds,
        "epsilon": args.epsilon,
    }
    if args.lexicon != "builtin":
        inputs.append(args.lexicon)
    return config, {"seed": args.seed}, inputs


#: the output options of each subcommand, by destination; the run manifest is
#: written beside the first
OUTPUT_OPTIONS = {"align": {"out": "--out", "merged_out": "--merged-out"},
                  "debias": {"out": "--out", "subspace_out": "--subspace-out"},
                  "report": {"json_out": "--json"}}


def _output_paths(args) -> dict[str, str]:
    """Every file a run writes, keyed by its output option, or by "manifest"
    for the run manifest ``<first output>.manifest.json``.

    ``debias`` writes its subspace to ``<out>.subspace.json`` when
    ``--subspace-out`` is not given; ``report`` writes nothing without
    ``--json``.
    """
    paths = {flag: getattr(args, dest) for dest, flag in OUTPUT_OPTIONS[args.subcommand].items()}
    if args.subcommand == "debias" and not paths["--subspace-out"]:
        paths["--subspace-out"] = args.out + ".subspace.json"
    first = next(iter(paths.values()))
    paths["manifest"] = first and first + ".manifest.json"
    return {flag: path for flag, path in paths.items() if path}


def _refuse_irregular_outputs(args) -> None:
    """Refuse any output, given or derived, that exists and is not a regular
    file, such as ``/dev/null``, before any input is read, so that the run
    writes nothing."""
    for flag, path in _output_paths(args).items():
        if os.path.exists(path) and not os.path.isfile(path):
            raise ValueError(f"{flag} {path}: exists and is not a regular file")


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
        _refuse_irregular_outputs(args)
        from .manifest import RunManifest, capture_warnings

        with capture_warnings() as warnings:
            run = args.func(args)
        if run is not None:
            config, seeds, inputs = run
            outputs = _output_paths(args)
            manifest_path = outputs.pop("manifest")
            manifest = RunManifest(["debias-embed"] + argv, config, seeds, {}, warnings=warnings)
            for path in inputs:
                manifest.add_input(path)
            for path in outputs.values():
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
