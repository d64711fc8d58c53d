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
import dataclasses
import json
import logging
import os
import sys

from . import thread_cap
from .manifest import RunManifest, capture_warnings, write_json

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


def _at_least(minimum: int):
    """The argparse type of an integer flag whose value is at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


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
    p_align.add_argument("--tgt", required=True,
                         help="target .vec file. Without --merged-out only its dictionary "
                              "rows are parsed: the other rows are checked for UTF-8, "
                              "duplicates and the row count, but not for number format "
                              "or zero norm")
    p_align.add_argument("--tgt-lang", required=True, help="language tag of the target space")
    p_align.add_argument("--dict", required=True, dest="dictionary",
                         help="bilingual dictionary (source<TAB>target per line)")
    p_align.add_argument("--out", required=True, help="aligned source .vec output")
    p_align.add_argument("--merged-out", help="also write the merged two-language space here")
    p_align.add_argument("--precision", type=_at_least(1), default=9,
                         help="significant digits in .vec output (default 9)")
    p_align.set_defaults(func=cmd_align)

    p_deb = sub.add_parser("debias", help="remove a gender subspace from an embedding")
    p_deb.add_argument("--emb", required=True, help="input .vec file")
    p_deb.add_argument("--languages", required=True,
                       help="comma-separated language tags (one for mono)")
    p_deb.add_argument("--lexicon", default="builtin",
                       help="lexicon JSON path, or 'builtin' (default)")
    p_deb.add_argument("--variant", choices=("mono", "multi", "eqr"), default="mono",
                       help="mono (default): one language's train pairs; "
                            "multi: the train pairs of every language, pooled; "
                            "eqr: the span of each of L languages' own top k/L directions")
    p_deb.add_argument("--method", choices=("pca", "ppa"), default="pca",
                       help="subspace estimator (default pca). ppa, kurtosis projection "
                            "pursuit, currently removes a direction that isolates one pair "
                            "instead of a shared gender direction, and warns when it does")
    p_deb.add_argument("--k", type=int, default=4, help="subspace dimension (default 4)")
    p_deb.add_argument("--scope", choices=("all", "neutral"), default="all",
                       help="debias every word or only the lexicon's neutral words")
    p_deb.add_argument("--renormalize", action="store_true",
                       help="rescale residuals to unit norm; a word inside the subspace, "
                            "whose residual vanishes, is refused (exit 1, no output)")
    p_deb.add_argument("--seed", type=_at_least(0), default=0,
                       help="seed for the pair split and projection pursuit (default 0)")
    p_deb.add_argument("--train-count", type=int, default=10,
                       help="defining pairs per language used for the subspace (default 10)")
    p_deb.add_argument("--out", required=True, help="debiased .vec output")
    p_deb.add_argument("--subspace-out", help="subspace JSON output (default <out>.subspace.json)")
    p_deb.add_argument("--precision", type=_at_least(1), default=9,
                       help="significant digits in .vec output (default 9)")
    p_deb.set_defaults(func=cmd_debias)

    p_rep = sub.add_parser("report", help="bias metrics as text tables plus JSON")
    mode = p_rep.add_mutually_exclusive_group(required=True)
    mode.add_argument("--inbias", action="store_true", help="occupation/seed distance gaps")
    mode.add_argument("--xscore", action="store_true", help="cross-language direction overlap")
    mode.add_argument("--exbias", action="store_true",
                      help="occupation accuracy gaps of a softmax classifier, L2-regularized "
                           "and fitted to convergence")
    p_rep.add_argument("--emb", required=True, help="embedding .vec file (the 'before' run)")
    p_rep.add_argument("--emb-after", help="optional debiased .vec for a before/after comparison")
    p_rep.add_argument("--languages", required=True, help="comma-separated language tags")
    p_rep.add_argument("--lexicon", default="builtin")
    p_rep.add_argument("--json", dest="json_out", help="write the report as JSON here")
    # the options of some modes; their defaults, in MODE_OPTIONS, are filled in by main
    p_rep.add_argument("--seed", type=_at_least(0),
                       help="inbias --seeds test: pair split; exbias: the corpus split "
                            "only, as the classifier fit is seedless (default 0)")
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
    p_rep.add_argument("--min-count", type=_at_least(0),
                       help="exbias: drop occupations with fewer records (default 100)")
    p_rep.add_argument("--test-fraction", type=float, help="exbias (default 0.2)")
    p_rep.set_defaults(func=cmd_report)

    for name, p in (("align", p_align), ("debias", p_deb), ("report", p_rep)):
        p.add_argument("--config", help="JSON file of flag defaults; explicit flags win")
        parser._by_subcommand[name] = p
    return parser


def _config_args(parser, subcommand: str, path) -> list[str]:
    """The entries of the ``--config`` JSON ``path`` as the flags they name.

    Put before the command line's own arguments, they are parsed as those
    are, so a flag given on the command line wins. A switch takes true or
    false; any other flag a string or a number, as ``--flag=value``.
    """
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, dict):
        raise ValueError(f"{path}: config must be a JSON object of flag defaults")
    actions = {a.dest: a for a in parser._by_subcommand[subcommand]._actions
               if a.dest not in ("help", "config")}
    unknown = sorted(set(entries) - set(actions))
    if unknown:
        raise ValueError(
            f"{path}: unknown config key(s) {', '.join(unknown)} for {subcommand!r}"
        )
    text = []
    for key, value in entries.items():
        flag, switch = actions[key].option_strings[0], actions[key].nargs == 0
        if isinstance(value, bool) != switch or not isinstance(value, (str, int, float)):
            wanted = "true or false" if switch else "a string or a number"
            raise ValueError(f"{path}: config key {key!r} takes {wanted}, got {json.dumps(value)}")
        text += [flag] * value if switch else [f"{flag}={value}"]
    return text


def _load_lexicon(source: str):
    from . import lexicon as lexmod

    if source == "builtin":
        return lexmod.builtin_lexicon()
    return lexmod.load_lexicon(source)


# Each subcommand handler does its work with the options the run reads, which
# ``main`` records in the run manifest, and returns what it adds to their
# config: the values that no option holds, or None when the run wrote no file.


def cmd_align(args):
    from . import align as alignmod
    from . import embeddings as emb

    if args.merged_out:  # refused before any input is read
        alignmod.merged_tag(args.src_lang, args.tgt_lang)
    dictionary = alignmod.load_dictionary(args.dictionary, args.src_lang, args.tgt_lang)
    # The first pass over each input holds only the dictionary rows the fit
    # reads; the source, and for --merged-out the target, are then read
    # again, a block of rows at a time, to be written.
    source = emb.normalize(emb.load_vec(args.src, args.src_lang,
                                        hold={s for s, _ in dictionary.entries}))
    target = emb.normalize(emb.load_vec(args.tgt, args.tgt_lang,
                                        hold={t for _, t in dictionary.entries}))
    mapping = alignmod.procrustes_fit(source.held, target.held, dictionary)
    aligned = emb.normalize(alignmod.apply_map(mapping, source))
    if args.merged_out:
        alignmod.save_merged(aligned, target, args.out, args.merged_out, args.precision)
    else:
        emb.save_vec(aligned, args.out, args.precision)
    print(f"aligned with {mapping.fit_pair_count} of {len(dictionary)} dictionary pair(s)"
          f" -> {args.out}")
    return {"fit_pairs": mapping.fit_pair_count}


def cmd_debias(args):
    from . import debias as debmod
    from . import embeddings as emb
    from . import lexicon as lexmod
    from . import subspace as submod

    debias_config = debmod.DebiasConfig(
        variant=args.variant,
        k=args.k,
        method=args.method,
        scope=args.scope,
        renormalize_after=args.renormalize,
    )
    lexicon = _load_lexicon(args.lexicon)
    splits = {
        lang: lexmod.split_pairs(lexicon, lang, args.train_count, args.seed)
        for lang in args.languages
    }
    # Two passes over the input, so the matrix is never held. The first
    # checks every line but holds only the rows the subspace fit reads; the
    # second normalizes, debiases and writes a block of rows at a time.
    words = debmod.variant_words(lexicon, debias_config, splits)
    space = emb.normalize(emb.load_vec(args.emb, "+".join(args.languages), hold=words))
    debiased, used = debmod.run_variant(space, lexicon, debias_config, splits, seed=args.seed)
    # neither file is renamed into place before both are written
    with emb.staged(args.out, _files(args)[1]["--subspace-out"]) as (vec_tmp, subspace_tmp):
        submod.save_subspace(used, subspace_tmp)
        emb.save_vec(debiased, vec_tmp, args.precision)
    print(f"debiased {len(space)} word(s) ({args.variant}/{args.method}, k={args.k})"
          f" -> {args.out}")
    return {}


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

    A language the lexicon lacks is refused, before any input is read.
    """
    from . import embeddings as emb

    return emb.entry_forms((lang, w) for lang in lexicon.require_languages(languages)
                           for w in lexicon.words(lang))


def _report_inbias(args, languages, lexicon):
    from . import intrinsic
    from . import lexicon as lexmod

    tag = "+".join(languages)
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
    per_run, values = {}, {}
    for label, path in runs:
        result = intrinsic.inbias(_held_space(path, tag, words), lexicon, languages,
                                  seed_words=seed_words)
        per_run[label] = result
        values[label] = {lang: result.language_value(lang) for lang in languages}
        if len(languages) > 1:
            values[label]["all"] = result.value

    columns = [label for label, _ in runs]
    table_rows = [(key, {label: values[label][key] for label in columns}) for key in row_keys]
    table = intrinsic.format_inbias_table(columns, table_rows)
    payload = {
        "metric": "inbias",
        "languages": languages,
        "seeds": args.seeds,
        "values": values,
        "per_occupation": {
            label: [
                {"language": lang, "masculine": m, "feminine": f, "gap": gap}
                for (lang, m, f, gap) in per_run[label].per_occupation
            ]
            for label in columns
        },
    }
    return table, payload


def _report_xscore(args, languages, lexicon):
    from . import intrinsic

    space = _held_space(args.emb, "+".join(languages), _lexicon_entries(lexicon, languages))
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
    tag = "+".join(languages)

    def read_corpus(corpus_path):
        """(train, test, every vocabulary entry the records' tokens may resolve to)"""
        records = extrinsic.load_corpus(corpus_path, args.min_count)
        tokens = {t for r in records for t in r.tokens}
        words = emb.entry_forms((args.corpus_lang, t) for t in tokens)
        return (*extrinsic.split_corpus(records, args.test_fraction, args.seed), words)

    def run(embedding_path, corpus):
        """(the gap on the test records, the fit of the classifier it comes from)"""
        train, test, words = corpus
        space = _held_space(embedding_path, tag, words)
        clf = extrinsic.train_classifier(space, train, args.corpus_lang)
        return extrinsic.evaluate_gap(clf, test), clf.fit

    corpus = read_corpus(args.corpus)
    before, fit = run(args.emb, corpus)
    rows, fits = [("orig", before, None)], [fit]
    if args.emb_after:
        after, fit = run(args.emb_after,
                         read_corpus(args.corpus_after) if args.corpus_after else corpus)
        rows.append(("debiased", after, extrinsic.compare_runs(before, after)))
        fits.append(fit)
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
                "fit": dataclasses.asdict(fit),
            }
            for (label, result, f_i), fit in zip(rows, fits)
        },
    }
    return table, payload


#: the options only some report modes read, with their defaults
MODE_OPTIONS = {
    "inbias": {"seeds": "test", "train_count": 10, "seed": 0},
    "xscore": {"epsilon": 1e-8},
    "exbias": {"corpus": None, "corpus_after": None, "corpus_lang": None, "min_count": 100,
               "test_fraction": 0.2, "seed": 0},
}


def _unread(args, mode) -> dict[str, str]:
    """The report options that ``mode`` does not read, with the other options
    given, each with what it is not read by."""
    unread = dict.fromkeys(("emb_after",) * (mode == "xscore")
                           + tuple(dest for options in MODE_OPTIONS.values() for dest in options
                                   if dest not in MODE_OPTIONS[mode]), f"--{mode}")
    if mode == "exbias" and not args.emb_after:
        unread["corpus_after"] = "--exbias without --emb-after"
    if mode == "inbias" and args.seeds == "lexicon":  # static seeds: no pair split is drawn
        unread.update(dict.fromkeys(("train_count", "seed"), "--inbias --seeds lexicon"))
    return unread


def _keep_read_options(args) -> None:
    """Leave in ``args`` exactly the options the run reads: ``--languages`` as
    its list of tags and, for ``report``, the ``mode`` and each option it
    reads, at its default in MODE_OPTIONS when not given. An option the mode
    does not read, given as a flag or in ``--config``, is refused."""
    if hasattr(args, "languages"):
        languages = [t for t in args.languages.split(",") if t]
        if not languages:
            raise ValueError("--languages must name at least one language tag")
        repeated = [t for i, t in enumerate(languages) if t in languages[:i]]
        if repeated:
            raise ValueError(f"--languages names {repeated[0]!r} more than once")
        args.languages = languages
    if args.subcommand != "report":
        return
    args.mode = next(mode for mode in MODE_OPTIONS if getattr(args, mode))
    unread = _unread(args, args.mode)
    for dest, by in unread.items():
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest.replace('_', '-')} is not read by {by}")
    for dest, default in MODE_OPTIONS[args.mode].items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    for dest in (*MODE_OPTIONS, *unread):  # the mode switches, and what the mode does not read
        delattr(args, dest)


def cmd_report(args):
    report = {"inbias": _report_inbias, "xscore": _report_xscore, "exbias": _report_exbias}
    table, payload = report[args.mode](args, args.languages, _load_lexicon(args.lexicon))

    print(table, end="")
    if not args.json_out:
        return None
    payload["manifest"] = os.path.basename(_files(args)[1]["manifest"])  # sibling file
    write_json(args.json_out, payload)
    if args.mode != "exbias":
        return {}
    from . import extrinsic  # the fit's constants, which no option holds

    return {"l2_penalty": extrinsic.L2_PENALTY, "fit_grad_tol": extrinsic.FIT_GRAD_TOL}


#: the file options of each subcommand, by destination: those it reads, then
#: those it writes, the first of which the run manifest is named after
FILE_OPTIONS = {
    "align": ({"src": "--src", "tgt": "--tgt", "dictionary": "--dict"},
              {"out": "--out", "merged_out": "--merged-out"}),
    "debias": ({"emb": "--emb", "lexicon": "--lexicon"},
               {"out": "--out", "subspace_out": "--subspace-out"}),
    "report": ({"emb": "--emb", "emb_after": "--emb-after", "lexicon": "--lexicon",
                "corpus": "--corpus", "corpus_after": "--corpus-after"},
               {"json_out": "--json"}),
}


def _files(args) -> tuple[dict[str, str], dict[str, str]]:
    """(every file a run reads, every file it writes), each keyed by its option.

    The inputs are ``--config`` and each input option that ``args`` holds and
    gives, but not ``--lexicon builtin``, which names no file. The outputs
    include the derived ones: ``debias``'s subspace at
    ``<out>.subspace.json`` when ``--subspace-out`` is not given, and the run
    manifest ``<first output>.manifest.json``, keyed "manifest"; ``report``
    writes nothing without ``--json``.
    """
    reads, writes = FILE_OPTIONS[args.subcommand]
    inputs = {flag: getattr(args, dest, None)
              for dest, flag in {"config": "--config", **reads}.items()}
    outputs = {flag: getattr(args, dest) for dest, flag in writes.items()}
    if args.subcommand == "debias" and not outputs["--subspace-out"]:
        outputs["--subspace-out"] = args.out + ".subspace.json"
    first = next(iter(outputs.values()))
    outputs["manifest"] = first and first + ".manifest.json"
    return ({flag: path for flag, path in inputs.items()
             if path and not (flag == "--lexicon" and path == "builtin")},
            {flag: path for flag, path in outputs.items() if path})


def _refuse_irregular_outputs(args) -> None:
    """Refuse any output, given or derived, that exists and is not a regular
    file, such as ``/dev/null``, or that is the file of another output or of
    an input, ``--config`` included, before any input is read, so that the
    run writes nothing and reads no file it has written."""
    inputs, outputs = _files(args)
    flags = {}  # the first option of each file
    for flag, path in inputs.items():
        flags.setdefault(os.path.realpath(path), flag)
    for flag, path in outputs.items():
        if os.path.exists(path) and not os.path.isfile(path):
            raise ValueError(f"{flag} {path}: exists and is not a regular file")
        first = flags.setdefault(os.path.realpath(path), flag)
        if first != flag:
            raise ValueError(f"{first} and {flag} name the same file {path}")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _apply_thread_cap()
    except ValueError as exc:
        print(f"debias-embed: {exc}", file=sys.stderr)
        return 1
    parser = build_parser()
    # --config is read before the one parse, so that its entries may give
    # required flags too; a bare --config is left to that parse to refuse
    config_flag = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    config_flag.add_argument("--config", nargs="?")
    try:
        config_path = config_flag.parse_known_args(argv)[0].config
        entries = []
        if config_path and argv[0] in parser._by_subcommand:
            entries = _config_args(parser, argv[0], config_path)
        args = parser.parse_args(argv[:1] + entries + argv[1:])
        if args.config != config_path:  # abbreviated, so not read above
            raise ValueError("--config must be spelled out in full")
        _refuse_irregular_outputs(args)
        _keep_read_options(args)
        with capture_warnings() as warnings:
            values = args.func(args)
        if values is not None:
            # the config is every option the run read but its files and seed,
            # with the subcommand, the report mode and the handler's values
            reads, writes = FILE_OPTIONS[args.subcommand]
            config = {dest: value for dest, value in vars(args).items()
                      if dest not in {*reads, *writes, "config", "seed", "func"}} | values
            seeds = {"seed": args.seed} if hasattr(args, "seed") else {}
            manifest = RunManifest(["debias-embed"] + argv, config, seeds, {}, warnings=warnings)
            inputs, outputs = _files(args)
            manifest_path = outputs.pop("manifest")
            for path in inputs.values():
                manifest.add_input(path)
            for path in outputs.values():
                manifest.add_output(path)
            manifest.write(manifest_path)
        return 0
    except SystemExit as exc:  # a usage error, or --help
        return int(exc.code or 0)
    except OSError as exc:
        print(f"debias-embed: i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"debias-embed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
