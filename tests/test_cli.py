import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import debias_embed
from debias_embed import cli, embeddings, extrinsic
from debias_embed.align import apply_map, load_dictionary, merge_spaces, procrustes_fit
from debias_embed.cli import main
from debias_embed.debias import DebiasConfig, run_variant
from debias_embed.embeddings import EmbeddingSpace, load_vec, normalize, save_vec
from debias_embed.intrinsic import inbias
from debias_embed.lexicon import builtin_lexicon, split_pairs
from debias_embed.subspace import save_subspace
from helpers import (
    inline_and_on_workers,
    load_script,
    orthonormal_rows,
    unit_rows,
)
from planted import language_world


@pytest.fixture()
def en_vec(tmp_path):
    lex = builtin_lexicon()
    words = lex.words("en")
    rng = np.random.default_rng(17)
    space = EmbeddingSpace("en", words, unit_rows(rng, len(words), 16), normalized=True)
    path = tmp_path / "en.vec"
    save_vec(space, str(path))
    return str(path)


def run(argv):
    return main([str(a) for a in argv])


def test_debias_writes_outputs_and_manifest(tmp_path, en_vec, capsys):
    out = tmp_path / "out.vec"
    code = run(["debias", "--emb", en_vec, "--languages", "en", "--out", out])
    assert code == 0
    assert out.exists()
    assert (tmp_path / "out.vec.subspace.json").exists()
    manifest = json.loads((tmp_path / "out.vec.manifest.json").read_text())
    assert manifest["config"]["variant"] == "mono"
    assert manifest["seeds"] == {"seed": 0}
    assert en_vec in manifest["inputs"]
    assert str(out) in manifest["outputs"]
    assert "debiased" in capsys.readouterr().out

    sub = json.loads((tmp_path / "out.vec.subspace.json").read_text())
    assert sub["method"] == "pca"
    assert sub["k"] == 4
    basis = np.array(sub["basis"])
    debiased = load_vec(str(out), "en")
    assert np.abs(debiased.matrix @ basis.T).max() < 1e-6


@pytest.mark.parametrize("failing", ["subspace", "vec"])
def test_a_failed_debias_write_leaves_both_outputs_as_they_were(tmp_path, en_vec, monkeypatch,
                                                               capsys, failing):
    out, subspace_out = tmp_path / "o.vec", tmp_path / "s.json"
    out.write_text("old vec\n", encoding="utf-8")
    if failing == "subspace":  # a directory that does not exist
        subspace_out = tmp_path / "no_such_dir" / "s.json"
    else:
        subspace_out.write_text("old subspace\n", encoding="utf-8")

        def refuse(space, path, precision=9):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("partial")
            raise OSError("disk full")

        monkeypatch.setattr(embeddings, "save_vec", refuse)
    before = sorted(os.listdir(tmp_path))
    assert run(["debias", "--emb", en_vec, "--languages", "en", "--out", out,
                "--subspace-out", subspace_out]) == 2
    assert "i/o error" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before  # no manifest, no temporary file
    assert out.read_text(encoding="utf-8") == "old vec\n"
    if failing == "vec":
        assert subspace_out.read_text(encoding="utf-8") == "old subspace\n"


def rotated_copy(tmp_path, en_vec, extra_dict_lines=""):
    """A rotated copy of the en space as 'hi.vec' plus a 40-pair identity dictionary."""
    src = load_vec(en_vec, "en")
    rng = np.random.default_rng(23)
    rotated = EmbeddingSpace(
        "hi", src.vocab, src.matrix @ orthonormal_rows(rng, 16, 16).T, normalized=True
    )
    tgt_path = tmp_path / "hi.vec"
    save_vec(rotated, str(tgt_path))
    dict_path = tmp_path / "dict.tsv"
    dict_path.write_text(
        "".join(f"{w}\t{w}\n" for w in src.vocab[:40]) + extra_dict_lines, encoding="utf-8"
    )
    return src, rotated, tgt_path, dict_path


def test_align_round_trip(tmp_path, en_vec):
    src, rotated, tgt_path, dict_path = rotated_copy(tmp_path, en_vec)
    out = tmp_path / "aligned.vec"
    merged = tmp_path / "merged.vec"
    code = run([
        "align", "--src", en_vec, "--src-lang", "en", "--tgt", tgt_path,
        "--tgt-lang", "hi", "--dict", dict_path, "--out", out, "--merged-out", merged,
    ])
    assert code == 0
    aligned = load_vec(str(out), "en")
    np.testing.assert_allclose(aligned.matrix, rotated.matrix, atol=1e-6)
    merged_space = load_vec(str(merged), "en+hi")
    assert merged_space.vocab[0].startswith("en:")
    assert len(merged_space) == 2 * len(src)


def test_report_inbias_json(tmp_path, en_vec, capsys):
    deb = tmp_path / "deb.vec"
    assert run(["debias", "--emb", en_vec, "--languages", "en", "--out", deb]) == 0
    capsys.readouterr()
    report = tmp_path / "inbias.json"
    code = run([
        "report", "--inbias", "--emb", en_vec, "--emb-after", deb,
        "--languages", "en", "--json", report,
    ])
    assert code == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0].split() == ["lang", "orig", "debiased"]
    payload = json.loads(report.read_text())
    assert payload["metric"] == "inbias"
    assert set(payload["values"]) == {"orig", "debiased"}
    assert payload["manifest"] == "inbias.json.manifest.json"
    assert (tmp_path / "inbias.json.manifest.json").exists()


def test_report_inbias_logs_each_warning_once_and_scores_each_language_alone(tmp_path):
    lex = builtin_lexicon()
    seed = lex.seed_sets["hi"].male[0]
    words = tuple(f"{t}:{w}" for t in ("hi", "en") for w in lex.words(t) if (t, w) != ("hi", seed))
    emb, report = tmp_path / "merged.vec", tmp_path / "r.json"
    space = EmbeddingSpace("hi+en", words, unit_rows(np.random.default_rng(4), len(words), 16))
    save_vec(space, str(emb), precision=17)
    assert run(["report", "--inbias", "--emb", emb, "--languages", "hi,en", "--seeds", "lexicon",
                "--json", report]) == 0
    warnings = json.loads((tmp_path / "r.json.manifest.json").read_text())["warnings"]
    assert len(warnings) == len(set(warnings))
    assert f"inbias: male seed {seed!r} [hi] is out of vocabulary" in warnings
    # each row is the value inbias gives over that language alone, bit for bit
    space = normalize(load_vec(emb, "hi+en"))
    assert json.loads(report.read_text())["values"]["orig"] == {
        key: inbias(space, lex, langs).value
        for key, langs in (("hi", ["hi"]), ("en", ["en"]), ("all", ["hi", "en"]))}


def test_report_inbias_names_the_language_none_of_whose_occupation_pairs_resolves(tmp_path,
                                                                                 capsys):
    lex = builtin_lexicon()
    occupations = {("hi", w) for pair in lex.occupation_pairs["hi"] for w in pair}
    words = tuple(f"{t}:{w}" for t in ("hi", "en") for w in lex.words(t)
                  if (t, w) not in occupations)
    emb = tmp_path / "merged.vec"
    space = EmbeddingSpace("hi+en", words, unit_rows(np.random.default_rng(4), len(words), 16))
    save_vec(space, str(emb))
    assert run(["report", "--inbias", "--emb", emb, "--languages", "hi,en",
                "--seeds", "lexicon"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "debias-embed: no occupation pair of 'hi' is resolvable in the space")


def test_a_language_without_entries_is_named_when_no_pair_resolves(tmp_path, en_vec, capsys):
    # an unmerged en.vec read under the merged tag en+hi resolves no pair;
    # xscore fits one language at a time, debias pools them, and both name each
    xscore = ["report", "--xscore", "--emb", en_vec, "--languages", "en,hi"]
    debias = ["debias", "--emb", en_vec, "--languages", "en,hi", "--variant", "multi",
              "--out", tmp_path / "out.vec"]
    for argv in (xscore, debias):
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "debias-embed: no gender pair is resolvable in the space" + "".join(
                f"; none of {lang!r} resolved (the space holds no '{lang}:' entries)"
                for lang in ["en", "hi"]))


def test_report_xscore_table(tmp_path, en_vec, capsys):
    code = run(["report", "--xscore", "--emb", en_vec, "--languages", "en"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["lang", "N_en"]
    assert lines[1].split() == ["b_en", "1.000"]
    assert list(tmp_path.glob("*.manifest.json")) == []  # without --json, no file and no manifest


def write_bios(tmp_path, name="bios.tsv", seed=5):
    """200 doctor/nurse bios skewed 9:1 by gender, written of en profession words."""
    corpus = tmp_path / name
    professions = builtin_lexicon().neutral_words["en"].professions
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(200):
        occ = ("doctor", "nurse")[i % 2]
        gender = "M" if (rng.random() < (0.9 if occ == "doctor" else 0.1)) else "F"
        tokens = " ".join(rng.choice(professions, size=6))
        rows.append(f"{gender}\t{occ}\t{tokens}\n")
    corpus.write_text("".join(rows), encoding="utf-8")
    return corpus


def test_report_exbias_before_after(tmp_path, en_vec, capsys, monkeypatch):
    corpus = write_bios(tmp_path)
    deb = tmp_path / "deb.vec"
    assert run(["debias", "--emb", en_vec, "--languages", "en", "--out", deb]) == 0
    capsys.readouterr()
    reads = []
    load_corpus = extrinsic.load_corpus
    monkeypatch.setattr(extrinsic, "load_corpus", lambda *a: reads.append(a) or load_corpus(*a))
    report = tmp_path / "ex.json"
    code = run([
        "report", "--exbias", "--emb", en_vec, "--emb-after", deb, "--corpus", corpus,
        "--languages", "en", "--min-count", "10", "--json", report,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["emb", "M", "F", "|Diff|", "f_i"]
    payload = json.loads(report.read_text())
    assert set(payload["runs"]) == {"orig", "debiased"}
    assert payload["runs"]["debiased"]["f_i"] is not None
    for run_ in payload["runs"].values():
        fit = run_["fit"]
        assert set(fit) == {"iterations", "evaluations", "grad_norm", "converged"}
        assert fit["converged"] and fit["grad_norm"] <= extrinsic.FIT_GRAD_TOL
        assert 0 < fit["iterations"] < fit["evaluations"] <= 60
    assert len(reads) == 1  # without --corpus-after, both runs use the one corpus read


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def align_run(tmp_path, en_vec):
    oov = "notaword\tnotaword\n"
    _, _, hi_vec, dictionary = rotated_copy(tmp_path, en_vec, extra_dict_lines=oov)
    out, merged = tmp_path / "aligned.vec", tmp_path / "merged.vec"
    argv = ["align", "--src", en_vec, "--src-lang", "en", "--tgt", hi_vec, "--tgt-lang", "hi",
            "--dict", dictionary, "--out", out, "--merged-out", merged]
    return argv, [en_vec, hi_vec, dictionary], [out, merged], f"{out}.manifest.json"


def debias_run(tmp_path, en_vec):
    out = tmp_path / "deb.vec"
    argv = ["debias", "--emb", en_vec, "--languages", "en", "--out", out]
    return argv, [en_vec], [out, f"{out}.subspace.json"], f"{out}.manifest.json"


def report_run(mode, before_after, corpus=False):
    def make(tmp_path, en_vec):
        argv, inputs = ["report", mode, "--emb", en_vec, "--languages", "en"], [en_vec]
        if before_after:
            deb = tmp_path / "deb.vec"
            assert run(["debias", "--emb", en_vec, "--languages", "en", "--out", deb]) == 0
            argv += ["--emb-after", deb]
            inputs.append(deb)
        if corpus:
            bios = write_bios(tmp_path)
            argv += ["--corpus", bios, "--min-count", "10"]
            inputs.append(bios)
        report = tmp_path / "report.json"
        return argv + ["--json", report], inputs, [report], f"{report}.manifest.json"

    return make


@pytest.mark.parametrize("make_run", [
    align_run,
    debias_run,
    report_run("--inbias", before_after=True),
    report_run("--xscore", before_after=False),
    report_run("--exbias", before_after=True, corpus=True),
], ids=["align", "debias", "inbias", "xscore", "exbias"])
def test_manifest_records_exactly_what_the_run_read_and_wrote(tmp_path, en_vec, make_run,
                                                                capsys):
    argv, inputs, outputs, manifest_path = make_run(tmp_path, en_vec)
    argv = [str(a) for a in argv]
    capsys.readouterr()
    assert main(argv) == 0
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == ["debias-embed"] + argv
    assert manifest["inputs"] == {str(p): sha256(p) for p in inputs}
    assert manifest["outputs"] == {str(p): sha256(p) for p in outputs}
    if argv[0] == "align":
        assert ("procrustes_fit: dropped 1/41 dictionary pair(s) with out-of-vocabulary words"
                in manifest["warnings"])
        assert capsys.readouterr().out == (
            f"aligned with 40 of 41 dictionary pair(s) -> {argv[argv.index('--out') + 1]}\n")


@pytest.mark.parametrize("mode, config, seeds", [
    ("align", {"subcommand": "align", "src_lang": "en", "tgt_lang": "hi", "precision": 9,
               "fit_pairs": 40}, {}),
    ("debias", {"subcommand": "debias", "variant": "mono", "method": "pca", "k": 2,
                "scope": "all", "renormalize": False, "languages": ["en"], "train_count": 10,
                "precision": 9}, {"seed": 3}),
    ("--inbias", {"seeds": "test", "train_count": 10}, {"seed": 0}),
    ("--inbias --seeds lexicon", {"seeds": "lexicon"}, {}),
    ("--xscore", {"epsilon": 1e-8}, {}),
    ("--exbias", {"corpus_lang": None, "min_count": 10, "test_fraction": 0.2,
                  "l2_penalty": 1e-3, "fit_grad_tol": 1e-6}, {"seed": 0}),
], ids=["align", "debias", "inbias", "inbias-seeds-lexicon", "xscore", "exbias"])
def test_report_manifest_records_exactly_the_options_its_mode_reads(tmp_path, en_vec, mode,
                                                                    config, seeds):
    # the file options are among the manifest's inputs and outputs, so not in its config
    if mode == "align":
        argv, _, _, manifest_path = align_run(tmp_path, en_vec)
    elif mode == "debias":
        argv, _, _, manifest_path = debias_run(tmp_path, en_vec)
        argv += ["--k", "2", "--seed", "3"]
    else:
        manifest_path = tmp_path / "r.json.manifest.json"
        argv = ["report", *mode.split(), "--emb", en_vec, "--languages", "en",
                "--json", tmp_path / "r.json"]
        if mode == "--exbias":
            argv += ["--corpus", write_bios(tmp_path), "--min-count", "10"]
        config = {"subcommand": "report", "mode": mode.split()[0][2:], "languages": ["en"],
                  **config}
    assert run(argv) == 0
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["config"] == config
    assert manifest["seeds"] == seeds


@pytest.mark.parametrize("mode, flag", [
    ("--xscore", "--emb-after"),
    ("--xscore", "--corpus"),
    ("--xscore", "--corpus-after"),
    ("--inbias", "--corpus"),
    ("--inbias", "--corpus-after"),
    ("--exbias", "--corpus-after"),  # read only for an --emb-after run
], ids=["xscore-emb-after", "xscore-corpus", "xscore-corpus-after", "inbias-corpus",
        "inbias-corpus-after", "exbias-corpus-after-without-emb-after"])
@pytest.mark.parametrize("given_in", ["argv", "config"])
def test_report_refuses_a_file_flag_its_mode_does_not_read(tmp_path, en_vec, capsys, mode, flag,
                                                           given_in):
    report = tmp_path / "r.json"
    argv = ["report", mode, "--emb", en_vec, "--languages", "en", "--json", report]
    if given_in == "argv":
        argv += [flag, en_vec]
    else:
        config = tmp_path / "c.json"
        config.write_text(json.dumps({flag[2:].replace("-", "_"): en_vec}))
        argv += ["--config", config]
    assert run(argv) == 1
    assert f"{flag} is not read by {mode}" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("mode, option", [
    ("--inbias", ["--epsilon", "0.5"]),
    ("--xscore", ["--seeds", "lexicon"]),
    ("--exbias", ["--train-count", "3"]),
    ("--xscore", ["--seed", "3"]),
    ("--inbias --seeds lexicon", ["--train-count", "3"]),  # read only for --seeds test
    ("--inbias --seeds lexicon", ["--seed", "7"]),
], ids=["inbias-epsilon", "xscore-seeds", "exbias-train-count", "xscore-seed",
        "inbias-seeds-lexicon-train-count", "inbias-seeds-lexicon-seed"])
@pytest.mark.parametrize("given_in", ["argv", "config"])
def test_report_refuses_an_option_its_mode_does_not_read(tmp_path, en_vec, capsys, mode, option,
                                                        given_in):
    flag, value = option
    report = tmp_path / "r.json"
    argv = ["report", *mode.split(), "--emb", en_vec, "--languages", "en", "--json", report]
    if given_in == "argv":
        argv += option
    else:
        config = tmp_path / "c.json"
        dest = flag[2:].replace("-", "_")
        config.write_text(json.dumps({dest: int(value) if value.isdigit() else value}))
        argv += ["--config", config]
    assert run(argv) == 1
    assert f"{flag} is not read by {mode}" in capsys.readouterr().err
    assert not report.exists()


def test_the_option_tables_agree_with_the_parser():
    # a report option that no table names is read by every mode: so one with no
    # default, not required, would go unrefused where a mode does not read it
    parsers = cli.build_parser()._by_subcommand
    flags = {name: {a.dest: a.option_strings[0] for a in p._actions}
             for name, p in parsers.items()}
    for name, (reads, writes) in cli.FILE_OPTIONS.items():
        for dest, flag in {**reads, **writes}.items():
            assert flags[name].get(dest) == flag
    tabled = {*cli.MODE_OPTIONS, *(dest for o in cli.MODE_OPTIONS.values() for dest in o)}
    assert tabled <= set(flags["report"])
    tabled |= {*cli.FILE_OPTIONS["report"][0], *cli.FILE_OPTIONS["report"][1]}
    assert [a.dest for a in parsers["report"]._actions
            if a.default is None and not a.required and a.dest not in tabled] == ["config"]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_report_refuses_a_non_finite_guard(tmp_path, en_vec, value):
    # in a child process, so that every log line and numpy warning reaches its stderr
    report = tmp_path / "r.json"
    argv = ["report", "--xscore", "--emb", en_vec, "--languages", "en", "--epsilon", value,
            "--json", str(report)]
    proc = subprocess.run([sys.executable, "-m", "debias_embed.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"debias-embed: epsilon must be positive and finite, got {value}"]
    assert not report.exists()


@pytest.mark.parametrize("flag", ["--epochs", "--learning-rate"])
@pytest.mark.parametrize("given_in", ["argv", "config"])
def test_report_exbias_takes_no_descent_budget(tmp_path, en_vec, capsys, flag, given_in):
    # the fit runs to its tolerance, so there is no epoch count or rate to set
    report = tmp_path / "r.json"
    argv = ["report", "--exbias", "--emb", en_vec, "--languages", "en", "--corpus",
            write_bios(tmp_path), "--json", report]
    if given_in == "argv":
        argv += [flag, "1"]
        message = f"unrecognized arguments: {flag} 1"
    else:
        config = tmp_path / "c.json"
        key = flag[2:].replace("-", "_")
        config.write_text(json.dumps({key: 1}))
        argv += ["--config", config]
        message = f"unknown config key(s) {key} for 'report'"
    assert run(argv) == 1
    assert message in capsys.readouterr().err
    assert not report.exists()

def test_report_exbias_records_a_fit_that_hits_the_iteration_cap(tmp_path, en_vec, monkeypatch):
    monkeypatch.setattr(extrinsic, "FIT_MAX_ITER", 2)
    report = tmp_path / "r.json"
    assert run(["report", "--exbias", "--emb", en_vec, "--languages", "en", "--corpus",
                write_bios(tmp_path), "--min-count", "10", "--json", report]) == 0
    fit = json.loads(report.read_text())["runs"]["orig"]["fit"]
    assert fit["iterations"] == 2 and not fit["converged"]
    manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
    assert manifest["warnings"] == [
        f"train_classifier: stopped after 2 iteration(s) with gradient norm "
        f"{fit['grad_norm']:.3g}, above the tolerance 1e-06"]


DEBIAS = ["debias", "--emb", "missing.vec", "--languages", "en", "--out"]
ALIGN = ["align", "--src", "missing.vec", "--src-lang", "hi", "--tgt", "missing.vec",
         "--tgt-lang", "en", "--dict", "missing.tsv", "--out"]
REPORT = ["report", "--xscore", "--emb", "missing.vec", "--languages", "en", "--json"]


@pytest.mark.parametrize("argv, derived", [
    (DEBIAS, None),
    (DEBIAS + ["o.vec", "--subspace-out"], None),
    (ALIGN, None),
    (ALIGN + ["a.vec", "--merged-out"], None),
    (REPORT, None),
    (DEBIAS + ["o.vec"], ("--subspace-out", "o.vec.subspace.json")),
    (DEBIAS + ["o.vec"], ("manifest", "o.vec.manifest.json")),
    (DEBIAS + ["o.vec", "--subspace-out", "s.json"], ("manifest", "o.vec.manifest.json")),
    (ALIGN + ["a.vec", "--merged-out", "m.vec"], ("manifest", "a.vec.manifest.json")),
    (REPORT + ["r.json"], ("manifest", "r.json.manifest.json")),
], ids=["debias", "debias-subspace-out", "align", "align-merged-out", "report",
        "debias-default-subspace-out", "debias-manifest", "debias-manifest-given-subspace-out",
        "align-manifest", "report-manifest"])
@pytest.mark.parametrize("output", ["/dev/null", "a directory"])
def test_an_output_that_is_not_a_regular_file_is_refused_before_any_input_is_read(
        tmp_path, monkeypatch, capsys, argv, derived, output):
    monkeypatch.chdir(tmp_path)  # where a relative --out would be written
    if derived is None:  # the last option names the output
        path, watched = ("/dev/null", "/dev") if output == "/dev/null" else (str(tmp_path),) * 2
        flag, argv = argv[-1], argv + [path]
    else:  # a path the run derives from its options
        (flag, path), watched = derived, str(tmp_path)
        if output == "/dev/null":
            os.symlink("/dev/null", path)
        else:
            os.mkdir(path)
    listed = sorted(os.listdir(watched))
    # a missing input would exit 2; the refusal comes first
    assert run(argv) == 1
    assert f"{flag} {path}: exists and is not a regular file" in capsys.readouterr().err
    assert sorted(os.listdir(watched)) == listed  # no file written beside it


@pytest.mark.parametrize("argv, flags", [
    (["debias", "--emb", "missing.vec", "--languages", "en", "--out", "o.vec",
      "--subspace-out", "./o.vec"], "--out and --subspace-out"),
    (["align", "--src", "missing.vec", "--src-lang", "hi", "--tgt", "missing.vec",
      "--tgt-lang", "en", "--dict", "missing.tsv", "--out", "o.vec", "--merged-out", "o.vec"],
     "--out and --merged-out"),
], ids=["debias", "align"])
def test_two_outputs_of_one_file_are_refused_before_any_input_is_read(
        tmp_path, monkeypatch, capsys, argv, flags):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "o.vec").write_bytes(b"an earlier run's output\n")
    assert run(argv) == 1  # a missing input would exit 2; the refusal comes first
    assert f"{flags} name the same file" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["o.vec"]
    assert (tmp_path / "o.vec").read_bytes() == b"an earlier run's output\n"


@pytest.mark.parametrize("argv, flags", [
    (["debias", "--emb", "o.vec", "--languages", "en", "--out", "./o.vec"], "--emb and --out"),
    (["debias", "--emb", "e.vec", "--languages", "en", "--lexicon", "./o.vec", "--out",
      "x.vec", "--subspace-out", "o.vec"], "--lexicon and --subspace-out"),
    (["debias", "--emb", "o.vec.manifest.json", "--languages", "en", "--out", "o.vec"],
     "--emb and manifest"),
    (ALIGN[:2] + ["o.vec"] + ALIGN[3:] + ["o.vec"], "--src and --out"),
    (ALIGN[:6] + ["o.vec"] + ALIGN[7:] + ["a.vec", "--merged-out", "o.vec"],
     "--tgt and --merged-out"),
    (ALIGN[:10] + ["o.vec"] + ALIGN[11:] + ["o.vec"], "--dict and --out"),
    (["report", "--xscore", "--emb", "o.vec", "--languages", "en", "--json", "o.vec"],
     "--emb and --json"),
    (REPORT + ["o.vec", "--emb-after", "o.vec"], "--emb-after and --json"),
    (REPORT + ["o.vec", "--lexicon", "o.vec"], "--lexicon and --json"),
    (["report", "--exbias", "--emb", "e.vec", "--languages", "en", "--corpus", "o.vec",
      "--json", "o.vec"], "--corpus and --json"),
    (["report", "--exbias", "--emb", "e.vec", "--languages", "en", "--corpus", "c.tsv",
      "--corpus-after", "o.vec", "--json", "o.vec"], "--corpus-after and --json"),
], ids=["debias-emb", "debias-lexicon", "debias-manifest", "align-src", "align-tgt",
        "align-dict", "report-emb", "report-emb-after", "report-lexicon", "report-corpus",
        "report-corpus-after"])
def test_an_output_that_is_an_input_is_refused_before_any_input_is_read(
        tmp_path, monkeypatch, capsys, argv, flags):
    # a run in place would hash its input after overwriting it
    monkeypatch.chdir(tmp_path)
    name = "o.vec.manifest.json" if "manifest" in flags else "o.vec"
    (tmp_path / name).write_bytes(b"an earlier run's output\n")
    assert run(argv) == 1  # a missing input would exit 2; the refusal comes first
    assert f"{flags} name the same file" in capsys.readouterr().err
    assert os.listdir(tmp_path) == [name]
    assert (tmp_path / name).read_bytes() == b"an earlier run's output\n"


@pytest.mark.parametrize("argv, flag", [
    (["debias", "--out", "c.json"], "--out"),
    (["debias", "--out", "o.vec", "--subspace-out", "c.json"], "--subspace-out"),
    (ALIGN + ["c.json"], "--out"),
    (["report", "--xscore", "--json", "c.json"], "--json"),
], ids=["debias-out", "debias-subspace-out", "align-out", "report-json"])
def test_an_output_that_is_the_config_file_is_refused_before_any_input_is_read(
        tmp_path, monkeypatch, capsys, argv, flag):
    # the run would overwrite its own record of how it was configured
    monkeypatch.chdir(tmp_path)
    config = json.dumps({"emb": "missing.vec", "languages": "en"} if argv[0] != "align" else {})
    (tmp_path / "c.json").write_text(config)
    assert run(argv + ["--config", "c.json"]) == 1  # a missing input would exit 2
    assert f"--config and {flag} name the same file c.json" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.json"]
    assert (tmp_path / "c.json").read_text() == config


def test_manifest_lists_the_config_file_among_the_inputs(tmp_path, en_vec):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"emb": en_vec, "languages": "en", "k": 2}))
    out = tmp_path / "o.vec"
    assert run(["debias", "--config", config, "--out", out]) == 0
    manifest = json.loads((tmp_path / "o.vec.manifest.json").read_text())
    assert manifest["inputs"] == {str(config): sha256(config), en_vec: sha256(en_vec)}


@pytest.mark.parametrize("src_lang, tgt_lang, shared", [("en", "en", "en"),
                                                        ("en+hi", "hi", "hi"),
                                                        ("te", "hi+te", "te")])
def test_align_merged_out_refuses_tags_that_share_a_language_before_any_input_is_read(
        tmp_path, capsys, src_lang, tgt_lang, shared):
    # the merged file would hold the shared language's words twice, which no reader takes
    ghost = tmp_path / "ghost"  # reading any input would fail with exit 2
    argv = ["align", "--src", ghost, "--src-lang", src_lang, "--tgt", ghost,
            "--tgt-lang", tgt_lang, "--dict", ghost, "--out", tmp_path / "a.vec"]
    assert run(argv + ["--merged-out", tmp_path / "m.vec"]) == 1
    assert f"both hold language {shared!r}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    assert run(argv) == 2  # without a merge, the tags may share a language


@pytest.mark.parametrize("kind", ["vec", "dict", "corpus", "lexicon"])
def test_undecodable_byte_names_path_and_line(tmp_path, en_vec, capsys, kind):
    path = tmp_path / f"bad.{kind}"
    path.write_bytes({
        "vec": b"3 2\nking 1.0 0.0\nqueen\xff 0.0 1.0\nman 0.5 0.5\n",
        "dict": b"king\tking\r\nman\tman\r\nqueen\xff\tqueen\r\n",
        "corpus": b"M\tdoctor\the is\nF\tnurse\tshe is\nM\tdoctor\the\xff is\n",
        "lexicon": b'{\n "languages":\n  {"en\xff": {}}\n}\n',
    }[kind])
    out = tmp_path / "o.vec"
    argv = {
        "vec": ["debias", "--emb", path, "--languages", "en", "--out", out],
        "dict": ["align", "--src", en_vec, "--src-lang", "en", "--tgt", en_vec,
                 "--tgt-lang", "hi", "--dict", path, "--out", out],
        "corpus": ["report", "--exbias", "--emb", en_vec, "--languages", "en",
                   "--corpus", path],
        "lexicon": ["debias", "--emb", en_vec, "--languages", "en", "--lexicon", path,
                    "--out", out],
    }[kind]
    assert run(argv) == 1
    assert f"{path}: line 3: byte 0xff is not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("precision", ["0", "-3"])
@pytest.mark.parametrize("subcommand", ["align", "debias"])
def test_precision_below_one_is_refused_before_any_input_is_read(tmp_path, capsys, subcommand,
                                                                  precision):
    ghost = tmp_path / "ghost"  # reading any input would fail with exit 2
    argv = {
        "align": ["align", "--src", ghost, "--src-lang", "en", "--tgt", ghost,
                  "--tgt-lang", "hi", "--dict", ghost],
        "debias": ["debias", "--emb", ghost, "--languages", "en", "--lexicon", ghost],
    }[subcommand]
    assert run(argv + ["--out", tmp_path / "o.vec", "--precision", precision]) == 1
    assert f"argument --precision: must be at least 1, got {precision}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_usage_error_exits_one(tmp_path, capsys):
    assert run(["align", "--src", "x.vec"]) == 1  # missing required flags
    assert run(["nosuchcommand"]) == 1
    # align always re-normalizes; the flag that skipped it is gone
    assert run(["align", "--src", "a.vec", "--src-lang", "hi", "--tgt", "b.vec",
                "--tgt-lang", "en", "--dict", "d.tsv", "--out", "o.vec",
                "--no-renormalize"]) == 1
    # debias fits PCA to the differences as they are; the flag that centered them is gone
    assert run(["debias", "--emb", "e.vec", "--languages", "en", "--out", "o.vec",
                "--center"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_missing_input_exits_two(tmp_path, capsys):
    out = tmp_path / "o.vec"
    assert run(["debias", "--emb", str(tmp_path / "ghost.vec"), "--languages", "en",
                "--out", out]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_validation_error_exits_one(tmp_path, en_vec, capsys):
    out = tmp_path / "o.vec"
    assert run(["debias", "--emb", en_vec, "--languages", "en", "--k", "0",
                "--out", out]) == 1
    assert run(["debias", "--emb", en_vec, "--languages", "en,hi", "--variant", "mono",
                "--out", out]) == 1


def test_config_file_defaults_and_flag_override(tmp_path, en_vec):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"k": 2, "method": "ppa"}))
    out = tmp_path / "o.vec"
    assert run(["debias", "--emb", en_vec, "--languages", "en", "--config", config,
                "--k", "3", "--out", out]) == 0
    sub = json.loads((tmp_path / "o.vec.subspace.json").read_text())
    assert sub["method"] == "ppa"  # from the config file
    assert sub["k"] == 3  # flag wins over the config file

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": True}))
    assert run(["debias", "--emb", en_vec, "--languages", "en", "--config", bad,
                "--out", out]) == 1


@pytest.mark.parametrize("argv, entries, message", [
    (DEBIAS, {"precision": 0}, "argument --precision: must be at least 1, got 0"),
    (DEBIAS, {"k": 2.5}, "argument --k: invalid int value: '2.5'"),
    (DEBIAS, {"seed": 1.5}, "argument --seed: invalid int value: '1.5'"),
    (DEBIAS, {"seed": -1}, "argument --seed: must be at least 0, got -1"),
    (REPORT[:1] + ["--exbias", "--corpus", "missing.tsv"] + REPORT[2:], {"seed": -1},
     "argument --seed: must be at least 0, got -1"),
    (DEBIAS, {"renormalize": "no"}, "config key 'renormalize' takes true or false, got \"no\""),
    (DEBIAS, {"center": True}, "unknown config key(s) center for 'debias'"),
    (DEBIAS, {"k": None}, "config key 'k' takes a string or a number, got null"),
    (REPORT[:1] + ["--exbias", "--corpus", "missing.tsv"] + REPORT[2:], {"min_count": 1.5},
     "argument --min-count: invalid int value: '1.5'"),
    (REPORT[:1] + ["--exbias", "--corpus", "missing.tsv"] + REPORT[2:], {"min_count": -5},
     "argument --min-count: must be at least 0, got -5"),
    (REPORT[:1] + ["--inbias"] + REPORT[2:], {"seeds": "bogus"},
     "argument --seeds: invalid choice: 'bogus'"),
    (REPORT, {"inbias": True}, "argument --xscore: not allowed with argument --inbias"),
], ids=["precision", "k", "seed", "negative-seed", "report-negative-seed", "switch", "gone",
        "null", "min-count", "negative-min-count", "choices", "mode"])
def test_config_entries_are_parsed_as_the_flags_they_name(tmp_path, capsys, argv, entries,
                                                          message):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(entries))
    # refused as the command line is parsed, before the missing input is read
    assert run(argv + [tmp_path / "out", "--config", config]) == 1
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.json"]


def test_config_may_supply_required_flags_and_the_report_mode(tmp_path, en_vec, capsys):
    config = tmp_path / "x.json"
    config.write_text(json.dumps({"xscore": True}))
    assert run(["report", "--emb", en_vec, "--languages", "en", "--config", config]) == 0
    from_config = capsys.readouterr().out
    assert run(["report", "--xscore", "--emb", en_vec, "--languages", "en"]) == 0
    assert from_config == capsys.readouterr().out

    out = tmp_path / "o.vec"
    config.write_text(json.dumps({"emb": en_vec, "languages": "en", "out": str(out)}))
    assert run(["debias", "--config", config]) == 0
    assert out.exists()


def test_abbreviated_config_flag_is_refused(tmp_path, en_vec, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"k": 2}))
    out = tmp_path / "o.vec"
    assert run(["debias", "--emb", en_vec, "--languages", "en", "--out", out,
                "--conf", config]) == 1
    assert "--config must be spelled out in full" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["debias", "--emb", "missing.vec", "--out", "o.vec"],
    ["report", "--inbias", "--emb", "missing.vec"],
    ["report", "--xscore", "--emb", "missing.vec"],
    ["report", "--exbias", "--emb", "missing.vec", "--corpus", "missing.tsv"],
], ids=["debias", "inbias", "xscore", "exbias"])
def test_repeated_language_tag_is_refused_before_any_input_is_read(tmp_path, monkeypatch, capsys,
                                                                   argv):
    monkeypatch.chdir(tmp_path)  # reading the missing input would exit 2
    assert run(argv + ["--languages", "en,hi,en"]) == 1
    assert "--languages names 'en' more than once" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, message", [
    (["debias", "--variant", "mono", "--languages", "en,hi", "--out", "o.vec"],
     "variant 'mono' uses exactly one language, got 2"),
    (["debias", "--variant", "eqr", "--k", "3", "--languages", "en,hi", "--out", "o.vec"],
     "k=3 is not divisible by the language count 2"),
    (["report", "--xscore", "--languages", "en,xx", "--json", "r.json"],
     "unknown language 'xx' in lexicon"),
    (["report", "--inbias", "--seeds", "lexicon", "--languages", "xx", "--json", "r.json"],
     "unknown language 'xx' in lexicon"),
    (["debias", "--languages", "en,xx", "--variant", "multi", "--out", "o.vec"],
     "unknown language 'xx' in lexicon"),
], ids=["debias-mono", "debias-eqr", "xscore", "inbias-lexicon", "debias-unknown"])
def test_languages_a_run_cannot_use_are_refused_before_any_input_is_read(
        tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)  # reading the missing input would exit 2
    assert run(argv + ["--emb", "missing.vec"]) == 1
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("languages", [["en", "hi", "be", "te"], ["te", "be", "hi", "en"]],
                         ids=["lexicon-order", "reversed"])
def test_eqr_ppa_gives_each_language_its_share_on_the_demo_world(tmp_path, languages):
    # the demo's merged planted world: each language fits its own k/L directions
    world = language_world(builtin_lexicon(), dim=64, beta=0.5, noise=0.08, seed=0)
    spaces = {tag: EmbeddingSpace(tag, lang.words, lang.rows, normalized=True)
              for tag, lang in world.items()}
    path = tmp_path / "world.vec"
    save_vec(load_script("run_synthetic_demo").merge_all(spaces), str(path))
    assert run(["debias", "--emb", path, "--languages", ",".join(languages), "--variant", "eqr",
                "--method", "ppa", "--k", "4", "--seed", "0", "--out", tmp_path / "o.vec"]) == 0
    saved = json.loads((tmp_path / "o.vec.subspace.json").read_text(encoding="utf-8"))
    # each language's own fit saturates here, so the four scores tie up to rounding
    # and keep the order of --languages
    assert saved["orientation_labels"] == languages
    warnings = json.loads((tmp_path / "o.vec.manifest.json").read_text())["warnings"]
    assert [w.split("[")[1].split("]")[0] for w in warnings if w.startswith("ppa_basis:")] \
        == languages


def test_reruns_are_byte_identical(tmp_path, en_vec, capsys):
    out = tmp_path / "out.vec"
    report = tmp_path / "r.json"

    def pipeline():
        assert run(["debias", "--emb", en_vec, "--languages", "en", "--method", "ppa",
                    "--k", "2", "--seed", "9", "--out", out]) == 0
        assert run(["report", "--inbias", "--emb", en_vec, "--emb-after", out,
                    "--languages", "en", "--seed", "9", "--json", report]) == 0

    pipeline()
    first = {
        name: (tmp_path / name).read_bytes()
        for name in ("out.vec", "out.vec.subspace.json", "r.json",
                     "out.vec.manifest.json", "r.json.manifest.json")
    }
    pipeline()
    capsys.readouterr()

    for name in ("out.vec", "out.vec.subspace.json", "r.json"):
        assert (tmp_path / name).read_bytes() == first[name], name

    # manifests may differ only in the timestamp key
    for name in ("out.vec.manifest.json", "r.json.manifest.json"):
        again = json.loads((tmp_path / name).read_text())
        original = json.loads(first[name].decode())
        again.pop("created_at")
        original.pop("created_at")
        assert again == original, name


def test_thread_cap_validation(monkeypatch, capsys):
    for value in ("zero", "0", "\u00b2"):  # a digit, but not a decimal one
        monkeypatch.setenv("DEBIAS_EMBED_THREADS", value)
        assert main(["report", "--xscore", "--emb", "x", "--languages", "en"]) == 1
        assert f"DEBIAS_EMBED_THREADS must be a positive integer, got {value!r}" in (
            capsys.readouterr().err)


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("cap, before, after", [
    ("1", ("2", "8", "1", None), ("1", "1", "1", "1")),
    ("4", ("1", "3", "4", "16"), ("1", "3", "4", "4")),
    ("2", ("0", "auto", "2,1", ""), ("2", "2", "2", "2")),
], ids=["larger-lowered", "smaller-kept", "not-an-integer-replaced"])
def test_thread_cap_lowers_every_blas_pool_above_it(monkeypatch, cap, before, after):
    monkeypatch.setenv("DEBIAS_EMBED_THREADS", cap)
    for var, value in zip(BLAS_THREAD_VARS, before):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    cli._apply_thread_cap()
    assert tuple(os.environ[var] for var in BLAS_THREAD_VARS) == after


def test_console_script_entry_point(tmp_path, en_vec):
    out = tmp_path / "o.vec"
    proc = subprocess.run(
        [sys.executable, "-m", "debias_embed.cli", "debias", "--emb", en_vec,
         "--languages", "en", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def write_lexicon_rows(path, n, tags=("en",), seed=0, d=300):
    """n random rows: the builtin lexicon words of ``tags``, ``"<tag>:"``
    prefixed if there are several, then filler words."""
    lex = builtin_lexicon()
    if len(tags) == 1:
        words = list(lex.words(tags[0]))
    else:
        words = [f"{t}:{w}" for t in tags for w in lex.words(t)]
    words += [f"filler{i}" for i in range(n - len(words))]
    space = EmbeddingSpace("+".join(tags), tuple(words),
                           unit_rows(np.random.default_rng(seed), n, d))
    save_vec(space, str(path))
    return str(path)


@pytest.mark.parametrize("flags", [
    [], ["--scope", "neutral"], ["--renormalize"], ["--scope", "neutral", "--renormalize"],
    ["--variant", "eqr"], ["--method", "ppa", "--k", "2"],
], ids=["default", "neutral", "renormalize", "neutral-renormalize", "eqr", "ppa"])
def test_streamed_debias_writes_what_the_library_path_writes(tmp_path, en_vec, monkeypatch,
                                                             flags):
    # 10-row blocks, so the 151-word space streams through 16 of them
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 10 * 16 * 8)
    out = tmp_path / "cli.vec"
    assert run(["debias", "--emb", en_vec, "--languages", "en", "--precision", "17",
                *flags, "--out", out]) == 0

    options = dict(zip(flags[::2], flags[1::2]))
    config = DebiasConfig(
        variant=options.get("--variant", "mono"), method=options.get("--method", "pca"),
        k=int(options.get("--k", 4)), scope=options.get("--scope", "all"),
        renormalize_after="--renormalize" in flags,
    )
    space = normalize(load_vec(en_vec, "en"))
    splits = {"en": split_pairs(builtin_lexicon(), "en", 10, 0)}
    debiased, used = run_variant(space, builtin_lexicon(), config, splits, seed=0)
    save_vec(debiased, str(tmp_path / "lib.vec"), precision=17)
    save_subspace(used, str(tmp_path / "lib.json"))
    assert out.read_bytes() == (tmp_path / "lib.vec").read_bytes()
    assert (tmp_path / "cli.vec.subspace.json").read_bytes() == (tmp_path / "lib.json").read_bytes()


def emb_rows(tmp_path, rows):
    """``--emb`` of a new ``rows``-row en space."""
    return ["--emb", write_lexicon_rows(tmp_path / f"{rows}.vec", rows)]


def align_rows(tmp_path, rows, src_tags=("en",)):
    """``--src``, ``--tgt`` and ``--dict`` of an ``align`` of a new
    ``rows``-row space onto another, with the same words: the lexicon's en
    words, ``"<tag>:"`` prefixed for several source tags, then filler words.
    The dictionary pairs each lexicon word with itself."""
    src = write_lexicon_rows(tmp_path / f"src{rows}.vec", rows,
                             src_tags if len(src_tags) > 1 else ("en",), seed=1)
    tgt = write_lexicon_rows(tmp_path / f"tgt{rows}.vec", rows)
    dictionary = tmp_path / "dict.tsv"
    prefix = "en:" if len(src_tags) > 1 else ""
    dictionary.write_text("".join(f"{prefix}{w}\t{w}\n" for w in builtin_lexicon().words("en")),
                          encoding="utf-8")
    return ["--src", src, "--src-lang", "+".join(src_tags), "--tgt", tgt, "--tgt-lang", "te",
            "--dict", dictionary]


def traced_peak(argv):
    """The traced peak memory of the CLI run ``argv``."""
    tracemalloc.start()
    try:
        assert run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_growth(tmp_path, argv, inputs=emb_rows):
    """How much more ``argv`` peaks at with the ``inputs`` of 4000 rows than
    with those of 1000, both more than two full 436-row blocks."""
    traced_peak(argv + inputs(tmp_path, 200))  # loads what every run shares, such as the lexicon
    small = traced_peak(argv + inputs(tmp_path, 1000))
    return traced_peak(argv + inputs(tmp_path, 4000)) - small


def test_debias_peak_memory_does_not_grow_with_the_row_count(tmp_path):
    argv = ["debias", "--languages", "en", "--out", tmp_path / "out.vec"]
    # 3000 more rows are 7.2 MB of matrix; only the first pass's word index grows
    assert peak_growth(tmp_path, argv) < embeddings.BLOCK_BYTES


def test_report_peak_memory_does_not_grow_with_the_row_count(tmp_path):
    argv = ["report", "--inbias", "--languages", "en"]
    # the lexicon's rows are parsed; the filler rows are only scanned
    assert peak_growth(tmp_path, argv) < embeddings.BLOCK_BYTES


def test_align_peak_memory_does_not_grow_with_the_row_count(tmp_path):
    argv = ["align", "--out", tmp_path / "aligned.vec", "--merged-out", tmp_path / "merged.vec"]
    # 3000 more rows are 7.2 MB of matrix on each side; only the dictionary rows are held
    assert peak_growth(tmp_path, argv, align_rows) < embeddings.BLOCK_BYTES


def align_outputs(tmp_path, inputs, merged=True):
    """The bytes of ``aligned.vec`` and, with ``merged``, of ``merged.vec``
    from an ``align`` of ``inputs`` into ``tmp_path / "out"``, at precision 17."""
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    argv = ["align", *inputs, "--precision", "17", "--out", out / "aligned.vec"]
    assert run(argv + ["--merged-out", out / "merged.vec"] * merged) == 0
    return (out / "aligned.vec").read_bytes(), merged and (out / "merged.vec").read_bytes()


@pytest.mark.parametrize("src_tags", [("hi",), ("hí",), ("hi", "en")],
                         ids=["plain", "non-ascii-tag", "merged-source"])
def test_align_writes_what_the_library_writes_for_the_whole_spaces(tmp_path, src_tags):
    inputs = align_rows(tmp_path, 1000, src_tags)  # three 436-row blocks
    src_tag = "+".join(src_tags)
    src, tgt, dict_path = (inputs[i] for i in (1, 5, 9))
    aligned_vec, merged_vec = align_outputs(tmp_path, inputs)
    source = normalize(load_vec(src, src_tag))
    target = normalize(load_vec(tgt, "te"))
    mapping = procrustes_fit(source, target, load_dictionary(dict_path, src_tag, "te"))
    aligned = normalize(apply_map(mapping, source))
    save_vec(aligned, str(tmp_path / "aligned.vec"), precision=17)
    save_vec(merge_spaces(aligned, target), str(tmp_path / "merged.vec"), precision=17)
    assert aligned_vec == (tmp_path / "aligned.vec").read_bytes()
    assert merged_vec == (tmp_path / "merged.vec").read_bytes()
    first = merged_vec.split(b"\n", 2)[1].split()[0].decode()
    lexicon = builtin_lexicon()
    assert first == (f"{src_tag}:{lexicon.words('en')[0]}" if len(src_tags) == 1
                     else f"hi:{lexicon.words('hi')[0]}")  # a merged source keeps its prefixes


def test_align_output_does_not_depend_on_the_block_size(tmp_path, monkeypatch):
    inputs = align_rows(tmp_path, 1000)
    default = align_outputs(tmp_path, inputs)
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 7 * 300 * 8)  # 7-row blocks
    assert align_outputs(tmp_path, inputs) == default


def test_align_without_merged_out_only_scans_the_target_rows_outside_the_dictionary(
        tmp_path, capsys):
    inputs = align_rows(tmp_path, 1000)
    tgt = tmp_path / "tgt1000.vec"
    clean = tgt.read_bytes().splitlines(True)
    expected = align_outputs(tmp_path, inputs, merged=False)
    unread, word = clean[900], clean[900].split()[0].decode()  # a filler row, line 901
    assert word.startswith("filler")
    # --merged-out parses every target row
    for line, message in (
            (unread.replace(b" ", b" x", 1),
             f"{tgt}: line 901: unparseable number in row for {word!r}"),
            (unread.split()[0] + b" 0" * 300 + b"\n", f"cannot normalize zero vector(s): {word!r}"),
    ):
        tgt.write_bytes(b"".join(clean[:900] + [line] + clean[901:]))
        assert align_outputs(tmp_path, inputs, merged=False) == expected
        assert run(["align", *inputs, "--out", tmp_path / "a.vec",
                    "--merged-out", tmp_path / "m.vec"]) == 1
        assert message in capsys.readouterr().err
    read = next(i for i, line in enumerate(clean) if line.startswith(b"doctor "))
    refused = {
        f"line {read + 1}: unparseable number in row for 'doctor'":
            clean[:read] + [clean[read].replace(b" ", b" x", 1)] + clean[read + 1:],
        "line 901: byte 0xff is not valid UTF-8": clean[:900] + [b"\xff" + unread] + clean[901:],
        "line 1001: header declared 1001 rows, found 1000": [b"1001 300\n"] + clean[1:],
    }
    for message, lines in refused.items():
        tgt.write_bytes(b"".join(lines))
        assert run(["align", *inputs, "--out", tmp_path / "a.vec"]) == 1
        assert f"{tgt}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("side", ["src", "tgt"])
def test_align_malformed_row_after_the_first_block_leaves_no_output(tmp_path, capsys, side):
    inputs = align_rows(tmp_path, 1000)
    bad = tmp_path / f"{side}1000.vec"
    lines = bad.read_text(encoding="utf-8").splitlines(True)
    lines[900] = lines[900].replace(" ", " x", 1)  # past the first 436-row block
    bad.write_text("".join(lines), encoding="utf-8")
    word = lines[900].split()[0]
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    fresh.mkdir()
    kept.mkdir()
    for name in ("aligned.vec", "merged.vec"):
        (kept / name).write_bytes(b"an earlier run's output\n")
    for out in (fresh, kept):
        assert run(["align", *inputs, "--out", out / "aligned.vec",
                    "--merged-out", out / "merged.vec"]) == 1
        assert (f"{bad}: line 901: unparseable number in row for {word!r}"
                in capsys.readouterr().err)
    assert os.listdir(fresh) == []
    assert sorted(os.listdir(kept)) == ["aligned.vec", "merged.vec"]
    assert {(kept / name).read_bytes() for name in os.listdir(kept)} == {
        b"an earlier run's output\n"}


def test_malformed_row_after_the_first_block_leaves_no_output(tmp_path, capsys):
    emb = tmp_path / "bad.vec"
    write_lexicon_rows(emb, 1000)
    lines = emb.read_text(encoding="utf-8").splitlines(True)
    lines[900] = lines[900].replace(" ", " x", 1)  # past the first 436-row block
    emb.write_text("".join(lines), encoding="utf-8")
    word = lines[900].split()[0]
    fresh, kept = tmp_path / "fresh" / "out.vec", tmp_path / "kept" / "out.vec"
    kept.parent.mkdir()
    kept.write_bytes(b"an earlier run's output\n")
    fresh.parent.mkdir()
    for out in (fresh, kept):
        assert run(["debias", "--emb", emb, "--languages", "en", "--out", out]) == 1
        assert (f"{emb}: line 901: unparseable number in row for {word!r}"
                in capsys.readouterr().err)
    assert os.listdir(fresh.parent) == []
    assert os.listdir(kept.parent) == ["out.vec"]
    assert kept.read_bytes() == b"an earlier run's output\n"


def debias_at_each_thread_count(tmp_path, argv):
    """The bytes of ``debias <argv> --out ...`` and its subspace JSON, run
    once at DEBIAS_EMBED_THREADS=1 and once at 2."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(debias_embed.__file__))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}.vec"
        proc = subprocess.run(
            [sys.executable, "-m", "debias_embed.cli", "debias", *argv, "--out", str(out)],
            env=dict(env, DEBIAS_EMBED_THREADS=threads), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        subspace = tmp_path / f"out{threads}.vec.subspace.json"
        outputs.append((out.read_bytes(), subspace.read_bytes()))
    return outputs


def test_precision_17_output_does_not_depend_on_the_thread_count(tmp_path):
    emb = write_lexicon_rows(tmp_path / "en.vec", 1000)
    first, second = debias_at_each_thread_count(
        tmp_path, ["--emb", emb, "--languages", "en", "--precision", "17"])
    assert first == second


@pytest.mark.parametrize("flags", [
    ["--method", "ppa", "--variant", "multi"],
    ["--method", "ppa", "--variant", "eqr", "--k", "8"],
    ["--method", "pca", "--variant", "eqr", "--k", "8"],  # four SVDs and a QR
], ids=["ppa-multi", "ppa-eqr-k8", "pca-eqr-k8"])
def test_multilingual_output_does_not_depend_on_the_thread_count(tmp_path, flags):
    tags = ("en", "hi", "be", "te")
    emb = write_lexicon_rows(tmp_path / "merged.vec", 600, tags)
    first, second = debias_at_each_thread_count(
        tmp_path, ["--emb", emb, "--languages", ",".join(tags), *flags])
    assert first == second


def test_debias_is_the_same_inline_and_on_workers(tmp_path, monkeypatch, capsys):
    emb = write_lexicon_rows(tmp_path / "en.vec", 1000)  # three 436-row blocks
    bad = tmp_path / "bad.vec"
    lines = (tmp_path / "en.vec").read_text(encoding="utf-8").splitlines(True)
    lines[501] = lines[501].replace(" ", " x", 1)  # in the second block, a worker's
    bad.write_text("".join(lines), encoding="utf-8")
    word = lines[501].split()[0]
    # rows that are train-pair differences, so that their residuals vanish
    # with k = 10: all in the worker's share, two in its first block, one in the last
    space = normalize(load_vec(emb, "en"))
    split = split_pairs(builtin_lexicon(), "en", 10, 0)
    matrix, zero_rows = space.matrix.copy(), (500, 600, 900)
    for row, p in zip(zero_rows, split.train_pairs):
        matrix[row] = matrix[space.index[p.male_word]] - matrix[space.index[p.female_word]]
    planted = tmp_path / "planted.vec"
    save_vec(EmbeddingSpace("en", space.vocab, matrix), str(planted), precision=17)
    out = tmp_path / "out"
    out.mkdir()

    def debias():
        outputs = {}
        assert run(["debias", "--emb", emb, "--languages", "en", "--renormalize",
                    "--out", out / "d.vec"]) == 0
        outputs["stdout"] = capsys.readouterr().out
        for file in ("d.vec", "d.vec.subspace.json"):
            outputs[file] = (out / file).read_bytes()
        manifest = json.loads((out / "d.vec.manifest.json").read_text())
        outputs["manifest"] = {k: v for k, v in manifest.items() if k != "created_at"}
        for file in os.listdir(out):
            os.unlink(out / file)
        for name, argv in (("bad", [bad]), ("zero", [planted, "--k", "10", "--renormalize"])):
            assert run(["debias", "--emb", *argv, "--languages", "en",
                        "--out", out / "d.vec"]) == 1
            outputs[name] = capsys.readouterr().err
            assert os.listdir(out) == []  # no segment, no temporary file, no output
        return outputs

    inline, pooled = inline_and_on_workers(monkeypatch, debias)
    assert inline == pooled
    assert f"{bad}: line 502: unparseable number in row for {word!r}" in inline["bad"]
    first = space.vocab[zero_rows[0]]  # in file order
    assert inline["zero"].startswith(f"debias-embed: cannot renormalize {first!r}: it lies in"
                                     " the bias subspace (residual norm ")
    with pytest.raises(ValueError) as refused:
        run_variant(normalize(load_vec(str(planted), "en")), builtin_lexicon(),
                    DebiasConfig(k=10, renormalize_after=True), {"en": split})
    assert inline["zero"] == f"debias-embed: {refused.value}\n"


@pytest.mark.parametrize("mode, tags, options", [
    ("--inbias", ("en",), ["--emb-after", "after"]),
    ("--inbias", ("hi", "en"), ["--seeds", "lexicon"]),
    ("--xscore", ("hi", "en"), []),
    ("--exbias", ("en",), ["--emb-after", "after", "--corpus", "bios"]),
    ("--exbias", ("hi", "en"), ["--corpus", "bios", "--corpus-lang", "en"]),
], ids=["inbias", "inbias-merged", "xscore-merged", "exbias", "exbias-merged"])
def test_report_parses_only_the_rows_it_scores_and_reports_as_on_whole_spaces(
        tmp_path, monkeypatch, mode, tags, options):
    emb = write_lexicon_rows(tmp_path / "emb.vec", 1000, tags)  # three 436-row blocks
    files = {"after": write_lexicon_rows(tmp_path / "after.vec", 1000, tags, seed=1),
             "bios": write_bios(tmp_path)}
    if mode == "--exbias":
        options = options + ["--min-count", "10"]
    report = tmp_path / "report.json"
    argv = ["report", mode, "--emb", emb, "--languages", ",".join(tags),
            *(files.get(o, o) for o in options), "--json", report]
    normalized = []  # the row count of each space the run normalizes
    normalize = embeddings.normalize
    monkeypatch.setattr(embeddings, "normalize",
                        lambda space: normalized.append(len(space)) or normalize(space))

    def outputs():
        normalized.clear()
        assert run(argv) == 0
        manifest = json.loads(report.with_name("report.json.manifest.json").read_text())
        del manifest["created_at"]
        return report.read_bytes(), manifest

    held = outputs()
    lexicon = builtin_lexicon()
    assert 0 < max(normalized) <= sum(len(lexicon.words(t)) for t in tags)  # no filler row
    # the same library calls on the spaces loaded whole
    load = embeddings.load_vec
    monkeypatch.setattr(embeddings, "load_vec",
                        lambda path, tag, hold: SimpleNamespace(held=load(path, tag)))
    whole = outputs()
    assert set(normalized) == {1000}
    assert held == whole


@pytest.mark.parametrize("tags, options, d", [
    (("en",), ["--emb-after", "after"], 300),
    (("hi", "en"), ["--corpus-lang", "en"], 300),
    (("en",), ["--emb-after", "after", "--corpus-after", "bios_after"], 300),
    (("en",), ["--emb-after", "after"], 16),  # ~60 distinct token rows of 16 dims
], ids=["before-after", "merged-corpus-lang", "corpus-after", "more-rows-than-dims"])
def test_report_exbias_is_what_the_library_trainer_gives(tmp_path, capsys, tags, options, d):
    emb = write_lexicon_rows(tmp_path / "emb.vec", 1000, tags, d=d)
    files = {"after": write_lexicon_rows(tmp_path / "after.vec", 1000, tags, seed=1, d=d),
             "bios": write_bios(tmp_path), "bios_after": write_bios(tmp_path, "b_after.tsv", 6)}
    report = tmp_path / "report.json"
    argv = ["report", "--exbias", "--emb", emb, "--languages", ",".join(tags),
            "--corpus", files["bios"], *(files.get(o, o) for o in options),
            "--min-count", "10", "--json", report]
    assert run(argv) == 0
    runs = json.loads(report.read_text())["runs"]
    table = capsys.readouterr().out

    # the library's steps on the spaces loaded whole
    language = "en" if "--corpus-lang" in options else None
    corpora = {"orig": files["bios"],
               "debiased": files["bios_after" if "bios_after" in options else "bios"]}
    rows = []
    for label, path in {"orig": emb, "debiased": files["after"]}.items():
        if label not in runs:
            continue
        space = normalize(load_vec(path, "+".join(tags)))
        train, test = extrinsic.split_corpus(extrinsic.load_corpus(corpora[label], 10))
        clf = extrinsic.train_classifier(space, train, language)
        result = extrinsic.evaluate_gap(clf, test)
        f_i = extrinsic.compare_runs(rows[0][1], result) if rows else None
        rows.append((label, result, f_i))
        assert runs[label]["fit"] == vars(clf.fit)
        assert (runs[label]["diff"], runs[label]["f_i"]) == (result.diff, f_i)
    assert set(runs) == {label for label, _, _ in rows}
    assert table == extrinsic.format_gap_table(rows)


@pytest.mark.parametrize("mode", ["--inbias", "--xscore", "--exbias"])
def test_report_skips_the_format_of_rows_it_does_not_read_but_checks_every_line(
        tmp_path, capsys, mode):
    emb = tmp_path / "emb.vec"
    write_lexicon_rows(emb, 1000)
    clean = emb.read_bytes().splitlines(True)
    report = tmp_path / "report.json"
    argv = ["report", mode, "--emb", emb, "--languages", "en", "--json", report]
    if mode == "--exbias":
        bios = write_bios(tmp_path)
        argv += ["--corpus", bios, "--min-count", "10"]

    def outcome(lines):
        emb.write_bytes(b"".join(lines))
        report.unlink(missing_ok=True)
        code = run(argv)
        capsys.readouterr()  # the table
        return code, report.read_bytes() if code == 0 else None

    def changed(index, line):
        return clean[:index] + [line] + clean[index + 1:]

    expected = outcome(clean)
    unread, word = clean[900], clean[900].split()[0].decode()  # a filler row, line 901
    assert word.startswith("filler")
    read = next(i for i, line in enumerate(clean) if line.startswith(b"doctor "))
    zero = unread.split()[0] + b" 0" * 300 + b"\n"
    assert outcome(changed(900, unread.replace(b" ", b" x", 1))) == expected
    assert outcome(changed(900, zero)) == expected
    refused = {
        f"line {read + 1}: unparseable number in row for 'doctor'":
            changed(read, clean[read].replace(b" ", b" x", 1)),
        f"line 951: duplicate word {word!r} (first seen at line 901)":
            changed(950, unread.split()[0] + b" " + clean[950].split(b" ", 1)[1]),
        "line 901: byte 0xff is not valid UTF-8": changed(900, b"\xff" + unread),
        "line 1001: header declared 1001 rows, found 1000": [b"1001 300\n"] + clean[1:],
    }
    for message, lines in refused.items():
        emb.write_bytes(b"".join(lines))
        assert run(argv) == 1
        assert f"{emb}: {message}" in capsys.readouterr().err
