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
from debias_embed.cli import main
from debias_embed.debias import DebiasConfig, run_variant
from debias_embed.embeddings import EmbeddingSpace, load_vec, normalize, save_vec
from debias_embed.lexicon import builtin_lexicon, split_pairs
from debias_embed.subspace import save_subspace
from helpers import inline_and_on_workers, orthonormal_rows, reference_classifier, unit_rows


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
        "--languages", "en", "--min-count", "10", "--epochs", "80", "--json", report,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["emb", "M", "F", "|Diff|", "f_i"]
    payload = json.loads(report.read_text())
    assert set(payload["runs"]) == {"orig", "debiased"}
    assert payload["runs"]["debiased"]["f_i"] is not None
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
            argv += ["--corpus", bios, "--min-count", "10", "--epochs", "20"]
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
def test_manifest_records_exactly_what_the_run_read_and_wrote(tmp_path, en_vec, make_run):
    argv, inputs, outputs, manifest_path = make_run(tmp_path, en_vec)
    argv = [str(a) for a in argv]
    assert main(argv) == 0
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == ["debias-embed"] + argv
    assert manifest["inputs"] == {str(p): sha256(p) for p in inputs}
    assert manifest["outputs"] == {str(p): sha256(p) for p in outputs}
    if argv[0] == "align":
        assert ("procrustes_fit: dropped 1/41 dictionary pair(s) with out-of-vocabulary words"
                in manifest["warnings"])


@pytest.mark.parametrize("mode, flag", [
    ("--xscore", "--emb-after"),
    ("--xscore", "--corpus"),
    ("--xscore", "--corpus-after"),
    ("--inbias", "--corpus"),
    ("--inbias", "--corpus-after"),
], ids=["xscore-emb-after", "xscore-corpus", "xscore-corpus-after", "inbias-corpus",
        "inbias-corpus-after"])
def test_report_refuses_a_file_flag_its_mode_does_not_read(tmp_path, en_vec, capsys, mode, flag):
    report = tmp_path / "r.json"
    code = run(["report", mode, "--emb", en_vec, "--languages", "en", flag, en_vec,
                "--json", report])
    assert code == 1
    assert f"{flag} is not read by {mode}" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("mode, option", [
    ("--inbias", ["--epsilon", "0.5"]),
    ("--xscore", ["--seeds", "lexicon"]),
    ("--exbias", ["--train-count", "3"]),
], ids=["inbias-epsilon", "xscore-seeds", "exbias-train-count"])
@pytest.mark.parametrize("given_in", ["argv", "config"])
def test_report_refuses_an_option_its_mode_does_not_read(tmp_path, en_vec, capsys, mode, option,
                                                        given_in):
    flag, value = option
    report = tmp_path / "r.json"
    argv = ["report", mode, "--emb", en_vec, "--languages", "en", "--json", report]
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


def test_center_with_ppa_exits_one(tmp_path, en_vec, capsys):
    out = tmp_path / "o.vec"
    assert run(["debias", "--emb", en_vec, "--languages", "en", "--method", "ppa",
                "--center", "--out", out]) == 1
    assert "pca" in capsys.readouterr().err
    assert not out.exists()


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
    ["--center"], ["--variant", "eqr"], ["--method", "ppa", "--k", "2"],
], ids=["default", "neutral", "renormalize", "neutral-renormalize", "center", "eqr", "ppa"])
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
    debiased, used = run_variant(space, builtin_lexicon(), config, splits,
                                 center="--center" in flags, seed=0)
    save_vec(debiased, str(tmp_path / "lib.vec"), precision=17)
    save_subspace(used, str(tmp_path / "lib.json"))
    assert out.read_bytes() == (tmp_path / "lib.vec").read_bytes()
    assert (tmp_path / "cli.vec.subspace.json").read_bytes() == (tmp_path / "lib.json").read_bytes()


def traced_peak(tmp_path, rows, argv):
    """The traced peak memory of the CLI run ``argv`` on a new ``rows``-row en space."""
    emb = write_lexicon_rows(tmp_path / f"{rows}.vec", rows)
    tracemalloc.start()
    try:
        assert run(argv + ["--emb", emb]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_growth(tmp_path, argv):
    """How much more ``argv`` peaks at on 4000 rows than on 1000, both more
    than two full 436-row blocks."""
    traced_peak(tmp_path, 200, argv)  # loads what every run shares, such as the lexicon
    small = traced_peak(tmp_path, 1000, argv)
    return traced_peak(tmp_path, 4000, argv) - small


def test_debias_peak_memory_does_not_grow_with_the_row_count(tmp_path):
    argv = ["debias", "--languages", "en", "--out", tmp_path / "out.vec"]
    # 3000 more rows are 7.2 MB of matrix; only the first pass's word index grows
    assert peak_growth(tmp_path, argv) < embeddings.BLOCK_BYTES


def test_report_peak_memory_does_not_grow_with_the_row_count(tmp_path):
    argv = ["report", "--inbias", "--languages", "en"]
    # the lexicon's rows are parsed; the filler rows are only scanned
    assert peak_growth(tmp_path, argv) < embeddings.BLOCK_BYTES


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


def test_precision_17_output_does_not_depend_on_the_thread_count(tmp_path):
    emb = write_lexicon_rows(tmp_path / "en.vec", 1000)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(debias_embed.__file__))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}.vec"
        proc = subprocess.run(
            [sys.executable, "-m", "debias_embed.cli", "debias", "--emb", emb, "--languages",
             "en", "--precision", "17", "--out", str(out)],
            env=dict(env, DEBIAS_EMBED_THREADS=threads), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_debias_is_the_same_inline_and_on_workers(tmp_path, monkeypatch, capsys):
    emb = write_lexicon_rows(tmp_path / "en.vec", 1000)  # three 436-row blocks
    bad = tmp_path / "bad.vec"
    lines = (tmp_path / "en.vec").read_text(encoding="utf-8").splitlines(True)
    lines[501] = lines[501].replace(" ", " x", 1)  # in the second block, a worker's
    bad.write_text("".join(lines), encoding="utf-8")
    word = lines[501].split()[0]
    out = tmp_path / "out"
    out.mkdir()

    def debias():
        outputs = {}
        assert run(["debias", "--emb", emb, "--languages", "en", "--renormalize",
                    "--out", out / "d.vec"]) == 0
        outputs["stdout"] = capsys.readouterr().out
        for name in ("d.vec", "d.vec.subspace.json"):
            outputs[name] = (out / name).read_bytes()
        manifest = json.loads((out / "d.vec.manifest.json").read_text())
        outputs["manifest"] = {k: v for k, v in manifest.items() if k != "created_at"}
        for name in os.listdir(out):
            os.unlink(out / name)
        assert run(["debias", "--emb", bad, "--languages", "en", "--out", out / "d.vec"]) == 1
        outputs["stderr"] = capsys.readouterr().err
        assert os.listdir(out) == []  # no segment, no temporary file, no output
        return outputs

    inline, pooled = inline_and_on_workers(monkeypatch, debias)
    assert inline == pooled
    assert f"{bad}: line 502: unparseable number in row for {word!r}" in inline["stderr"]


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
        options = options + ["--min-count", "10", "--epochs", "20"]
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
def test_report_exbias_is_what_descent_on_the_materialized_features_gives(
        tmp_path, monkeypatch, capsys, tags, options, d):
    emb = write_lexicon_rows(tmp_path / "emb.vec", 1000, tags, d=d)
    files = {"after": write_lexicon_rows(tmp_path / "after.vec", 1000, tags, seed=1, d=d),
             "bios_after": write_bios(tmp_path, "bios_after.tsv", seed=6)}
    report = tmp_path / "report.json"
    argv = ["report", "--exbias", "--emb", emb, "--languages", ",".join(tags),
            "--corpus", write_bios(tmp_path), *(files.get(o, o) for o in options),
            "--min-count", "10", "--epochs", "80", "--json", report]

    def outputs():
        assert run(argv) == 0
        manifest = json.loads(report.with_name("report.json.manifest.json").read_text())
        del manifest["created_at"]
        return capsys.readouterr().out, report.read_bytes(), manifest

    factored = outputs()
    monkeypatch.setattr(extrinsic, "train_classifier", reference_classifier)
    assert outputs() == factored


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
        argv += ["--corpus", bios, "--min-count", "10", "--epochs", "20"]

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
