import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from debias_embed.cli import main
from debias_embed.embeddings import EmbeddingSpace, load_vec, save_vec
from debias_embed.lexicon import builtin_lexicon
from helpers import lexicon_vocab, orthonormal_rows, unit_rows


@pytest.fixture()
def en_vec(tmp_path):
    lex = builtin_lexicon()
    words = lexicon_vocab(lex, "en")
    rng = np.random.default_rng(17)
    space = EmbeddingSpace("en", tuple(words), unit_rows(rng, len(words), 16), normalized=True)
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


def write_bios(tmp_path):
    """200 doctor/nurse bios skewed 9:1 by gender, written of en profession words."""
    corpus = tmp_path / "bios.tsv"
    professions = builtin_lexicon().neutral_words["en"].professions
    rng = np.random.default_rng(5)
    rows = []
    for i in range(200):
        occ = ("doctor", "nurse")[i % 2]
        gender = "M" if (rng.random() < (0.9 if occ == "doctor" else 0.1)) else "F"
        tokens = " ".join(rng.choice(professions, size=6))
        rows.append(f"{gender}\t{occ}\t{tokens}\n")
    corpus.write_text("".join(rows), encoding="utf-8")
    return corpus


def test_report_exbias_before_after(tmp_path, en_vec, capsys):
    corpus = write_bios(tmp_path)
    deb = tmp_path / "deb.vec"
    assert run(["debias", "--emb", en_vec, "--languages", "en", "--out", deb]) == 0
    capsys.readouterr()
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


def report_run(mode, before_after):
    def make(tmp_path, en_vec):
        argv, inputs = ["report", mode, "--emb", en_vec, "--languages", "en"], [en_vec]
        if before_after:
            deb = tmp_path / "deb.vec"
            assert run(["debias", "--emb", en_vec, "--languages", "en", "--out", deb]) == 0
            argv += ["--emb-after", deb]
            inputs.append(deb)
        if mode == "--exbias":
            corpus = write_bios(tmp_path)
            argv += ["--corpus", corpus, "--min-count", "10", "--epochs", "20"]
            inputs.append(corpus)
        report = tmp_path / "report.json"
        return argv + ["--json", report], inputs, [report], f"{report}.manifest.json"

    return make


@pytest.mark.parametrize("make_run", [
    align_run,
    debias_run,
    report_run("--inbias", before_after=True),
    report_run("--xscore", before_after=False),
    report_run("--exbias", before_after=True),
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


def test_undecodable_byte_names_path_and_line(tmp_path, capsys):
    path = tmp_path / "bad.vec"
    path.write_bytes(b"3 2\nking 1.0 0.0\nqueen\xff 0.0 1.0\nman 0.5 0.5\n")
    code = run(["debias", "--emb", path, "--languages", "en", "--out", tmp_path / "o.vec"])
    assert code == 1
    assert f"{path}: line 3: byte 0xff is not valid UTF-8" in capsys.readouterr().err


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
    monkeypatch.setenv("DEBIAS_EMBED_THREADS", "zero")
    assert main(["report", "--xscore", "--emb", "x", "--languages", "en"]) == 1
    assert "DEBIAS_EMBED_THREADS" in capsys.readouterr().err


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
