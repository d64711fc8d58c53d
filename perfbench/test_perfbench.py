"""The benchmark's own tests, at a tiny input size.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import gen
import run
import tracer

TINY_ROWS = 600


class TinyDebias(run.DebiasAll):
    rows = TINY_ROWS


class TinyAlign(run.AlignReport):
    rows = TINY_ROWS
    dict_size = 300


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def debias_record():
    return run.run(TinyDebias(), seed=3, seconds=0, trace=False)


def test_end_to_end_metrics_have_names_and_units(debias_record):
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    emitted = {name: m["unit"] for name, m in debias_record["metrics"].items()}
    assert emitted == declared
    assert all(m["value"] > 0 for m in debias_record["metrics"].values())
    assert debias_record["failed"] == 0 and debias_record["attempted"] == run.SETUPS + 1


def test_result_line_has_exactly_the_contract_keys(debias_record):
    line = json.loads(run.result_line(debias_record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True


def test_record_captures_inputs_and_environment(debias_record):
    info = debias_record["inputs"]["emb"]
    assert info["rows"] == TINY_ROWS and info["bytes"] > 0 and len(info["sha256"]) == 64
    env = debias_record["environment"]
    for key in ("nproc", "python", "numpy", "blas", "child_threads", "work_filesystem"):
        assert key in env
    assert int(env["child_threads"]["OPENBLAS_NUM_THREADS"]) <= os.cpu_count()


def _flip_row(path, row=5):
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    word, *values = lines[row].split()
    lines[row] = word + " " + " ".join(v[1:] if v.startswith("-") else "-" + v
                                       for v in values) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def test_corrupted_output_raises_fail_frac():
    ops = []

    def flip_on_second_op(steps):
        ops.append(steps)
        if len(ops) == 2:
            _flip_row(steps[0].outputs["vec"])

    record = run.run(TinyDebias(), seed=3, seconds=0, trace=False, tamper=flip_on_second_op)
    assert record["failed"] == 1
    assert record["fail_frac"] == pytest.approx(1 / record["attempted"])
    assert any("digest" in f for f in record["failures"])
    assert json.loads(run.result_line(record))["correct"] is False


def test_a_failed_oracle_fails_every_op_with_the_same_output():
    class WrongOutput(TinyDebias):
        def check(self, inputs, outputs, lex, read):
            return ["planted oracle failure"]

    record = run.run(WrongOutput(), seed=3, seconds=0, trace=False)
    assert record["failed"] == record["attempted"] == run.SETUPS + 1


def test_corrupted_first_output_fails_the_oracle(tmp_path):
    workload = TinyDebias()
    lex = gen.read_lexicon(run.LEXICON)
    inputs = workload.generate(lex, 4, str(tmp_path))
    out = tmp_path / "out"
    out.mkdir()
    steps = workload.steps(inputs.files, str(out))
    code = subprocess.run([sys.executable, "-m", "debias_embed.cli", *steps[0].argv],
                          env=run.child_env(1), capture_output=True).returncode
    assert code == 0
    outputs = steps[0].outputs
    assert workload.check(inputs, outputs, lex, gen.read_vec) == []
    _flip_row(outputs["vec"])
    assert workload.check(inputs, outputs, lex, gen.read_vec)


@pytest.mark.parametrize("make", [
    lambda lex, seed, d: gen.debias_inputs(lex, TINY_ROWS, seed, d),
    lambda lex, seed, d: gen.pursuit_inputs(lex, seed, d),
    lambda lex, seed, d: gen.align_inputs(lex, TINY_ROWS, 300, seed, d),
])
def test_generator_is_byte_stable_for_a_seed(tmp_path, make):
    lex = gen.read_lexicon(run.LEXICON)
    digests = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        d = tmp_path / name
        d.mkdir()
        digests.append({r: i["sha256"] for r, i in gen.describe(make(lex, seed, str(d))).items()})
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_vec_lines_end_like_fasttext(tmp_path):
    path = str(tmp_path / "x.vec")
    gen.write_vec(path, ["a", "b"], gen.np.array([[0.5, -0.25], [1.0, 2.0]]))
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "2 2\na 0.50000000 -0.25000000 \nb 1.00000000 2.00000000 \n"
    words, matrix = gen.read_vec(path)
    assert words == ["a", "b"] and matrix.tolist() == [[0.5, -0.25], [1.0, 2.0]]


def test_self_time_subtracts_direct_children():
    spans = [
        {"id": 0, "parent": None, "start_ns": 0, "end_ns": 10_000_000_000},
        {"id": 1, "parent": 0, "start_ns": 1_000_000_000, "end_ns": 4_000_000_000},
        {"id": 2, "parent": 1, "start_ns": 2_000_000_000, "end_ns": 3_000_000_000},
        {"id": 3, "parent": 0, "start_ns": 5_000_000_000, "end_ns": 6_000_000_000},
    ]
    assert tracer.self_seconds(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


LAYERS = {
    # workload -> layers whose functions must report nonzero self time there
    "debias": ("embeddings.load_vec", "embeddings.save_vec", "embeddings.normalize",
               "embeddings.space_fingerprint", "debias.run_variant", "debias.debias_space",
               "subspace.difference_matrix", "subspace.pca_basis", "subspace.save_subspace",
               "lexicon.builtin_lexicon", "lexicon.split_pairs", "manifest.file_fingerprint",
               "manifest.RunManifest.write"),
    "align": ("embeddings.load_vec", "embeddings.save_vec", "align.load_dictionary",
              "align.procrustes_fit", "align.apply_map", "align.merge_spaces",
              "intrinsic.inbias", "intrinsic.cross_score_matrix", "extrinsic.load_corpus",
              "extrinsic.split_corpus", "extrinsic.featurize", "extrinsic.train_classifier",
              "extrinsic.evaluate_gap", "lexicon.builtin_lexicon", "manifest.file_fingerprint"),
}


@pytest.mark.parametrize("workload, layers", [
    (TinyDebias(), LAYERS["debias"]),
    (TinyAlign(), LAYERS["align"]),
])
def test_traced_run_reports_every_per_layer_metric(workload, layers):
    record = run.run(workload, seed=5, seconds=0, trace=True)
    assert record["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {n: m["unit"] for n, m in record["metrics"].items()} == declared
    values = {n: m["value"] for n, m in record["metrics"].items()}
    assert [f for f in layers if not values[f + ".s"] > 0] == []
    assert values["cli.startup_s"] > 0 and values["cli.self_s"] > 0 and values["cli.cpu_s"] > 0
    assert record["spans"] and all(s["op"] == record["spans"][0]["op"]
                                   for s in record["spans"][0]["spans"])


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "debias_all_10k",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
