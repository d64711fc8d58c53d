#!/usr/bin/env python3
"""Pipeline benchmark for the ``debias-embed`` CLI.

Run from the repository root::

    python3 perfbench/run.py --workload debias_all_10k --seed 0 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 5

Closed loop, one client: each op starts one CLI child at a time (a
workload's op may be several commands in a row), waits for it with
``os.wait4`` and checks its outputs before the next op starts. Inputs are
generated from ``--seed`` by ``gen.py``; outputs are checked by
``checks.py``. With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced ops with traced ones
(``tracer.py``) and reports the per-layer metrics. The last line of
standard output is one JSON object; the full record, with the inputs'
digests and the environment, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LEXICON = os.path.join(SRC, "debias_embed", "data", "lexicon.json")
RESULTS = os.path.join(ROOT, ".perfbench", "results")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

#: untimed warm-up ops per run, each on a fresh copy of the inputs; setup_s is their median
SETUPS = 3
#: a child still running after this many seconds is killed and its op fails
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

E2E_UNITS = {"op_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Step:
    """One CLI command of an op: its arguments, manifest and outputs by role."""

    argv: list[str]
    manifest: str
    outputs: dict[str, str]


class DebiasAll:
    name = "debias_all_10k"
    rows = 10_000

    def generate(self, lex, seed, d):
        return gen.debias_inputs(lex, self.rows, seed, d)

    def steps(self, files, out):
        vec = os.path.join(out, "debiased.vec")
        return [Step(["debias", "--emb", files["emb"], "--languages", "en", "--variant", "mono",
                      "--method", "pca", "--k", "4", "--scope", "all", "--out", vec],
                     vec + ".manifest.json", {"vec": vec, "subspace": vec + ".subspace.json"})]

    def rows_moved(self, inputs):
        return 2 * inputs.rows["emb"]  # read once, written once

    def check(self, inputs, outputs, lex, read):
        vocab, matrix = read(inputs.files["emb"])
        return checks.debias(vocab, matrix, outputs["vec"], outputs["subspace"], 4)


class PursuitMulti:
    name = "pursuit_multi_4lang"

    def generate(self, lex, seed, d):
        return gen.pursuit_inputs(lex, seed, d)

    def steps(self, files, out):
        vec = os.path.join(out, "debiased.vec")
        return [Step(["debias", "--emb", files["emb"], "--languages", ",".join(gen.LANGUAGES),
                      "--variant", "multi", "--method", "ppa", "--k", "4", "--train-count", "10",
                      "--scope", "neutral", "--out", vec],
                     vec + ".manifest.json", {"vec": vec, "subspace": vec + ".subspace.json"})]

    def rows_moved(self, inputs):
        return 2 * inputs.rows["emb"]

    def check(self, inputs, outputs, lex, read):
        vocab, matrix = read(inputs.files["emb"])
        neutral = {f"{lang}:{w}" for lang in gen.LANGUAGES for w in lex.neutral[lang]}
        in_scope = [w in neutral for w in vocab]
        return checks.debias(vocab, matrix, outputs["vec"], outputs["subspace"], 4, in_scope)


class AlignReport:
    name = "align_report_5k"
    rows = 5_000
    dict_size = 1_000

    def generate(self, lex, seed, d):
        return gen.align_inputs(lex, self.rows, self.dict_size, seed, d)

    def steps(self, files, out):
        aligned, merged = os.path.join(out, "aligned.vec"), os.path.join(out, "merged.vec")
        reports = {mode: os.path.join(out, f"{mode}.json") for mode in ("xscore", "inbias", "exbias")}
        before_after = ["--emb", files["en"], "--emb-after", files["after"], "--languages", "en"]
        return [
            Step(["align", "--src", files["hi"], "--src-lang", "hi", "--tgt", files["en"],
                  "--tgt-lang", "en", "--dict", files["dict"], "--out", aligned,
                  "--merged-out", merged],
                 aligned + ".manifest.json", {"aligned": aligned, "merged": merged}),
            Step(["report", "--xscore", "--emb", merged, "--languages", "hi,en",
                  "--json", reports["xscore"]],
                 reports["xscore"] + ".manifest.json", {"xscore": reports["xscore"]}),
            Step(["report", "--inbias", *before_after, "--json", reports["inbias"]],
                 reports["inbias"] + ".manifest.json", {"inbias": reports["inbias"]}),
            Step(["report", "--exbias", *before_after, "--corpus", files["bios"],
                  "--json", reports["exbias"]],
                 reports["exbias"] + ".manifest.json", {"exbias": reports["exbias"]}),
        ]

    def rows_moved(self, inputs):
        n = inputs.rows["en"]
        # read: align hi+en, xscore merged (2n), inbias en+after, exbias en+after;
        # written: aligned n, merged 2n
        return 8 * n + 3 * n

    def check(self, inputs, outputs, lex, read):
        en_vocab, en = read(inputs.files["en"])
        hi_vocab, hi = read(inputs.files["hi"])
        t = inputs.truth
        return (checks.align(hi_vocab, hi, en_vocab, en, t["q"], t["dict_rows"],
                             outputs["aligned"], outputs["merged"])
                + checks.xscore(outputs["xscore"], ("hi", "en"))
                + checks.inbias(outputs["inbias"], "en")
                + checks.exbias(outputs["exbias"]))


WORKLOADS = {w.name: w for w in (DebiasAll(), PursuitMulti(), AlignReport())}


@dataclass
class Op:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_kb: int = 0
    failures: list = field(default_factory=list)
    traces: list = field(default_factory=list)


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["DEBIAS_EMBED_THREADS"] = str(threads)
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


class Spawner:
    """Pipe to ``spawner.py``, which starts and waits for every CLI child."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv, env, log) -> dict:
        """Run one child to completion: wall_s, cpu_s, maxrss_kb and exit code."""
        request = {"argv": argv, "env": env, "log": log, "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited unexpectedly")
        return json.loads(reply)


class Runner:
    """Runs and checks ops of one workload in one work directory."""

    def __init__(self, workload, seed: int, work: str, spawner: Spawner, tamper=None):
        self.workload = workload
        self.spawner = spawner
        self.seed = seed
        self.work = work
        self.tamper = tamper  # tests corrupt outputs through this
        self.threads = len(os.sched_getaffinity(0))
        self.env = child_env(self.threads)
        self.lex = gen.read_lexicon(LEXICON)
        self.parsed = {}  # input path -> (vocab, matrix), parsed once per run
        self.reference = None  # output digests of the run's first op
        self.reference_failures = []  # what the oracles found in those outputs
        self.ops = 0

    def generate(self):
        start = time.monotonic()
        input_dir = os.path.join(self.work, "inputs")
        os.makedirs(input_dir)
        self.inputs = self.workload.generate(self.lex, self.seed, input_dir)
        self.generate_s = time.monotonic() - start
        self.described = gen.describe(self.inputs)

    def read_input(self, path):
        if path not in self.parsed:
            self.parsed[path] = gen.read_vec(path)
        return self.parsed[path]

    def fresh_inputs(self, d) -> dict:
        """A fresh copy of the inputs, as a first run on new files would see them."""
        os.makedirs(d)
        files = {}
        for role, path in self.inputs.files.items():
            files[role] = shutil.copyfile(path, os.path.join(d, os.path.basename(path)))
        return files

    def op(self, files=None, traced=False) -> Op:
        self.ops += 1
        out = os.path.join(self.work, f"op{self.ops}")
        os.makedirs(out)
        steps = self.workload.steps(files or self.inputs.files, out)
        result = Op()
        for i, step in enumerate(steps):
            log = os.path.join(out, f"step{i}.log")
            if traced:
                spans = os.path.join(out, f"step{i}.spans.json")
                argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans, "{spawn_ns}",
                        str(self.ops), "--", *step.argv]
            else:
                argv = [sys.executable, "-m", "debias_embed.cli", *step.argv]
            child = self.spawner.run(argv, self.env, log)
            result.wall_s += child["wall_s"]
            result.cpu_s += child["cpu_s"]
            result.peak_rss_kb = max(result.peak_rss_kb, child["maxrss_kb"])
            code = child["code"]
            if code != 0:
                with open(log, encoding="utf-8", errors="replace") as fh:
                    tail = fh.read()[-400:]
                result.failures.append(f"{step.argv[0]} exited with {code}: {tail}")
                break
            if traced:
                try:
                    with open(spans, encoding="utf-8") as fh:
                        result.traces.append(json.load(fh))
                except (OSError, ValueError) as exc:
                    result.failures.append(f"{step.argv[0]} left no span file: {exc!r}")
                    break
        if not result.failures:
            if self.tamper is not None:
                self.tamper(steps)
            try:
                result.failures += self.verify(steps)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                result.failures.append(f"output check raised {exc!r}")
        shutil.rmtree(out)
        return result

    def verify(self, steps) -> list[str]:
        """Manifest digests, same outputs as the run's first op, and the oracles."""
        failures = []
        for step in steps:
            failures += checks.manifest_digests(step.manifest)
        outputs = {role: path for step in steps for role, path in step.outputs.items()}
        digests = {role: gen.sha256_file(path) for role, path in outputs.items()}
        if self.reference is None:
            # the same bytes get the same verdict, so later ops only compare digests
            self.reference = digests
            self.reference_failures = self.workload.check(self.inputs, outputs, self.lex,
                                                          self.read_input)
        elif digests != self.reference:
            changed = sorted(r for r in digests if digests[r] != self.reference.get(r))
            failures.append(f"output digest differs from the run's first op: {', '.join(changed)}")
        return failures + self.reference_failures


def run_untraced(runner: Runner, seconds: float) -> dict:
    setups = []
    for i in range(SETUPS):
        files = runner.fresh_inputs(os.path.join(runner.work, f"setup{i}"))
        setups.append(runner.op(files))
    measured = []  # on the last set-up's files, which that set-up warmed
    deadline = time.monotonic() + seconds
    while not measured or time.monotonic() < deadline:
        measured.append(runner.op(files))
    op_s = statistics.median(op.wall_s for op in measured)
    metrics = {
        "op_s": op_s,
        "rows_per_s": runner.workload.rows_moved(runner.inputs) / op_s,
        "peak_rss_mb": max(op.peak_rss_kb for op in setups + measured) / 1024,
        "setup_s": statistics.median(op.wall_s for op in setups),
    }
    return {
        "metrics": {m: {"value": v, "unit": E2E_UNITS[m]} for m, v in metrics.items()},
        "ops": setups + measured,
        "samples": {"op_s": [op.wall_s for op in measured],
                    "setup_s": [op.wall_s for op in setups],
                    "cpu_s": [op.cpu_s for op in measured]},
    }


def run_traced(runner: Runner, seconds: float) -> dict:
    warmup = runner.op()
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while not traced or time.monotonic() < deadline:
        plain.append(runner.op())
        traced.append(runner.op(traced=True))
    good = [op for op in traced if not op.failures]
    per_op = [tracer.op_metrics(op.traces, op.cpu_s) for op in good]
    metrics = tracer.median_metrics(per_op) if per_op else {m: 0.0 for m in tracer.PER_LAYER}
    plain_s = statistics.median(op.wall_s for op in plain)
    traced_s = statistics.median(op.wall_s for op in traced)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return {
        "metrics": {m: {"value": metrics[m], "unit": tracer.PER_LAYER[m][0]}
                    for m in tracer.PER_LAYER},
        "ops": [warmup] + plain + traced,
        "samples": {"untraced_op_s": [op.wall_s for op in plain],
                    "traced_op_s": [op.wall_s for op in traced]},
        "spans": [child for op in good for child in op.traces],
    }


def filesystem(path: str) -> str:
    """Type of the filesystem holding ``path``, from /proc/self/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def environment(runner: Runner) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {}
    fs = filesystem(runner.work)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": runner.threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "child_threads": {v: runner.env[v] for v in ("DEBIAS_EMBED_THREADS", *THREAD_VARS)},
        "work_filesystem": fs,
        "outputs_on_tmpfs": fs == "tmpfs",
        "platform": platform.platform(),
    }


def run(workload, seed: int, seconds: float, trace: bool, tamper=None) -> dict:
    """One benchmark run of ``workload``; the record behind the printed result."""
    work = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        with Spawner() as spawner:
            runner = Runner(workload, seed, work, spawner, tamper)
            runner.generate()
            body = (run_traced if trace else run_untraced)(runner, seconds)
            env = environment(runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = body.pop("ops")
    failed = sum(1 for op in ops if op.failures)
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": len(ops), "failed": failed, "fail_frac": failed / len(ops),
        "failures": [f for op in ops for f in op.failures],
        "generate_s": runner.generate_s, "inputs": runner.described,
        "rows_moved_per_op": workload.rows_moved(runner.inputs),
        "environment": env, **body,
    }


def save(record: dict) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(os.path.join(RESULTS, stem + "-spans.json"), "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    path = os.path.join(RESULTS, stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def summary(record: dict, path: str) -> str:
    lines = [f"workload {record['workload']} seed {record['seed']} trace {record['trace']}"]
    for role, info in record["inputs"].items():
        lines.append(f"  input {role:<8} {info['file']:<14} rows={info['rows']} "
                     f"bytes={info['bytes']} sha256={info['sha256']}")
    lines.append(f"  generate_s {record['generate_s']:.3f} s (not a metric)")
    for name, m in record["metrics"].items():
        lines.append(f"  {name} {m['value']:.6g} {m['unit']}")
    lines.append(f"  fail_frac {record['fail_frac']:.6g} fraction "
                 f"({record['failed']}/{record['attempted']} ops)")
    for failure in record["failures"][:5]:
        lines.append(f"  FAILED {failure}")
    lines.append(f"  details {os.path.relpath(path, ROOT)}")
    return "\n".join(lines)


def result_line(record: dict) -> str:
    return json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": record["metrics"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "debias_embed", "cli.py")) or not os.path.isfile(LEXICON):
        print(f"perfbench: no debias_embed sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        print(summary(record, save(record)))
        print(result_line(record))
        return 0
    results = {}
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            record = run(workload, args.seed, args.seconds, trace)
            print(summary(record, save(record)), flush=True)
            results[f"{name}/trace{int(trace)}"] = json.loads(result_line(record))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
