"""Shared builders for the test suite."""

import importlib.util
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import debias_embed
from debias_embed.embeddings import EmbeddingSpace
from debias_embed.lexicon import GenderLexicon, GenderPair, NeutralWords, SeedSets


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))  # the tests import ``planted`` from there, as the scripts do


def load_script(name):
    """The module of ``scripts/<name>.py``."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_generator():
    """``perfbench/gen.py``, the benchmark's input generator."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", SCRIPTS.parent / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


#: the code :func:`run_isolated` runs by default: the CLI, on two CPUs
CLI = ("import os, sys\n"
       "from debias_embed import cli\n"
       "os.sched_getaffinity = lambda pid: {0, 1}\n"
       "sys.exit(cli.main(sys.argv[1:]))\n")


#: the variables that size the BLAS thread pools when numpy loads
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def run_isolated(argv, threads, code=CLI, pass_fds=(), timeout=60, blas=None):
    """``(returncode, stdout, stderr)`` of ``code``, by default the CLI, run
    with ``argv`` and ``DEBIAS_EMBED_THREADS=threads`` in a child process of
    its own session, ``pass_fds`` left open in it, each of
    ``BLAS_THREAD_VARS`` set to ``blas``, or unset when it is None.

    A run that has not ended after ``timeout`` s is killed with every
    process of its session and fails the test, so a hang fails one test
    instead of stalling the suite; a run that ends must leave no process of
    its session behind.
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if blas is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, blas))
    env.update(DEBIAS_EMBED_THREADS=str(threads),
               PYTHONPATH=os.path.dirname(os.path.dirname(debias_embed.__file__)))
    proc = subprocess.Popen([sys.executable, "-c", code, *map(str, argv)], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=pass_fds,
                            start_new_session=True)  # its workers share its process group
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"the run did not end within {timeout} s")
    with pytest.raises(ProcessLookupError):  # no worker outlives the run
        os.killpg(proc.pid, 0)
    return proc.returncode, out, err


def same_at_each_thread_count(argv, outputs, timeout=120):
    """``(returncode, stdout, stderr, files)`` of the CLI run ``argv``,
    checked to be the same at ``DEBIAS_EMBED_THREADS`` 1 and 2, each with
    ``BLAS_THREAD_VARS`` unset and set to 2, as the benchmark sets them.

    ``files`` maps the name of each path of ``outputs`` that the run left to
    its bytes, or, for a manifest (a ``.manifest.json`` name), to its JSON
    less ``created_at``. Each run is made by :func:`run_isolated`, and its
    outputs are removed once read, so that each run writes its own.
    """
    runs = {}
    for threads in (1, 2):
        for blas in (None, "2"):
            code, out, err = run_isolated(argv, threads, timeout=timeout, blas=blas)
            files = {}
            for path in map(Path, outputs):
                if path.exists():
                    files[path.name] = path.read_bytes()
                    if path.name.endswith(".manifest.json"):
                        files[path.name] = json.loads(files[path.name])
                        del files[path.name]["created_at"]
                    path.unlink()
            runs[threads, blas] = code, out, err, files
    first = runs[1, None]
    for setting, result in runs.items():
        assert result == first, f"DEBIAS_EMBED_THREADS, BLAS threads {setting} differ from (1, None)"
    return first


def stream_blocks(stream):
    """Each block of the :class:`~debias_embed.embeddings.SpaceStream`
    ``stream``, in order, computed anew in this process."""
    return (stream._block(i) for i in range(stream._block_count))


def unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def orthonormal_rows(rng, k, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    return q.T.copy()


def random_space(seed, n, d, tag="en", words=None):
    rng = np.random.default_rng(seed)
    if words is None:
        words = tuple(f"w{i:04d}" for i in range(n))
    return EmbeddingSpace(tag, tuple(words), unit_rows(rng, len(words), d), normalized=True)


def two_language_lexicon(n_pairs=6, n_neutral=5):
    """Synthetic lexicon over made-up languages 'aa' and 'bb'."""
    defining, neutral, seeds, occupations = {}, {}, {}, {}
    for tag in ("aa", "bb"):
        pairs = tuple(GenderPair(f"{tag}m{i}", f"{tag}f{i}", tag) for i in range(n_pairs))
        names = tuple(f"{tag}n{i}" for i in range(n_neutral))
        defining[tag] = pairs
        neutral[tag] = NeutralWords(names[:3], names[3:], ())
        seeds[tag] = SeedSets((f"{tag}m0", f"{tag}m1"), (f"{tag}f0", f"{tag}f1"))
        occupations[tag] = tuple((w, w) for w in names[:3])
    return GenderLexicon(defining, neutral, seeds, occupations)


def space_for_lexicon(lexicon, tags, d=20, seed=0, merged=None):
    """Random normalized space covering every lexicon word of the given tags.

    With one tag the vocab is bare; with several it is prefixed and the
    space tag is the '+'-joined merge.
    """
    rng = np.random.default_rng(seed)
    if len(tags) == 1:
        vocab = lexicon.words(tags[0])
        tag = tags[0]
    else:
        vocab = tuple(f"{t}:{w}" for t in tags for w in lexicon.words(t))
        tag = merged or "+".join(tags)
    return EmbeddingSpace(tag, vocab, unit_rows(rng, len(vocab), d), normalized=True)


def inline_and_on_workers(monkeypatch, run, forks=True, cpus=2):
    """``[run(), run()]``: with the work done in this process alone, then
    shared with forked workers, whatever the CPU count: ``cpus - 1`` text
    workers for each parallel load or save and, in a CLI run, a digest
    worker and, for a run of two ``.vec`` inputs, a scan worker for each.

    Checks that the first run does not fork, that the second does if
    ``forks``, and that no worker outlives it. Each run gets 60 s, so that a
    lost result fails the test instead of hanging it.
    """
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)  # the CLI sets them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)

    def timed_out(signum, frame):
        raise TimeoutError("a run took over 60 s")

    results = []
    previous = signal.signal(signal.SIGALRM, timed_out)
    try:
        for threads in (1, cpus):
            monkeypatch.setenv("DEBIAS_EMBED_THREADS", str(threads))
            signal.alarm(60)
            results.append(run())
            signal.alarm(0)
            # each parallel load or save forks cpus - 1 workers
            assert bool(forked) == (forks and threads > 1) and len(forked) % (cpus - 1) == 0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)
    return results
