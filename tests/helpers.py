"""Shared builders for the test suite."""

import importlib.util
import multiprocessing
import os
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

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
    """``[run(), run()]``: with ``.vec`` text handled in this process alone,
    then by this process and ``cpus - 1`` forked workers, whatever the CPU
    count.

    Checks that the first run does not fork, that the second does if
    ``forks``, and that no worker outlives it. Each run gets 60 s, so that a
    lost result fails the test instead of hanging it.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # the CLI sets them from the cap
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
