"""Gender-debiasing toolkit for word embeddings.

The package covers the full pipeline: reading/writing ``.vec`` embedding
files, gendered lexicons, orthogonal cross-lingual alignment, gender
subspace estimation (PCA or kurtosis-based projection pursuit), linear
projection debiasing, and intrinsic/extrinsic bias metrics.

Every name in a library module's ``__all__`` (each module but ``cli``)
is also importable from the package itself. Those modules are imported
lazily, only when a name is first looked up, so that the command-line
entry point can set BLAS to one thread before numpy loads.
``DEBIAS_EMBED_THREADS`` (see :func:`thread_cap`) caps the processes that
share a run's work (:func:`cpus`), each a :class:`Worker`.
"""

import logging
import os
import pickle
import signal
from importlib import import_module

__version__ = "0.1.0"

#: the library modules, in the order a package-level name is looked up in
#: their ``__all__``; manifest, the one without numpy, comes first
_MODULES = ("manifest", "embeddings", "lexicon", "align", "subspace", "debias", "intrinsic",
            "extrinsic")


def thread_cap() -> int | None:
    """The positive integer in ``DEBIAS_EMBED_THREADS``, or None if it is unset or empty.

    It caps the number of processes that share a run's work (:func:`cpus`);
    the command line runs BLAS at one thread in each. Any other value
    raises ValueError.
    """
    threads = os.environ.get("DEBIAS_EMBED_THREADS")
    if not threads:
        return None
    if not threads.isdecimal() or int(threads) < 1:
        raise ValueError(f"DEBIAS_EMBED_THREADS must be a positive integer, got {threads!r}")
    return int(threads)


def cpus() -> int:
    """How many processes may share a run's work: one for each CPU this
    process may use, capped by :func:`thread_cap`; 1 without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    count = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return min(count, thread_cap() or count)


class _Kept(logging.Handler):
    """Keeps each record it is given, its message formatted, so that it pickles."""

    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
        self.records.append(record)


class Worker:
    """A forked process that runs ``task()`` and sends one reply, pickled,
    through a pipe: what the task returned, or the exception it raised,
    with the package's log records the task made.

    Workers are forked, not spawned: they start at once, without importing
    numpy again, and share the state of ``task``, such as the space being
    written and the block layout of the file it is read from, without
    pickling it. Only the calling thread is copied, so a worker may run
    BLAS when its pool has one thread, as the command line sets it; OpenBLAS
    stops and restarts a larger pool's own threads around a fork. A worker
    exits without cleaning up the state it shares with this process.
    ``kind`` names it in the error of a worker that died.
    """

    def __init__(self, kind: str, task):
        self.kind = kind
        r, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if self.pid:
            os.close(w)
            self._pipe = open(r, "rb")
            return
        try:  # a reply not sent is seen as the pipe's end
            os.close(r)
            kept = _Kept()
            logger = logging.getLogger(__name__)
            logger.handlers, logger.propagate = [kept], False  # handled by the parent instead
            try:
                reply = True, task()
            except Exception as exc:  # sent, to be raised in its turn
                reply = False, exc
            with open(w, "wb") as out:  # all or nothing is sent
                out.write(pickle.dumps((*reply, kept.records), pickle.HIGHEST_PROTOCOL))
        finally:
            os._exit(0)

    def result(self, what: str):
        """What the task returned, or the exception it raised, raised here,
        after the log records the task made are handled here, as they would
        have been had it run here; a worker that died before it replied
        raises ChildProcessError naming ``what`` it was to send."""
        try:
            ok, reply, records = pickle.load(self._pipe)
        except EOFError:
            raise ChildProcessError(
                f"{self.kind} worker {self.pid} died before sending {what}") from None
        for record in records:
            logging.getLogger(record.name).handle(record)
        if not ok:
            raise reply
        return reply

    def end(self) -> None:
        """Kill the worker, which has nothing left to do once it has replied,
        and reap it."""
        os.kill(self.pid, signal.SIGKILL)
        self._pipe.close()
        os.waitpid(self.pid, 0)


def __getattr__(name):
    modules = (import_module(f".{module}", __name__) for module in _MODULES)
    if name == "__all__":
        return sorted(n for module in modules for n in module.__all__) + ["__version__"]
    # a submodule's name is left to the import system, which imports only it
    if not name.startswith("__") and name not in _MODULES + ("cli",):
        for module in modules:
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
