"""Gender-debiasing toolkit for word embeddings.

The package covers the full pipeline: reading/writing ``.vec`` embedding
files, gendered lexicons, orthogonal cross-lingual alignment, gender
subspace estimation (PCA or kurtosis-based projection pursuit), linear
projection debiasing, and intrinsic/extrinsic bias metrics.

Every name in a library module's ``__all__`` (each module but ``cli``)
is also importable from the package itself. Those modules are imported
lazily, only when a name is first looked up, so that the command-line
entry point can cap BLAS thread pools before numpy loads.
``DEBIAS_EMBED_THREADS`` (see :func:`thread_cap`) caps those pools and the
processes that parse and format ``.vec`` text.
"""

import os
from importlib import import_module

__version__ = "0.1.0"

#: the library modules, in the order a package-level name is looked up in
#: their ``__all__``; manifest, the one without numpy, comes first
_MODULES = ("manifest", "embeddings", "lexicon", "align", "subspace", "debias", "intrinsic",
            "extrinsic")


def thread_cap() -> int | None:
    """The positive integer in ``DEBIAS_EMBED_THREADS``, or None if it is unset or empty.

    It caps the BLAS thread pools and the number of processes that parse
    and format ``.vec`` text. Any other value raises ValueError.
    """
    threads = os.environ.get("DEBIAS_EMBED_THREADS")
    if not threads:
        return None
    if not threads.isdecimal() or int(threads) < 1:
        raise ValueError(f"DEBIAS_EMBED_THREADS must be a positive integer, got {threads!r}")
    return int(threads)


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
