"""Gender-debiasing toolkit for word embeddings.

The package covers the full pipeline: reading/writing ``.vec`` embedding
files, gendered lexicons, orthogonal cross-lingual alignment, gender
subspace estimation (PCA or kurtosis-based projection pursuit), linear
projection debiasing, and intrinsic/extrinsic bias metrics.

Submodules are imported lazily so that the command-line entry point can
cap BLAS thread pools before numpy loads. ``DEBIAS_EMBED_THREADS`` (see
:func:`thread_cap`) caps those pools and the processes that parse and
format ``.vec`` text.
"""

import os
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # embeddings
    "EmbeddingSpace": "embeddings",
    "SpaceStream": "embeddings",
    "load_vec": "embeddings",
    "save_vec": "embeddings",
    "normalize": "embeddings",
    "space_fingerprint": "embeddings",
    # lexicon
    "GenderPair": "lexicon",
    "NeutralWords": "lexicon",
    "SeedSets": "lexicon",
    "GenderLexicon": "lexicon",
    "PairSplit": "lexicon",
    "load_lexicon": "lexicon",
    "builtin_lexicon": "lexicon",
    "split_pairs": "lexicon",
    "entry_forms": "lexicon",
    # align
    "BilingualDictionary": "align",
    "OrthogonalMap": "align",
    "load_dictionary": "align",
    "procrustes_fit": "align",
    "apply_map": "align",
    "merge_spaces": "align",
    # subspace
    "DifferenceMatrix": "subspace",
    "BiasSubspace": "subspace",
    "difference_matrix": "subspace",
    "pca_basis": "subspace",
    "ppa_basis": "subspace",
    "language_orientation": "subspace",
    "select_equal_rep": "subspace",
    "equal_rep_basis": "subspace",
    "save_subspace": "subspace",
    # debias
    "DebiasConfig": "debias",
    "debias_space": "debias",
    "run_variant": "debias",
    "variant_words": "debias",
    # intrinsic metrics
    "dis": "intrinsic",
    "inbias": "intrinsic",
    "InBiasResult": "intrinsic",
    "cross_score_matrix": "intrinsic",
    "CrossScoreMatrix": "intrinsic",
    # extrinsic harness
    "BioRecord": "extrinsic",
    "TrainConfig": "extrinsic",
    "ExtrinsicResult": "extrinsic",
    "load_corpus": "extrinsic",
    "split_corpus": "extrinsic",
    "train_classifier": "extrinsic",
    "evaluate_gap": "extrinsic",
    "compare_runs": "extrinsic",
    # manifest
    "RunManifest": "manifest",
    "file_fingerprint": "manifest",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


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
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)
