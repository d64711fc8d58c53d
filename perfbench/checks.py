"""Output oracles for the benchmark, independent of the code under test.

Every check reads the CLI's files with the benchmark's own reader and
returns a list of failure messages (empty when the output is correct).
"""

from __future__ import annotations

import json
import math

import numpy as np

from gen import read_vec, sha256_file

#: the Gram matrix of a saved basis may deviate from I by at most this
ORTHONORMAL_TOL = 1e-8
#: an in-scope row may keep at most this share of its norm in the subspace
IN_SUBSPACE_TOL = 1e-6
#: out-of-scope rows must equal the normalized input within this
UNTOUCHED_TOL = 1e-8
#: in-scope rows must equal the normalized input minus its projection within this
RESIDUAL_TOL = 1e-7
#: aligned dictionary rows and the recovered map must match within this
ALIGN_TOL = 1e-6
#: |diagonal - 1| bound, the tolerance of the repository's acceptance criterion 02
DIAGONAL_TOL = 1e-9


def normalized(matrix: np.ndarray) -> np.ndarray:
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def manifest_digests(manifest_path: str) -> list[str]:
    """The manifest's recorded output digests must equal the files' own."""
    with open(manifest_path, encoding="utf-8") as fh:
        outputs = json.load(fh)["outputs"]
    if not outputs:
        return [f"{manifest_path}: no outputs recorded"]
    return [
        f"{manifest_path}: recorded digest of {path} differs from the file's"
        for path, digest in outputs.items()
        if sha256_file(path) != digest
    ]


def debias(vocab, matrix, out_path, subspace_path, k, in_scope=None) -> list[str]:
    """Vocabulary order, k orthonormal basis rows, projected and untouched rows.

    ``in_scope`` is a boolean row mask; None means every row is in scope.
    """
    out_vocab, out = read_vec(out_path)
    if out_vocab != list(vocab):
        return [f"{out_path}: vocabulary differs from the input's (order or words)"]
    with open(subspace_path, encoding="utf-8") as fh:
        basis = np.array(json.load(fh)["basis"], dtype=np.float64)
    if basis.shape != (k, matrix.shape[1]):
        return [f"{subspace_path}: basis shape {basis.shape}, expected {(k, matrix.shape[1])}"]
    failures = []
    gram_err = np.abs(basis @ basis.T - np.eye(k)).max()
    if gram_err > ORTHONORMAL_TOL:
        failures.append(f"{subspace_path}: basis rows not orthonormal ({gram_err:.2e})")
    x = normalized(matrix)
    mask = np.ones(len(vocab), dtype=bool) if in_scope is None else np.asarray(in_scope)
    rows, xs = out[mask], x[mask]
    share = np.linalg.norm(rows @ basis.T, axis=1) / np.maximum(np.linalg.norm(rows, axis=1), 1e-300)
    if share.size and share.max() > IN_SUBSPACE_TOL:
        failures.append(f"{out_path}: an in-scope row keeps {share.max():.2e} of its norm in the subspace")
    residual_err = np.abs(rows - (xs - (xs @ basis.T) @ basis)).max(initial=0.0)
    if residual_err > RESIDUAL_TOL:
        failures.append(f"{out_path}: in-scope rows differ from the projected input by {residual_err:.2e}")
    untouched_err = np.abs(out[~mask] - x[~mask]).max(initial=0.0)
    if untouched_err > UNTOUCHED_TOL:
        failures.append(f"{out_path}: out-of-scope rows differ from the input by {untouched_err:.2e}")
    return failures


def align(hi_vocab, hi, en_vocab, en, q, dict_rows, aligned_path, merged_path) -> list[str]:
    """The fitted map recovers Q, dictionary rows land on en, merge has 2N rows."""
    a_vocab, a = read_vec(aligned_path)
    if a_vocab != list(hi_vocab):
        return [f"{aligned_path}: vocabulary differs from the source's"]
    failures = []
    hn, en_n = normalized(hi), normalized(en)
    dict_err = np.abs(a[dict_rows] - en_n[dict_rows]).max()
    if dict_err > ALIGN_TOL:
        failures.append(f"{aligned_path}: dictionary rows miss their en rows by {dict_err:.2e}")
    # aligned rows are W applied to the unit source rows: recover W by least squares
    w_t = np.linalg.lstsq(hn, a, rcond=None)[0]
    map_err = np.abs(w_t.T - q).max()
    if map_err > ALIGN_TOL:
        failures.append(f"{aligned_path}: fitted map differs from the planted Q by {map_err:.2e}")
    m_vocab, m = read_vec(merged_path)
    expected = [f"hi:{w}" for w in hi_vocab] + [f"en:{w}" for w in en_vocab]
    if len(m_vocab) != 2 * len(hi_vocab) or m_vocab != expected:
        failures.append(f"{merged_path}: {len(m_vocab)} rows, expected 2N = {2 * len(hi_vocab)}"
                        " prefixed hi then en rows")
    elif np.abs(m - np.vstack([a, en_n])).max() > UNTOUCHED_TOL:
        failures.append(f"{merged_path}: rows differ from the aligned and en rows")
    return failures


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def xscore(json_path, languages) -> list[str]:
    values = _load(json_path)["values"]
    return [
        f"{json_path}: diagonal [{lang}] = {values[lang][lang]!r}, not 1"
        for lang in languages
        if not abs(values[lang][lang] - 1.0) < DIAGONAL_TOL
    ]


def inbias(json_path, language) -> list[str]:
    values = _load(json_path)["values"]
    orig, after = values["orig"][language], values["debiased"][language]
    if not after < orig:
        return [f"{json_path}: debiased inbias {after!r} is not below orig {orig!r}"]
    return []


def exbias(json_path) -> list[str]:
    failures = []
    for label, run in _load(json_path)["runs"].items():
        accs = [run["male_acc"], run["female_acc"]]
        for row in run["per_occupation"]:
            accs += [row["acc_male"], row["acc_female"]]
        if not all(isinstance(a, (int, float)) and math.isfinite(a) and 0.0 <= a <= 1.0
                   for a in accs):
            failures.append(f"{json_path}: {label} has an accuracy outside [0, 1]")
    return failures
