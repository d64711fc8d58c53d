"""Deterministic benchmark inputs, written with stdlib + numpy only.

Nothing here imports ``debias_embed``: the inputs must not depend on the
code under test. The bundled lexicon is read as plain JSON so that the
spaces cover the words the CLI looks up. Rows are written the way
fastText writes them: the word, then every value followed by one space,
then ``\\n``; the header line has no trailing space.

The same ``seed`` gives byte-identical files; :func:`describe` records
each file's sha256, row count and byte size.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

DIM = 300
LANGUAGES = ("en", "hi", "be", "te")
#: decimals written per value; 1e-8 keeps the align oracle's 1e-6 checks meaningful
DECIMALS = 8
#: defining-pair and seed words sit at +-BETA along the planted direction
BETA = 0.6
#: per-coordinate jitter, so pair differences have full rank; at 0.01 the
#: projection-pursuit time varied about three times more across seeds
JITTER = 0.05


@dataclass(frozen=True)
class Lexicon:
    """The parts of the bundled lexicon JSON the generator and checks use."""

    pairs: dict          # lang -> [(male, female)]
    neutral: dict        # lang -> [word] (professions + adjectives + transliterations)
    seeds: dict          # lang -> ([male], [female])
    occupations: dict    # lang -> [(masc, fem)]

    def words(self, lang: str) -> list[str]:
        """Every word the lexicon names for ``lang``, first occurrence order."""
        out = [w for pair in self.pairs[lang] for w in pair]
        out += self.neutral[lang]
        out += self.seeds[lang][0] + self.seeds[lang][1]
        out += [w for pair in self.occupations[lang] for w in pair]
        return list(dict.fromkeys(out))


def read_lexicon(path: str) -> Lexicon:
    with open(path, encoding="utf-8") as fh:
        langs = json.load(fh)["languages"]
    return Lexicon(
        pairs={t: [tuple(p) for p in v["pairs"]] for t, v in langs.items()},
        neutral={
            t: list(v["neutral"].get("professions", []))
            + list(v["neutral"].get("adjectives", []))
            + list(v["neutral"].get("transliterations", []))
            for t, v in langs.items()
        },
        seeds={t: (list(v["seeds"]["male"]), list(v["seeds"]["female"])) for t, v in langs.items()},
        occupations={t: [tuple(p) for p in v["occupation_pairs"]] for t, v in langs.items()},
    )


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def plant_rows(lex: Lexicon, lang: str, direction: np.ndarray, rng) -> dict[str, np.ndarray]:
    """Unit rows for one language's lexicon words around ``direction``.

    Pair and seed words sit at +-BETA along the direction, occupation
    words get graded tilts, neutral words a small random tilt.
    """
    rows: dict[str, np.ndarray] = {}

    def place(word, tilt):
        if word not in rows:
            v = np.sqrt(1.0 - tilt**2) * _unit(rng.standard_normal(DIM)) + tilt * direction
            rows[word] = _unit(v + JITTER * rng.standard_normal(DIM))

    for male, female in lex.pairs[lang]:
        shared = np.sqrt(1.0 - BETA**2) * _unit(rng.standard_normal(DIM))
        for word, sign in ((male, 1.0), (female, -1.0)):
            if word not in rows:
                rows[word] = _unit(shared + sign * BETA * direction
                                   + JITTER * rng.standard_normal(DIM))
    for word in lex.seeds[lang][0]:
        place(word, BETA)
    for word in lex.seeds[lang][1]:
        place(word, -BETA)
    occupations = lex.occupations[lang]
    for (masc, fem), tilt in zip(occupations, np.linspace(-0.45, 0.45, len(occupations))):
        place(masc, tilt)
        place(fem, tilt)
    for word in lex.neutral[lang]:
        place(word, rng.uniform(-0.1, 0.1))
    for word in lex.words(lang):
        place(word, 0.0)
    return rows


def filler_rows(n: int, direction: np.ndarray, rng) -> np.ndarray:
    """``n`` random unit rows, each with a random tilt along ``direction``."""
    if n <= 0:
        return np.empty((0, DIM))
    base = _unit(rng.standard_normal((n, DIM)))
    base -= np.outer(base @ direction, direction)
    base = _unit(base)
    tilt = rng.uniform(-0.3, 0.3, size=(n, 1))
    return np.sqrt(1.0 - tilt**2) * base + tilt * direction


def with_norms(rows: np.ndarray, rng) -> np.ndarray:
    """Scale unit rows to norms in [0.5, 2), as raw fastText rows vary."""
    return rows * rng.uniform(0.5, 2.0, size=(rows.shape[0], 1))


def write_vec(path: str, vocab, matrix: np.ndarray) -> None:
    """fastText layout: ``<count> <dim>`` header, rows ending ``" \\n"``."""
    n, dim = matrix.shape
    line = "%s" + (" %." + str(DECIMALS) + "f") * dim + " \n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{n} {dim}\n")
        for word, row in zip(vocab, matrix.tolist()):
            fh.write(line % (word, *row))


def read_vec(path: str) -> tuple[list[str], np.ndarray]:
    """Whitespace-token reader for the benchmark's own checks."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        count, dim = int(header[0]), int(header[1])
        tokens = fh.read().split()
    if len(tokens) != count * (dim + 1):
        raise ValueError(f"{path}: {len(tokens)} tokens for {count}x{dim} rows")
    words = tokens[:: dim + 1]
    del tokens[:: dim + 1]
    return words, np.array(tokens, dtype=np.float64).reshape(count, dim)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def orthogonal(rng) -> np.ndarray:
    """A seeded DIM x DIM orthogonal matrix (QR of a Gaussian, signs fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((DIM, DIM)))
    return q * np.sign(np.diag(r))


def _fillers(prefix: str, n: int, taken) -> list[str]:
    taken = set(taken)
    names = [f"{prefix}{i:07d}" for i in range(n)]
    if taken.intersection(names):
        raise ValueError(f"filler name collides with a lexicon word: {prefix}")
    return names


@dataclass
class Inputs:
    """Generated files (role -> path) plus what the checks need to know."""

    files: dict
    rows: dict  # role -> .vec row count
    truth: dict = field(default_factory=dict)


def debias_inputs(lex: Lexicon, rows: int, seed: int, outdir: str) -> Inputs:
    """``en`` space: lexicon words plus filler tilted along one direction."""
    rng = np.random.default_rng([seed, 1])
    direction = _unit(rng.standard_normal(DIM))
    planted = plant_rows(lex, "en", direction, rng)
    vocab = list(planted) + _fillers("fill", rows - len(planted), planted)
    matrix = with_norms(np.vstack([np.array(list(planted.values())),
                                   filler_rows(rows - len(planted), direction, rng)]), rng)
    path = os.path.join(outdir, "en.vec")
    write_vec(path, vocab, matrix)
    return Inputs({"emb": path}, {"emb": rows})


def pursuit_inputs(lex: Lexicon, seed: int, outdir: str) -> Inputs:
    """Merged ``tag:word`` space over the four languages' lexicon words only."""
    rng = np.random.default_rng([seed, 2])
    shared = _unit(rng.standard_normal(DIM))
    vocab, blocks = [], []
    for lang in LANGUAGES:
        # each language's direction is correlated with, not equal to, the others'
        direction = _unit(shared + 0.5 * _unit(rng.standard_normal(DIM)))
        planted = plant_rows(lex, lang, direction, rng)
        vocab += [f"{lang}:{w}" for w in planted]
        blocks.append(np.array(list(planted.values())))
    matrix = with_norms(np.vstack(blocks), rng)
    path = os.path.join(outdir, "merged4.vec")
    write_vec(path, vocab, matrix)
    return Inputs({"emb": path}, {"emb": len(vocab)})


BIOS_OCCUPATIONS = 8
BIOS_PER_OCCUPATION = 600
BIOS_TOKENS = 12
INDICATORS_PER_OCCUPATION = 20


def align_inputs(lex: Lexicon, rows: int, dict_size: int, seed: int, outdir: str) -> Inputs:
    """``en`` and ``hi`` spaces (``hi`` = ``en`` rotated), dictionary, bios, after.

    Both languages' lexicon words get planted rows in one base matrix at
    disjoint positions, so each space holds the other's structure under
    filler names. Row i of ``hi`` is row i of ``en`` times Q, and the
    dictionary pairs hi word i with en word i.
    """
    rng = np.random.default_rng([seed, 3])
    direction = _unit(rng.standard_normal(DIM))
    en_rows = plant_rows(lex, "en", direction, rng)
    hi_rows = plant_rows(lex, "hi", direction, rng)
    n_fill = rows - len(en_rows) - len(hi_rows)
    base = with_norms(np.vstack([np.array(list(en_rows.values())),
                                 np.array(list(hi_rows.values())),
                                 filler_rows(n_fill, direction, rng)]), rng)
    en_fill = _fillers("enw", len(hi_rows) + n_fill, en_rows)
    hi_fill = _fillers("hiw", len(en_rows) + n_fill, hi_rows)
    en_vocab = list(en_rows) + en_fill
    hi_vocab = hi_fill[: len(en_rows)] + list(hi_rows) + hi_fill[len(en_rows):]
    q = orthogonal(rng)

    files = {role: os.path.join(outdir, name) for role, name in (
        ("en", "en.vec"), ("hi", "hi.vec"), ("after", "en_after.vec"),
        ("dict", "hi-en.dict"), ("bios", "bios.tsv"))}
    write_vec(files["en"], en_vocab, base)
    write_vec(files["hi"], hi_vocab, base @ q)
    write_vec(files["after"], en_vocab, base - np.outer(base @ direction, direction))

    dict_rows = np.sort(rng.choice(rows, size=dict_size, replace=False))
    with open(files["dict"], "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{hi_vocab[i]}\t{en_vocab[i]}\n" for i in dict_rows)

    occupations = [m for m, _ in lex.occupations["en"][:BIOS_OCCUPATIONS]]
    # indicator tokens come from pure filler rows, past the hi lexicon's positions
    first = len(hi_rows)
    indicators = np.array(en_fill[first: first + BIOS_OCCUPATIONS * INDICATORS_PER_OCCUPATION])
    indicators = indicators.reshape(BIOS_OCCUPATIONS, INDICATORS_PER_OCCUPATION)
    male, female = lex.seeds["en"]
    with open(files["bios"], "w", encoding="utf-8", newline="\n") as fh:
        for occ_id, occupation in enumerate(occupations):
            for i in range(BIOS_PER_OCCUPATION):
                gender = "M" if i % 2 == 0 else "F"
                markers = male if gender == "M" else female
                tokens = list(rng.choice(indicators[occ_id], size=BIOS_TOKENS - 2))
                tokens += list(rng.choice(markers, size=2))
                fh.write(f"{gender}\t{occupation}\t{' '.join(tokens)}\n")

    return Inputs(files, {"en": rows, "hi": rows, "after": rows},
                  {"q": q, "dict_rows": dict_rows})


def describe(inputs: Inputs) -> dict:
    """sha256, byte size and (for .vec files) row count of every input."""
    return {
        role: {
            "file": os.path.basename(path),
            "sha256": sha256_file(path),
            "bytes": os.path.getsize(path),
            "rows": inputs.rows.get(role),
        }
        for role, path in sorted(inputs.files.items())
    }
