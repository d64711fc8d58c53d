"""Planted worlds with a recorded truth, shared by the demo and the tests.

numpy only: nothing here imports ``debias_embed``, so a world does not depend
on the code it checks. The scripts beside this file import it as ``planted``;
the tests put ``scripts/`` on ``sys.path``.
"""

from typing import NamedTuple

import numpy as np

#: each language's planted direction lies at this angle (degrees) from a
#: direction all languages share
ANGLES_DEG = {"en": 25.0, "hi": 35.0, "be": 45.0, "te": 55.0}

#: bios: indicator words per occupation, marker words per gender, indicator
#: and marker tokens drawn per record, and the largest skew of an
#: occupation's male share away from 0.5
INDICATORS_PER_OCCUPATION = 8
MARKERS_PER_GENDER = 6
INDICATOR_TOKENS = 8
GENDERED_TOKENS = 4
MAX_SKEW = 0.4


class Language(NamedTuple):
    words: tuple
    rows: np.ndarray
    direction: np.ndarray  # the unit direction gendered words were planted along


class Bio(NamedTuple):
    gender: str
    occupation: str
    tokens: tuple


class OffsetWorld(NamedTuple):
    rows: np.ndarray  # pair-difference rows, each language's in a block, in pair_counts order
    row_languages: tuple  # the language of each row
    directions: dict  # {tag: the unit direction its rows were planted along}
    pair_counts: dict  # {tag: its row count}


def _unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _language_rows(lexicon, tag, direction, rng, dim, beta, noise):
    """Unit rows over the lexicon vocabulary of one language.

    Words from defining pairs and seed sets sit at +-beta along the
    planted direction (plus per-word jitter so the pair differences
    have rank > 1); occupation words get graded tilts; everything else
    is isotropic noise.
    """
    rows = {}

    def place(word, component):
        v = np.sqrt(max(0.0, 1.0 - component**2)) * _unit(rng, dim)
        v += component * direction + noise * rng.standard_normal(dim)
        rows[word] = v / np.linalg.norm(v)

    for pair in lexicon.defining_pairs[tag]:
        shared = _unit(rng, dim)
        for word, sign in ((pair.male_word, 1.0), (pair.female_word, -1.0)):
            v = np.sqrt(1.0 - beta**2) * shared + sign * beta * direction
            v += noise * rng.standard_normal(dim)
            rows.setdefault(word, v / np.linalg.norm(v))
    seeds = lexicon.seed_sets[tag]
    for word in seeds.male:
        if word not in rows:
            place(word, beta)
    for word in seeds.female:
        if word not in rows:
            place(word, -beta)
    occupations = [m for m, _ in lexicon.occupation_pairs[tag]]
    for word, tilt in zip(occupations, np.linspace(-0.45, 0.45, len(occupations))):
        place(word, tilt)
    neutral = lexicon.neutral_words[tag]
    for word in neutral.adjectives + neutral.transliterations:
        if word not in rows:
            place(word, 0.0)
    words = tuple(rows)
    return words, np.array([rows[w] for w in words])


def language_world(lexicon, dim, beta, noise, seed):
    """``{tag: Language}`` for each language of ``ANGLES_DEG``, in that order.

    Each language's direction is ``cos(a) * common + sin(a) * own`` for its
    angle ``a``, with ``common`` shared by all and ``own`` a unit vector
    orthogonal to it, so two languages' directions are correlated.
    """
    rng = np.random.default_rng(seed)
    common = _unit(rng, dim)
    world = {}
    for tag, angle in ANGLES_DEG.items():
        own = rng.standard_normal(dim)
        own -= (own @ common) * common
        own /= np.linalg.norm(own)
        theta = np.radians(angle)
        direction = np.cos(theta) * common + np.sin(theta) * own
        world[tag] = Language(*_language_rows(lexicon, tag, direction, rng, dim, beta, noise),
                              direction)
    return world


def offset_world(pair_counts, dim, own, seed):
    """Pair-difference rows of the offset model, with their truth, as an ``OffsetWorld``.

    Language l's direction is g_l = unit(shared + own * own_l), for random
    unit vectors ``shared`` and ``own_l``. Each of its ``pair_counts[l]``
    rows is a_i * g_l + N(0, 1/dim) noise, with the loading a_i uniform on
    [0.5, 1.5]: an offset along g_l that every pair shares.
    """
    rng = np.random.default_rng(seed)
    shared = _unit(rng, dim)
    rows, row_languages, directions = [], [], {}
    for tag, n in pair_counts.items():
        g = shared + own * _unit(rng, dim)
        g /= np.linalg.norm(g)
        loadings = rng.uniform(0.5, 1.5, size=n)
        rows.append(np.outer(loadings, g) + rng.standard_normal((n, dim)) / np.sqrt(dim))
        row_languages += [tag] * n
        directions[tag] = g
    return OffsetWorld(np.vstack(rows), tuple(row_languages), directions, dict(pair_counts))


def marker_world(seed, dim, k, n_plain):
    """``(words, rows, basis)``: unit rows and the k x dim orthonormal basis
    planted in them.

    ``him0``...``him5`` lie at sine 0.05 from ``basis[0]`` and ``her0``...``her5``
    from ``-basis[0]``, off the basis only in directions orthogonal to it; the
    ``n_plain`` words ``w000``... are exactly orthogonal to every basis row.
    """
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((dim, k)))[0].T.copy()
    eta = 0.05

    def off_basis_unit():
        v = rng.standard_normal(dim)
        v -= basis.T @ (basis @ v)
        return v / np.linalg.norm(v)

    words, rows = [], []
    for prefix, sign in (("him", 1.0), ("her", -1.0)):
        for j in range(6):
            words.append(f"{prefix}{j}")
            rows.append(sign * np.sqrt(1 - eta**2) * basis[0] + eta * off_basis_unit())
    for j in range(n_plain):
        words.append(f"w{j:03d}")
        rows.append(off_basis_unit())
    return tuple(words), np.array(rows), basis


def bios(words, rows, basis, n_occupations, n_records, bias_strength, seed):
    """Bios over ``words`` with a planted gender-occupation link, as ``Bio``
    records (the fields of ``extrinsic.BioRecord``).

    Occupation i leans male for even i and female for odd i, with the male
    share at 0.5 + MAX_SKEW * bias_strength * (+-1). Each record draws its
    occupation's indicator words and its gender's marker words. Marker words
    are the rows with the most positive / most negative projection on
    ``basis[0]``; indicator words come from the rows least loaded on
    ``basis``.
    """
    need = n_occupations * INDICATORS_PER_OCCUPATION + 2 * MARKERS_PER_GENDER
    if len(words) < need:
        raise ValueError(f"vocabulary too small: {len(words)} words, {need} needed")
    order = np.argsort(rows @ basis[0], kind="stable")
    m = MARKERS_PER_GENDER
    markers = {"F": [words[i] for i in order[:m]], "M": [words[i] for i in order[-m:]]}
    marker_rows = set(order[:m]) | set(order[-m:])
    loading = np.linalg.norm(rows @ basis.T, axis=1)
    neutral = [i for i in np.argsort(loading, kind="stable") if i not in marker_rows]
    per = INDICATORS_PER_OCCUPATION

    rng = np.random.default_rng(seed)
    base, extra = divmod(n_records, n_occupations)
    records = []
    for occ in range(n_occupations):
        count = base + (1 if occ < extra else 0)
        male_share = 0.5 + MAX_SKEW * bias_strength * (1.0 if occ % 2 == 0 else -1.0)
        n_male = min(max(int(round(count * male_share)), 0), count)
        genders = np.array(["M"] * n_male + ["F"] * (count - n_male))
        rng.shuffle(genders)
        indicators = [words[i] for i in neutral[occ * per:(occ + 1) * per]]
        for g in genders:
            tokens = rng.choice(indicators, size=INDICATOR_TOKENS, replace=True)
            gendered = rng.choice(markers[g], size=GENDERED_TOKENS, replace=True)
            records.append(Bio(str(g), f"occ{occ:02d}", tuple(tokens) + tuple(gendered)))
    return records
