"""Gendered lexicons: defining pairs, neutral word lists, seeds.

A lexicon file is JSON shaped like::

    {"languages": {"<tag>": {
        "pairs": [["male", "female"], ...],
        "neutral": {"professions": [...], "adjectives": [...],
                    "transliterations": [...]},
        "seeds": {"male": [...], "female": [...]},
        "occupation_pairs": [["masc", "fem"], ...]}}}

All entries are single tokens, split as ``.vec`` words are, at ASCII
whitespace only. Occupation pairs may repeat one surface form on both
sides (languages without grammatically gendered occupation words evaluate
the same word against both seed sets).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .embeddings import decode_line, split_words

log = logging.getLogger(__name__)

__all__ = [
    "GenderPair",
    "NeutralWords",
    "SeedSets",
    "GenderLexicon",
    "PairSplit",
    "load_lexicon",
    "builtin_lexicon",
    "split_pairs",
]


@dataclass(frozen=True)
class GenderPair:
    """One male/female defining pair, e.g. ("he", "she")."""

    male_word: str
    female_word: str
    language_tag: str

    def __post_init__(self):
        for w in (self.male_word, self.female_word):
            if not w:
                raise ValueError(f"empty word in gender pair for {self.language_tag!r}")
            if len(split_words(w)) != 1:
                raise ValueError(f"multi-token entry {w!r} in gender pair")
        if self.male_word == self.female_word:
            raise ValueError(
                f"defining pair for {self.language_tag!r} repeats {self.male_word!r}"
            )


@dataclass(frozen=True)
class NeutralWords:
    professions: tuple[str, ...]
    adjectives: tuple[str, ...]
    transliterations: tuple[str, ...] = ()

    def all_words(self) -> tuple[str, ...]:
        """Every neutral word, categories merged, order kept, deduplicated."""
        merged = self.professions + self.adjectives + self.transliterations
        return tuple(dict.fromkeys(merged))


@dataclass(frozen=True)
class SeedSets:
    male: tuple[str, ...]
    female: tuple[str, ...]


@dataclass(frozen=True)
class PairSplit:
    train_pairs: tuple[GenderPair, ...]
    test_pairs: tuple[GenderPair, ...]

    def held_out_words(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The male and the female words of the test pairs, in split order.

        These are the held-out seed sets bias is scored against, so that the
        words scored never trained the subspace.
        """
        return (
            tuple(p.male_word for p in self.test_pairs),
            tuple(p.female_word for p in self.test_pairs),
        )


@dataclass(frozen=True)
class GenderLexicon:
    defining_pairs: dict[str, tuple[GenderPair, ...]]
    neutral_words: dict[str, NeutralWords]
    seed_sets: dict[str, SeedSets]
    occupation_pairs: dict[str, tuple[tuple[str, str], ...]]

    def languages(self) -> tuple[str, ...]:
        return tuple(self.defining_pairs)

    def require_languages(self, languages) -> tuple[str, ...]:
        """``languages`` as a tuple, refused with ValueError when it is empty or
        names a language this lexicon lacks."""
        languages = tuple(languages)
        if not languages:
            raise ValueError("at least one language is required")
        for lang in languages:
            if lang not in self.defining_pairs:
                raise ValueError(f"unknown language {lang!r} in lexicon")
        return languages

    def words(self, language: str) -> tuple[str, ...]:
        """Every word this lexicon names for ``language``, first occurrence kept:
        defining pairs, neutral words, seeds, then occupation pairs."""
        words = [w for p in self.defining_pairs[language] for w in (p.male_word, p.female_word)]
        words += self.neutral_words[language].all_words()
        words += self.seed_sets[language].male + self.seed_sets[language].female
        words += [w for pair in self.occupation_pairs[language] for w in pair]
        return tuple(dict.fromkeys(words))


def _require(cond, message):
    if not cond:
        raise ValueError(message)


def _token_list(obj, what):
    _require(isinstance(obj, list), f"{what} must be a list")
    out = []
    for w in obj:
        _require(isinstance(w, str) and w, f"{what}: entries must be non-empty strings")
        _require(len(split_words(w)) == 1, f"{what}: multi-token entry {w!r}")
        out.append(w)
    return tuple(out)


def validate_lexicon(lex: GenderLexicon) -> None:
    """Check the cross-field invariants; raise ValueError on the first hit."""
    for tag, pairs in lex.defining_pairs.items():
        defining = {w for p in pairs for w in (p.male_word, p.female_word)}
        neutral = set(lex.neutral_words[tag].professions)
        neutral |= set(lex.neutral_words[tag].adjectives)
        neutral |= set(lex.neutral_words[tag].transliterations)
        overlap = defining & neutral
        _require(
            not overlap,
            f"{tag}: word(s) in both a defining pair and a neutral list: "
            + ", ".join(repr(w) for w in sorted(overlap)[:8]),
        )
        seeds = lex.seed_sets[tag]
        _require(seeds.male, f"{tag}: empty male seed set")
        _require(seeds.female, f"{tag}: empty female seed set")
        both = set(seeds.male) & set(seeds.female)
        _require(not both, f"{tag}: seed word(s) on both sides: {sorted(both)[:8]}")
        seen = set()
        for om, of in lex.occupation_pairs[tag]:
            _require((om, of) not in seen, f"{tag}: duplicate occupation pair ({om!r}, {of!r})")
            seen.add((om, of))


def load_lexicon(path) -> GenderLexicon:
    """Parse and validate a lexicon JSON file; an undecodable byte is named with its line."""
    with open(path, "rb") as fh:
        data = json.loads("".join(decode_line(raw, path, n) for n, raw in enumerate(fh, 1)))
    return _lexicon_from_dict(data, str(path))


def _lexicon_from_dict(data, origin) -> GenderLexicon:
    _require(isinstance(data, dict) and "languages" in data, f"{origin}: missing 'languages' key")
    langs = data["languages"]
    _require(isinstance(langs, dict) and langs, f"{origin}: 'languages' must be a non-empty object")

    defining: dict[str, tuple[GenderPair, ...]] = {}
    neutral: dict[str, NeutralWords] = {}
    seeds: dict[str, SeedSets] = {}
    occupations: dict[str, tuple[tuple[str, str], ...]] = {}
    for tag, entry in langs.items():
        where = f"{origin}: language {tag!r}"
        _require(isinstance(entry, dict), f"{where}: entry must be an object")
        for key in ("pairs", "neutral", "seeds", "occupation_pairs"):
            _require(key in entry, f"{where}: missing {key!r}")

        raw_pairs = entry["pairs"]
        _require(isinstance(raw_pairs, list), f"{where}: 'pairs' must be a list")
        pairs = []
        for item in raw_pairs:
            _require(
                isinstance(item, list) and len(item) == 2,
                f"{where}: each pair must be a [male, female] list",
            )
            pairs.append(GenderPair(*_token_list(item, f"{where}: pair"), tag))
        defining[tag] = tuple(pairs)

        cats = entry["neutral"]
        _require(isinstance(cats, dict), f"{where}: 'neutral' must be an object")
        for key in ("professions", "adjectives", "transliterations"):
            _require(key in cats, f"{where}: neutral lists need {key!r}")
        neutral[tag] = NeutralWords(
            professions=_token_list(cats["professions"], f"{where}: professions"),
            adjectives=_token_list(cats["adjectives"], f"{where}: adjectives"),
            transliterations=_token_list(cats["transliterations"], f"{where}: transliterations"),
        )

        raw_seeds = entry["seeds"]
        _require(
            isinstance(raw_seeds, dict) and "male" in raw_seeds and "female" in raw_seeds,
            f"{where}: 'seeds' must hold 'male' and 'female' lists",
        )
        seeds[tag] = SeedSets(
            male=_token_list(raw_seeds["male"], f"{where}: male seeds"),
            female=_token_list(raw_seeds["female"], f"{where}: female seeds"),
        )

        raw_occ = entry["occupation_pairs"]
        _require(isinstance(raw_occ, list), f"{where}: 'occupation_pairs' must be a list")
        occ = []
        for item in raw_occ:
            _require(
                isinstance(item, list) and len(item) == 2,
                f"{where}: each occupation pair must be a [masculine, feminine] list",
            )
            om = _token_list([item[0]], f"{where}: occupation pair")[0]
            of = _token_list([item[1]], f"{where}: occupation pair")[0]
            occ.append((om, of))
        occupations[tag] = tuple(occ)

    lex = GenderLexicon(defining, neutral, seeds, occupations)
    validate_lexicon(lex)
    return lex


def builtin_lexicon() -> GenderLexicon:
    """The gendered lexicon bundled with the package (en, hi, be, te)."""
    ref = resources.files("debias_embed").joinpath("data/lexicon.json")
    data = json.loads(ref.read_text(encoding="utf-8"))
    return _lexicon_from_dict(data, "builtin lexicon")


def split_pairs(
    lexicon: GenderLexicon, language_tag: str, train_count: int = 10, seed: int = 0
) -> PairSplit:
    """Deterministically split a language's defining pairs into train/test.

    The pairs are shuffled by a seeded generator; the first ``train_count``
    go to train, the remainder to test. An empty test side is legal but
    logged, since downstream bias evaluation then has nothing held out.
    """
    lexicon.require_languages((language_tag,))
    pairs = lexicon.defining_pairs[language_tag]
    if train_count < 1:
        raise ValueError("train_count must be at least 1")
    if train_count > len(pairs):
        raise ValueError(
            f"train_count {train_count} exceeds the {len(pairs)} defining pairs of"
            f" {language_tag!r}"
        )
    order = np.random.default_rng(seed).permutation(len(pairs))
    train = tuple(pairs[i] for i in order[:train_count])
    test = tuple(pairs[i] for i in order[train_count:])
    if not test:
        log.warning("split_pairs: %s train set uses every pair, test side is empty", language_tag)
    return PairSplit(train_pairs=train, test_pairs=test)
