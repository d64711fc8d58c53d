import json

import pytest

from debias_embed.lexicon import (
    GenderLexicon,
    GenderPair,
    NeutralWords,
    SeedSets,
    builtin_lexicon,
    load_lexicon,
    split_pairs,
    validate_lexicon,
)
from helpers import two_language_lexicon


def test_builtin_lexicon_counts():
    lex = builtin_lexicon()
    assert lex.languages() == ("en", "hi", "be", "te")
    counts = {
        tag: (
            len(lex.defining_pairs[tag]),
            len(lex.neutral_words[tag].professions),
            len(lex.neutral_words[tag].adjectives),
            len(lex.neutral_words[tag].transliterations),
        )
        for tag in lex.languages()
    }
    assert counts["en"] == (20, 59, 50, 0)
    assert counts["hi"] == (20, 28, 44, 14)
    assert counts["be"] == (21, 29, 43, 15)
    assert counts["te"] == (15, 18, 54, 18)
    assert sum(c[0] for c in counts.values()) == 76
    assert sum(c[1] for c in counts.values()) == 134
    assert sum(c[2] for c in counts.values()) == 191
    assert sum(c[3] for c in counts.values()) == 47


def test_builtin_lexicon_is_valid():
    lex = builtin_lexicon()
    validate_lexicon(lex)
    for tag in lex.languages():
        seeds = lex.seed_sets[tag]
        assert seeds.male and seeds.female
        assert not set(seeds.male) & set(seeds.female)
        occ = lex.occupation_pairs[tag]
        assert len(set(occ)) == len(occ)


def test_pair_rejects_identical_words():
    with pytest.raises(ValueError):
        GenderPair("same", "same", "en")


def test_pair_rejects_multi_token():
    with pytest.raises(ValueError):
        GenderPair("two words", "she", "en")


def test_neutral_words_merge_dedupes():
    nw = NeutralWords(("doctor", "pilot"), ("kind", "doctor"), ())
    assert nw.all_words() == ("doctor", "pilot", "kind")


def test_validate_rejects_pair_neutral_overlap():
    lex = GenderLexicon(
        defining_pairs={"aa": (GenderPair("m", "f", "aa"),)},
        neutral_words={"aa": NeutralWords(("m",), (), ())},
        seed_sets={"aa": SeedSets(("m",), ("f",))},
        occupation_pairs={"aa": ()},
    )
    with pytest.raises(ValueError, match="both a defining pair and a neutral"):
        validate_lexicon(lex)


def test_validate_rejects_seed_overlap():
    lex = GenderLexicon(
        defining_pairs={"aa": (GenderPair("m", "f", "aa"),)},
        neutral_words={"aa": NeutralWords((), (), ())},
        seed_sets={"aa": SeedSets(("s",), ("s",))},
        occupation_pairs={"aa": ()},
    )
    with pytest.raises(ValueError):
        validate_lexicon(lex)


def test_split_pairs_deterministic_and_disjoint():
    lex = two_language_lexicon(n_pairs=6)
    s1 = split_pairs(lex, "aa", train_count=4, seed=9)
    s2 = split_pairs(lex, "aa", train_count=4, seed=9)
    assert s1.train_pairs == s2.train_pairs
    assert s1.test_pairs == s2.test_pairs
    assert len(s1.train_pairs) == 4
    assert len(s1.test_pairs) == 2
    assert not set(s1.train_pairs) & set(s1.test_pairs)
    s3 = split_pairs(lex, "aa", train_count=4, seed=10)
    assert s3.train_pairs != s1.train_pairs  # different seed shuffles differently
    male, female = s1.held_out_words()
    assert [GenderPair(m, f, "aa") for m, f in zip(male, female)] == list(s1.test_pairs)


def test_split_pairs_rejects_bad_counts():
    lex = two_language_lexicon(n_pairs=6)
    with pytest.raises(ValueError):
        split_pairs(lex, "aa", train_count=0, seed=0)
    with pytest.raises(ValueError):
        split_pairs(lex, "aa", train_count=7, seed=0)
    with pytest.raises(ValueError, match="zz"):
        split_pairs(lex, "zz", train_count=1, seed=0)


def test_load_lexicon_round_trip(tmp_path):
    data = {
        "languages": {
            "aa": {
                "pairs": [["he", "she"], ["king", "queen"]],
                "neutral": {
                    "professions": ["doctor"],
                    "adjectives": ["kind"],
                    "transliterations": [],
                },
                "seeds": {"male": ["he"], "female": ["she"]},
                "occupation_pairs": [["doctor", "doctor"]],
            }
        }
    }
    path = tmp_path / "lex.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    lex = load_lexicon(str(path))
    assert lex.languages() == ("aa",)
    assert lex.defining_pairs["aa"][0].male_word == "he"
    assert lex.neutral_words["aa"].professions == ("doctor",)
    assert lex.occupation_pairs["aa"] == (("doctor", "doctor"),)


def test_load_lexicon_rejects_missing_sections(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"languages": {"aa": {"pairs": [["a", "b"]]}}}))
    with pytest.raises(ValueError, match="aa"):
        load_lexicon(str(path))


def test_load_lexicon_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError):
        load_lexicon(str(path))
