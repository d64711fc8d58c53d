import json

import pytest

from debias_embed import lexicon
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
from debias_embed.intrinsic import cross_score_matrix, inbias
from helpers import random_space, two_language_lexicon


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


def test_lexicon_words_split_at_ascii_whitespace_only(tmp_path):
    # a word a .vec file can hold is one token: U+00A0 and U+3000 do not split it
    assert GenderPair("new\u00a0king", "new\u3000queen", "en").male_word == "new\u00a0king"
    data = {"languages": {"en": {
        "pairs": [["he", "she"]],
        "neutral": {"professions": ["head\u00a0chef"], "adjectives": [], "transliterations": []},
        "seeds": {"male": ["he"], "female": ["she"]},
        "occupation_pairs": [["head\u00a0chef", "head\u00a0chef"]],
    }}}
    path = tmp_path / "lex.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert load_lexicon(str(path)).neutral_words["en"].professions == ("head\u00a0chef",)
    data["languages"]["en"]["neutral"]["professions"] = ["head\tchef"]
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match=r"professions: multi-token entry 'head\\tchef'"):
        load_lexicon(str(path))


def test_each_lexicon_entry_is_checked_for_one_token_once(monkeypatch):
    # a pair word is checked when the pair is built, not also as the file is read
    checked = []
    split_words = lexicon.split_words
    monkeypatch.setattr(lexicon, "split_words", lambda w: checked.append(w) or split_words(w))
    lex = builtin_lexicon()
    entries = []
    for tag in lex.languages():
        entries += [w for p in lex.defining_pairs[tag] for w in (p.male_word, p.female_word)]
        neutral = lex.neutral_words[tag]
        entries += [*neutral.professions, *neutral.adjectives, *neutral.transliterations]
        entries += [*lex.seed_sets[tag].male, *lex.seed_sets[tag].female]
        entries += [w for pair in lex.occupation_pairs[tag] for w in pair]
    assert sorted(checked) == sorted(entries)


def test_a_multi_token_pair_word_is_named_with_its_file_and_language(tmp_path):
    data = {"languages": {"en": {
        "pairs": [["he", "she"], ["two words", "she"]],
        "neutral": {"professions": ["doctor"], "adjectives": [], "transliterations": []},
        "seeds": {"male": ["he"], "female": ["she"]},
        "occupation_pairs": [],
    }}}
    path = tmp_path / "lex.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError) as refused:
        load_lexicon(str(path))
    assert str(refused.value) == f"{path}: language 'en': pair: multi-token entry 'two words'"
    with pytest.raises(ValueError, match=r"^gender pair: multi-token entry 'two words'$"):
        GenderPair("two words", "she", "en")


def test_neutral_words_merge_dedupes():
    nw = NeutralWords(("doctor", "pilot"), ("kind", "doctor"), ())
    assert nw.all_words() == ("doctor", "pilot", "kind")


def test_words_name_every_lexicon_word_once_in_order():
    lex = two_language_lexicon(n_pairs=2, n_neutral=4)
    # seeds repeat pair words and occupation pairs repeat neutral words
    assert lex.words("aa") == ("aam0", "aaf0", "aam1", "aaf1", "aan0", "aan1", "aan2", "aan3")


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
    with pytest.raises(ValueError, match="^unknown language 'zz' in lexicon$"):
        split_pairs(lex, "zz", train_count=1, seed=0)


ENTRY_POINTS = {
    "require_languages": lambda lex, space, languages: lex.require_languages(languages),
    "inbias": lambda lex, space, languages: inbias(space, lex, languages),
    "cross_score_matrix": lambda lex, space, languages: cross_score_matrix(space, lex, languages),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("languages, message", [
    ((), "at least one language is required"),
    (("aa", "zz"), "unknown language 'zz' in lexicon"),
    (("zz", "yy"), "unknown language 'zz' in lexicon"),
])
def test_each_entry_point_refuses_languages_the_lexicon_cannot_serve(entry, languages, message):
    lex = two_language_lexicon()
    space = random_space(0, 0, 4, tag="aa", words=lex.words("aa"))
    with pytest.raises(ValueError) as caught:
        ENTRY_POINTS[entry](lex, space, iter(languages))  # any iterable of tags
    assert str(caught.value) == message


def test_require_languages_returns_the_tags_as_a_tuple_in_order():
    assert two_language_lexicon().require_languages(iter(["bb", "aa"])) == ("bb", "aa")


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


@pytest.mark.parametrize("pair", [[1, "she"], ["he", ["x"]], ["he", None], ["", "she"]])
def test_load_lexicon_rejects_a_pair_word_that_is_not_a_string(tmp_path, pair):
    data = {"languages": {"en": {
        "pairs": [pair],
        "neutral": {"professions": ["doctor"], "adjectives": [], "transliterations": []},
        "seeds": {"male": ["he"], "female": ["she"]},
        "occupation_pairs": [],
    }}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match=r"language 'en': pair: entries must be non-empty strings"):
        load_lexicon(str(path))
