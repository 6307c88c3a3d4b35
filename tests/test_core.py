"""Track letters, word assignments, padding, synchronicity, and the two
quantifier-tree walks."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperlang.core import (PAD, QuantifierPrefix, as_word, evaluate,
                            is_synchronous, letter_text, members, pad_to_sync,
                            render_word, strip_hash)

from conftest import hword, letter

padded_words = st.text(alphabet="ab#", max_size=6).map(as_word)
plain_words = st.text(alphabet="ab", max_size=6).map(as_word)


def test_strip_hash():
    assert strip_hash(as_word("a#b#")) == ("a", "b")
    assert strip_hash(()) == ()
    assert strip_hash(as_word("bb#aabb#baa")) == as_word("bbaabbbaa")


@given(padded_words)
def test_strip_hash_removes_only_pad(w):
    assert PAD not in strip_hash(w)
    assert len(strip_hash(w)) <= len(w)


@given(st.dictionaries(st.sampled_from("xyz"), plain_words, min_size=1))
def test_pad_to_sync_properties(assignment):
    h = pad_to_sync(assignment)
    assert is_synchronous(h)
    longest = max(len(w) for w in assignment.values())
    assert len(h) == longest
    recovered = {v: strip_hash(tuple(l[j] for l in h))
                 for j, v in enumerate(assignment)}
    assert recovered == assignment


def test_is_synchronous():
    assert is_synchronous(hword({"x": "ab#", "y": "abb"}))
    assert not is_synchronous(hword({"x": "a#b"}))
    assert is_synchronous(hword({"x1": "a##", "x2": "baa"}))
    assert not is_synchronous(hword({"x": "abb", "y": "a#b"}))
    assert is_synchronous(())


def test_pad_to_sync_examples():
    h = pad_to_sync({"x": as_word("aa"), "y": as_word("abb")})
    assert h == hword({"x": "aa#", "y": "abb"})
    assert pad_to_sync({"x": as_word("a")}) == hword({"x": "a"})
    assert pad_to_sync({"x": (), "y": ()}) == ()


def test_track_letter_rendering():
    """A letter is its tuple of symbols; its text names each track."""
    t = letter(("x1", "x2"), "a", "#")
    assert t == ("a", "#")
    assert letter_text(("x1", "x2"), t) == "[x1=a,x2=#]"
    assert letter_text(("x",), ("10",)) == "[x=10]"


def test_quantifier_prefix():
    p = QuantifierPrefix.parse("A x E y")
    assert p.variables == ("x", "y")
    assert p.quantifiers == ("A", "E")
    assert p.render() == "A x E y"
    with pytest.raises(ValueError):
        QuantifierPrefix.parse("A x A x")
    with pytest.raises(ValueError):
        QuantifierPrefix.parse("Z x")


def test_render_word():
    assert render_word(()) == "eps"
    assert render_word(as_word("ab")) == "ab"
    # joined, these symbols would read as the empty word
    assert render_word(as_word("eps")) == "e p s"
    assert render_word(("ab", "c")) == "ab c"


def test_evaluate_short_circuits():
    """Each quantifier stops at its first deciding branch: ∃ at the first
    accepted word, ∀ at the first rejected one, and ∃∀ after the leaves
    counted by hand below."""
    words = [as_word(w) for w in "abcde"]
    calls = []

    def counting(accepts):
        def leaf(assignment):
            calls.append("".join(map("".join, assignment)))
            return accepts(*assignment)
        return leaf

    assert evaluate(("E",), words, counting(lambda x: x == ("c",)))
    assert calls == ["a", "b", "c"]
    calls.clear()
    assert not evaluate(("A",), words, counting(lambda x: x != ("b",)))
    assert calls == ["a", "b"]
    # x = a: y = a holds, y = b fails; x = b: y = a fails; x = c: every y
    # holds.  Six leaves, not the nine of a walk that does not stop
    calls.clear()
    assert evaluate(("E", "A"), words[:3], counting(
        lambda x, y: (x, y) != (("b",), ("a",)) and (x == ("c",) or y != ("b",))))
    assert calls == ["aa", "ab", "ba", "ca", "cb", "cc"]


def _reference_members(quantifiers, tuples, candidates):
    """``members`` by its definition: ``evaluate`` on each candidate, with
    a leaf that looks the assignment up among the tuples."""
    return [words for words in candidates
            if evaluate(quantifiers, words, tuples.__contains__)]


def test_members_equals_evaluate_with_a_set_leaf():
    """On random tuple sets over the 7 words of {a, b}^{≤2}, sparse, dense
    and empty, under every prefix of one to three quantifiers, ``members``
    yields the candidates that the reference accepts, in the candidates'
    own order: every language of one to three words, shuffled out of mask
    order.  With no tuple it reads no candidate."""
    rng = random.Random(41)
    universe = [as_word(w) for w in ("", "a", "b", "aa", "ab", "ba", "bb")]
    candidates = [c for k in (1, 2, 3) for c in itertools.combinations(universe, k)]
    counts = set()
    for k in (1, 2, 3):
        every = list(itertools.product(universe, repeat=k))
        for quantifiers in itertools.product("EA", repeat=k):
            for density in (0.0, 0.3, 0.9):
                tuples = {t for t in every if rng.random() < density}
                rng.shuffle(candidates)
                expected = _reference_members(quantifiers, tuples, candidates)
                assert list(members(quantifiers, tuples, candidates)) == expected, \
                    (quantifiers, density)
                counts.add(min(len(expected), 1) + (len(expected) == len(candidates)))

    def unread():
        raise AssertionError("a candidate was read")
        yield

    assert list(members(("A", "E"), set(), unread())) == []
    assert counts == {0, 1, 2}
