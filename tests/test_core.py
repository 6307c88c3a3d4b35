"""Track letters, word assignments, padding, and synchronicity."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperlang.core import (PAD, QuantifierPrefix, as_word, is_synchronous,
                            pad_to_sync, render_word, strip_hash, tracks_of)

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


def test_tracks_of_round_trip():
    tracks = {"x": as_word("a#"), "y": as_word("ab")}
    assert tracks_of(hword(tracks)) == tracks
    assert tracks_of(hword({"x": (), "y": ()})) == {"x": (), "y": ()}


@given(st.dictionaries(st.sampled_from("xyz"), plain_words, min_size=1))
def test_pad_to_sync_properties(assignment):
    h = pad_to_sync(assignment)
    assert is_synchronous(h)
    longest = max(len(w) for w in assignment.values())
    assert len(h.letters) == longest
    recovered = {v: strip_hash(w) for v, w in tracks_of(h).items()}
    assert recovered == assignment


def test_is_synchronous():
    assert is_synchronous(hword({"x": "ab#", "y": "abb"}))
    assert not is_synchronous(hword({"x": "a#b"}))
    assert is_synchronous(hword({"x1": "a##", "x2": "baa"}))


def test_pad_to_sync_examples():
    h = pad_to_sync({"x": as_word("aa"), "y": as_word("abb")})
    assert tracks_of(h) == {"x": as_word("aa#"), "y": as_word("abb")}
    assert tracks_of(pad_to_sync({"x": as_word("a")})) == {"x": as_word("a")}
    assert pad_to_sync({"x": (), "y": ()}).letters == ()


def test_track_letter_rendering():
    t = letter(("x1", "x2"), "a", "#")
    assert t.render() == "[x1=a,x2=#]"
    assert t.pad_vars() == frozenset({"x2"})
    assert not t.is_all_pad()
    assert letter(("x",), "#").is_all_pad()


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
