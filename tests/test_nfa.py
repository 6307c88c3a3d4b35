"""Automata plumbing: membership, compositions, padding closures, boolean ops."""

import itertools
import random

import pytest

from hyperlang.core import PAD, as_word, pad_to_sync, strip_hash
from hyperlang.errors import UnknownLetter, VarClash
from hyperlang.nfa import (Nfa, compose_free, compose_sync, determinize,
                           difference, nfa_language, nfa_member, pad_anywhere,
                           pad_suffix, project, relabel, track_product, trim,
                           union, with_var, word_automaton)

from conftest import hword


def base_words(a, max_len):
    return {"".join(w) for w in nfa_language(a, max_len)}


def test_nfa_member_word_automata():
    a = word_automaton(as_word("ab"))
    assert nfa_member(a, as_word("ab"))
    assert not nfa_member(a, as_word("a"))
    with pytest.raises(UnknownLetter):
        nfa_member(a, as_word("c"))


def test_nfa_member_track(fig1_nfh):
    h = pad_to_sync({"x": as_word("a"), "y": as_word("aa")})
    assert nfa_member(fig1_nfh.underlying, h)
    same = pad_to_sync({"x": as_word("a"), "y": as_word("a")})
    assert not nfa_member(fig1_nfh.underlying, same)


def test_word_automaton_shape():
    a = word_automaton(as_word("ab"))
    assert len(a.states) == 3
    assert base_words(a, 3) == {"ab"}
    e = word_automaton(())
    assert len(e.states) == 1
    assert base_words(e, 2) == {""}


def test_pad_suffix():
    a = pad_suffix(word_automaton(as_word("a")))
    for w in ("a", "a#", "a##"):
        assert nfa_member(a, as_word(w))
    assert not nfa_member(a, as_word("#a"))


def test_pad_suffix_on_tracks():
    """On a two-track automaton the closure accepts exactly its words
    followed by any number of all-pad letters."""
    pair = track_product([with_var(union(word_automaton(as_word("a")),
                                         word_automaton(as_word("ab"))), "x"),
                          with_var(union(word_automaton(as_word("b")),
                                         word_automaton(as_word("ab"))), "y")])
    words = nfa_language(pair, 5)
    assert words == {
        (("a", "b"),), (("a", "a"), ("b", "b"))}
    all_pad = (PAD, PAD)
    assert nfa_language(pad_suffix(pair), 5) == {
        w + (all_pad,) * n for w in words for n in range(6 - len(w))}


def test_pad_anywhere():
    a = pad_anywhere(word_automaton(as_word("ab")))
    for w in ("ab", "a#b", "#ab#", "##a##b##"):
        assert nfa_member(a, as_word(w))
    assert not nfa_member(a, as_word("ba"))
    got = base_words(a, 4)
    universe = {"".join(p) for n in range(5)
                for p in itertools.product("ab#", repeat=n)}
    want = {w for w in universe if "".join(strip_hash(as_word(w))) == "ab"}
    assert got == want


def test_compose_free_basic():
    a = compose_free(with_var(word_automaton(as_word("a")), "x"),
                     with_var(word_automaton(as_word("ab")), "y"))
    assert nfa_member(a, hword({"x": "a#", "y": "ab"}))
    assert not nfa_member(a, hword({"x": "b#", "y": "ab"}))


def test_compose_free_var_clash():
    x1 = with_var(word_automaton(as_word("a")), "x")
    x2 = with_var(word_automaton(as_word("b")), "x")
    with pytest.raises(VarClash):
        compose_free(x1, x2)
    renamed = relabel(x2, ("y",), lambda letter: letter)
    assert trim(compose_free(x1, renamed)).accepting


def test_compose_free_characterization():
    a1 = union(word_automaton(as_word("a")), word_automaton(as_word("bb")))
    a2 = word_automaton(as_word("ab"))
    l1 = {"a", "bb"}
    l2 = {"ab"}
    composed = compose_free(with_var(a1, "x"), with_var(a2, "y"))
    universe = {"".join(p) for n in range(4)
                for p in itertools.product("ab", repeat=n)}
    for w1, w2 in itertools.product(universe, repeat=2):
        if not w1 and not w2:
            continue
        h = pad_to_sync({"x": as_word(w1), "y": as_word(w2)})
        assert nfa_member(composed, h) == (w1 in l1 and w2 in l2), (w1, w2)


def test_compose_sync():
    ab = word_automaton(as_word("ab"))
    both = compose_sync(ab, ab, track_vars=("x", "y"))
    assert nfa_member(both, hword({"x": "ab", "y": "ab"}))
    assert not trim(compose_sync(word_automaton(as_word("a")),
                                 word_automaton(as_word("b")),
                                 track_vars=("x", "y"))).accepting


def test_sync_subset_of_free():
    a1 = union(word_automaton(as_word("a")), word_automaton(as_word("ab")))
    sync = compose_sync(a1, a1, track_vars=("x", "y"))
    free = compose_free(with_var(a1, "x"), with_var(a1, "y"))
    accepted = list(nfa_language(sync, 3))
    assert accepted
    for letters in accepted:
        assert nfa_member(free, letters)


def test_union():
    a = union(word_automaton(as_word("a")), word_automaton(as_word("b")))
    assert base_words(a, 2) == {"a", "b"}


# every word over {a, b}: the complement of L is its difference from this
SIGMA_STAR = Nfa({"a", "b"}, {"q"}, {"q"}, {"q"}, {("q", "a", "q"), ("q", "b", "q")})


def test_determinize_complement():
    a = word_automaton(as_word("a"), symbols={"a", "b"})
    c = difference(SIGMA_STAR, determinize(a))
    assert not nfa_member(c, as_word("a"))
    assert nfa_member(c, as_word("b"))
    assert nfa_member(c, as_word("aa"))
    assert nfa_member(c, ())


def test_project():
    composed = compose_free(with_var(word_automaton(as_word("a")), "x"),
                            with_var(word_automaton(as_word("b")), "y"))
    onto_x = project(composed, "y")
    accepted = {"".join(t[0] for t in h)
                for h in nfa_language(onto_x, 2)}
    assert accepted == {"a", "a#"}


def _random_nfa(rng, symbols="ab", max_states=4):
    states = [f"q{i}" for i in range(rng.randint(1, max_states))]
    delta = {(rng.choice(states), s, rng.choice(states))
             for s in symbols for _ in range(rng.randint(0, 3))}
    accepting = {q for q in states if rng.random() < 0.5}
    return Nfa(set(symbols), states, {states[0]}, accepting, delta)


def _padded_pairs(words1, words2, max_len):
    """Each pair of words, padded with ``#`` to every common length up to
    ``max_len``, as a tuple of per-position symbol pairs."""
    return {tuple(zip(w1 + (PAD,) * (n - len(w1)), w2 + (PAD,) * (n - len(w2))))
            for w1 in words1 for w2 in words2
            for n in range(max(len(w1), len(w2)), max_len + 1)}


def test_determinize_preserves_language():
    """Differential check of the constructions built on ``explore``, on
    random NFAs and words up to length 4: determinize keeps the language,
    compose_sync accepts the common words, difference the words of the first
    only, and the product of pad-closed one-track copies accepts exactly the
    padded pairs.  Each of them is already trim."""
    rng = random.Random(11)
    other = random.Random(13)
    for _ in range(20):
        a, b = _random_nfa(rng), _random_nfa(other)
        words_a, words_b = nfa_language(a, 4), nfa_language(b, 4)
        det = determinize(a)
        assert base_words(a, 4) == base_words(det, 4)
        diff = difference(a, b)
        assert nfa_language(diff, 4) == words_a - words_b
        sync = compose_sync(a, b, track_vars=("x", "y"))
        assert (nfa_language(sync, 4)
                == {tuple((s, s) for s in w) for w in words_a & words_b})
        product = track_product([pad_suffix(with_var(a, "x")),
                                 pad_suffix(with_var(b, "y"))])
        assert nfa_language(product, 4) == _padded_pairs(words_a, words_b, 4)
        # a DFA keeps its start subset, alone when the language is empty
        start = frozenset(a.initial)
        assert _parts(det) == (_parts(trim(det)) if det.accepting else
                               ({start}, {start}, set(), set()))
        for built in (diff, sync, product):
            assert _parts(built) == _parts(trim(built))


def _parts(a):
    return a.states, a.initial, a.accepting, a.transitions


def test_complement_is_exact_complement():
    rng = random.Random(12)
    universe = {"".join(p) for n in range(4)
                for p in itertools.product("ab", repeat=n)}
    for _ in range(10):
        a = _random_nfa(rng)
        c = difference(SIGMA_STAR, a)
        assert base_words(c, 3) == universe - base_words(a, 3)
