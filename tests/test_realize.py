"""Singleton-hyperlanguage realizability constructions."""

import itertools
import random

import pytest

from hyperlang.core import QuantifierPrefix, as_word, pad_to_sync
from hyperlang.errors import CapExceeded, NotPrefixClosed
from hyperlang.nfa import (Dfa, Nfa, nfa_language, nfa_member, trim, with_var,
                           word_automaton)
from hyperlang.nfh import Nfh, nfh_accepts, nfh_hyperlanguage_probe
from hyperlang.realize import (OrderedLanguageSpec, PartialOrderSpec,
                               _least_word, _successor_counts,
                               _successor_product, prefix_closed_relation,
                               realize_finite, realize_ordered,
                               realize_partially_ordered,
                               realize_prefix_closed_fast, realize_regular,
                               realize_shortlex, regular_relation,
                               relation_pairs, shortlex_successor,
                               successors_exact, successors_ge)

from conftest import letter, random_prefix_closed_dfa, words


def probe_strings(n, max_len):
    return {frozenset("".join(w) for w in language)
            for language in nfh_hyperlanguage_probe(n, max_len)}


def pair_strings(relation, max_len):
    return {("".join(u), "".join(v)) for u, v in relation_pairs(relation, max_len)}


# --- finite languages -----------------------------------------------------------

@pytest.mark.parametrize("language,max_len", [
    ({"ab", "ba"}, 2),
    ({"a"}, 1),
    ({"", "a"}, 1),
    ({"a", "b", "ab"}, 2),
])
def test_realize_finite_probe_exact(language, max_len):
    n = realize_finite(language)
    assert n.prefix.render() == "A x E y"
    assert probe_strings(n, max_len) == {frozenset(language)}


def test_realize_finite_eps_language():
    n = realize_finite({"", "a"})
    assert nfh_accepts(n, words("eps", "a"))
    assert not nfh_accepts(n, words("eps"))
    assert not nfh_accepts(n, words("a"))


# --- ordered languages ----------------------------------------------------------

def test_ordered_underlying_triple(successor_even_blocks):
    n = realize_ordered(OrderedLanguageSpec((), successor_even_blocks))
    assert n.prefix.render() == "E x1 A x2 E x3"
    good = pad_to_sync({"x1": (), "x2": as_word("aa"), "x3": as_word("bb")})
    assert nfa_member(n.underlying, good)
    bad = pad_to_sync({"x1": (), "x2": as_word("aa"), "x3": as_word("ab")})
    assert not nfa_member(n.underlying, bad)


def test_ordered_infinite_language_has_no_finite_member(successor_even_blocks):
    n = realize_ordered(OrderedLanguageSpec((), successor_even_blocks))
    assert probe_strings(n, 2) == set()
    assert not nfh_accepts(n, words("eps", "aa", "bb"))


def test_ordered_finite_cycle():
    v = ("x", "y")
    succ = Nfa({"a", "b", "#"}, {"0", "1"}, {"0"}, {"1"},
               {("0", letter(v, "a", "b"), "1"),
                ("0", letter(v, "b", "a"), "1")}, v)
    n = realize_ordered(OrderedLanguageSpec(("a",), succ))
    assert probe_strings(n, 1) == {frozenset({"a", "b"})}


# --- successor counting ---------------------------------------------------------

def _finite_relation(pairs, symbols):
    """A 2-track NFA accepting exactly the given (u, v) word pairs."""
    from hyperlang.nfa import absorb_pad, compose_free, union_all
    parts = []
    for u, v in pairs:
        parts.append(compose_free(
            with_var(word_automaton(as_word(u), symbols=set(symbols)), "x"),
            with_var(word_automaton(as_word(v), symbols=set(symbols)), "y")))
    return union_all(parts)


def at_least(relation, i):
    """The words with at least i distinct successors."""
    return successors_ge(_successor_product(relation, i))


def exactly(relation, i):
    """The words with exactly i distinct successors."""
    return successors_exact(at_least(relation, i), at_least(relation, i + 1), i)


def test_successors_ge():
    rel = _finite_relation([("a", "b"), ("a", "c")], "abc")
    two = at_least(rel, 2)
    assert {"".join(w) for w in nfa_language(two, 2)} == {"a"}
    three = at_least(rel, 3)
    assert {"".join(w) for w in nfa_language(three, 2)} == set()


def test_successors_ge_one_is_domain():
    rel = _finite_relation([("a", "b"), ("ab", "b"), ("b", "b")], "ab")
    one = at_least(rel, 1)
    assert {"".join(w) for w in nfa_language(one, 3)} == {"a", "ab", "b"}


def test_successors_exact():
    rel = _finite_relation([("a", "b"), ("a", "c")], "abc")
    assert {"".join(w) for w in nfa_language(exactly(rel, 2), 2)} == {"a"}
    assert {"".join(w) for w in nfa_language(exactly(rel, 1), 2)} == set()


def test_successors_exact_partitions_domain():
    d = Dfa({"a", "b"}, {"0", "1", "2"}, "0", {"0", "1", "2"},
            {("0", "a", "1"), ("0", "b", "2"), ("1", "b", "2")})
    spec = prefix_closed_relation(d)
    domain = {"".join(u) for u, _ in relation_pairs(spec.relation, 3)}
    buckets = []
    for i in range(1, spec.max_successors + 1):
        buckets.append({"".join(w)
                        for w in nfa_language(exactly(spec.relation, i), 3)})
    assert set().union(*buckets) == domain
    for i, b1 in enumerate(buckets):
        for b2 in buckets[i + 1:]:
            assert not (b1 & b2)


def _random_dfa(rng, cyclic):
    """A DFA over {a, b} with 2-3 states and a non-empty language; acyclic
    ones only move to higher-numbered states."""
    while True:
        n = rng.randint(2, 3)
        states = [str(i) for i in range(n)]
        delta = {(q, s, str(rng.randrange(n) if cyclic else rng.randint(i + 1, n - 1)))
                 for i, q in enumerate(states) for s in "ab"
                 if (cyclic or i + 1 < n) and rng.random() < 0.6}
        accepting = {q for q in states if rng.random() < 0.5}
        d = Dfa({"a", "b"}, states, "0", accepting, delta)
        if trim(d).accepting:
            return d


def test_successor_counting_matches_enumeration():
    """For each count i up to k, the words of length <= 3 with exactly i
    distinct successors, counted from the enumerated pairs, are the words of
    ``_successor_counts``."""
    rng = random.Random(17)
    dfas = [random_prefix_closed_dfa(rng) for _ in range(6)]
    cases = [(prefix_closed_relation(d), len(d.states)) for d in dfas]
    for cyclic in (True, False) * 5:
        d = _random_dfa(rng, cyclic)
        spec = regular_relation(d)
        if spec.max_successors <= 3:  # k+1 relation copies: keep it small
            cases.append((spec, len(d.states)))
    assert sum(spec.max_successors > 1 for spec, _ in cases) >= 5
    for spec, n in cases:
        successors: dict = {}
        for u, v in relation_pairs(spec.relation, 3 + n):
            successors.setdefault(u, set()).add(v)
        counts = _successor_counts(spec.relation, spec.max_successors, 64)
        for i, (_, exact) in enumerate(counts, 1):
            expected = {u for u, vs in successors.items()
                        if len(u) <= 3 and len(vs) == i}
            assert nfa_language(exact, 3) == expected, (spec, i)


# --- prefix-closed languages ----------------------------------------------------

def _dfa_eps_a_ab():
    return Dfa({"a", "b"}, {"0", "1", "2"}, "0", {"0", "1", "2"},
               {("0", "a", "1"), ("1", "b", "2")})


def test_prefix_closed_relation_pairs():
    spec = prefix_closed_relation(_dfa_eps_a_ab())
    assert spec.minimal_words == ((),)
    assert spec.max_successors == 1
    assert pair_strings(spec.relation, 3) == {("", "a"), ("a", "ab"), ("ab", "ab")}


def test_prefix_closed_relation_astar():
    d = Dfa({"a"}, {"0"}, "0", {"0"}, {("0", "a", "0")})
    spec = prefix_closed_relation(d)
    assert spec.max_successors == 1
    assert pair_strings(spec.relation, 4) == {
        ("", "a"), ("a", "aa"), ("aa", "aaa"), ("aaa", "aaaa")}


def test_prefix_closed_relation_branching():
    d = Dfa({"a", "b"}, {"0", "1", "2"}, "0", {"0", "1", "2"},
            {("0", "a", "1"), ("0", "b", "2")})
    spec = prefix_closed_relation(d)
    assert spec.max_successors == 2
    successors_of_eps = {v for u, v in pair_strings(spec.relation, 2) if u == ""}
    assert successors_of_eps == {"a", "b"}


def test_prefix_closed_rejects_non_prefix_closed():
    d = Dfa({"a", "b"}, {"0", "1", "2"}, "0", {"2"},
            {("0", "a", "1"), ("1", "b", "2")})
    with pytest.raises(NotPrefixClosed):
        prefix_closed_relation(d)
    with pytest.raises(NotPrefixClosed):
        realize_prefix_closed_fast(d)


def test_realize_partially_ordered_prefix_closed():
    n = realize_partially_ordered(prefix_closed_relation(_dfa_eps_a_ab()))
    assert probe_strings(n, 3) == {frozenset({"", "a", "ab"})}


def test_realize_partially_ordered_reflexive_fixpoint():
    rel = _finite_relation([("a", "a")], "a")
    spec = PartialOrderSpec((("a",),), rel, 1)
    n = realize_partially_ordered(spec)
    assert probe_strings(n, 1) == {frozenset({"a"})}


def test_realize_prefix_closed_fast():
    n = realize_prefix_closed_fast(_dfa_eps_a_ab())
    assert probe_strings(n, 3) == {frozenset({"", "a", "ab"})}


def test_fast_route_size_linear():
    for states in range(2, 5):
        d = Dfa({"a"}, [f"s{i}" for i in range(states)], "s0",
                {f"s{i}" for i in range(states)},
                {(f"s{i}", "a", f"s{i+1}") for i in range(states - 1)})
        n = realize_prefix_closed_fast(d)
        assert len(n.underlying.states) <= 8 * states


def test_routes_agree_on_random_prefix_closed_dfas():
    rng = random.Random(5)
    for _ in range(5):
        d = random_prefix_closed_dfa(rng)
        fast = nfh_hyperlanguage_probe(realize_prefix_closed_fast(d), 3)
        slow = nfh_hyperlanguage_probe(
            realize_partially_ordered(prefix_closed_relation(d)), 3)
        assert fast == slow


# --- regular languages ----------------------------------------------------------

def _dfa_a_plus():
    return Dfa({"a"}, {"0", "1"}, "0", {"1"}, {("0", "a", "1"), ("1", "a", "1")})


def test_regular_relation_a_plus():
    spec = regular_relation(_dfa_a_plus())
    assert {"".join(w) for w in spec.minimal_words} == {"a"}
    pairs = pair_strings(spec.relation, 4)
    pumping = {("a", "aa"), ("aa", "aaa"), ("aaa", "aaaa")}
    reflexive = {(w, w) for w in ("a", "aa", "aaa", "aaaa")}
    assert pairs == pumping | reflexive


def test_regular_relation_acyclic():
    d = Dfa({"a", "b"}, {"0", "1", "2"}, "0", {"2"},
            {("0", "a", "1"), ("1", "b", "2")})
    spec = regular_relation(d)
    assert {"".join(w) for w in spec.minimal_words} == {"ab"}
    assert pair_strings(spec.relation, 3) == {("ab", "ab")}


def test_regular_relation_chain_covers_language():
    spec = regular_relation(_dfa_a_plus())
    pairs = relation_pairs(spec.relation, 4)
    reached = set(spec.minimal_words)
    changed = True
    while changed:
        changed = False
        for u, v in pairs:
            if u in reached and v not in reached:
                reached.add(v)
                changed = True
    language = {("a",) * i for i in range(1, 5)}
    assert language <= reached


def test_realize_regular_finite_language():
    d = Dfa({"a", "b"}, {"0", "1", "2"}, "0", {"2"},
            {("0", "a", "1"), ("1", "b", "2")})
    n = realize_regular(d)
    assert probe_strings(n, 2) == {frozenset({"ab"})}


def test_realize_regular_infinite_language():
    n = realize_regular(_dfa_a_plus())
    assert probe_strings(n, 3) == set()
    assert not nfh_accepts(n, words("a", "aa", "aaa"))


def test_realize_regular_underlying_successor_step():
    n = realize_regular(_dfa_a_plus())
    x1, z, y1, y2 = n.prefix.variables
    # "a" has exactly two successors: itself (reflexive) and the pumped "aa"
    orders = [
        pad_to_sync({x1: as_word("a"), z: as_word("a"),
                     y1: as_word("aa"), y2: as_word("a")}),
        pad_to_sync({x1: as_word("a"), z: as_word("a"),
                     y1: as_word("a"), y2: as_word("aa")}),
    ]
    assert any(nfa_member(n.underlying, h) for h in orders)


# --- the shortlex successor -------------------------------------------------------

# 0-a->1, 1-b->2, 2-a->1, 0-b->0 accepting {1, 2}: the pumping route exceeds
# the default det_cap on it
ROADMAP_DFA = Dfa({"a", "b"}, {"0", "1", "2"}, "0", {"1", "2"},
                  {("0", "a", "1"), ("1", "b", "2"), ("2", "a", "1"),
                   ("0", "b", "0")})


def shortlex_words(d, max_len):
    """The words of L(d) up to max_len, in shortlex order."""
    return [w for n in range(max_len + 1)
            for w in itertools.product(sorted(d.symbols), repeat=n)
            if nfa_member(d, w)]


def test_shortlex_successor_matches_enumeration():
    """On generated infinite languages, the relation is the shortlex-next
    pairs of L up to length 5, a function, and chains the least word
    through all of L up to length 5."""
    rng = random.Random(23)
    dfas = [ROADMAP_DFA]
    while len(dfas) < 31:
        d = _random_dfa(rng, cyclic=True)
        # a word as long as the DFA has states can be pumped: L is infinite
        if any(len(w) >= len(d.states) for w in shortlex_words(d, 3)):
            dfas.append(d)
    for d in dfas:
        language = shortlex_words(d, 5)
        relation = shortlex_successor(d)
        pairs = relation_pairs(relation, 5)
        assert pairs == set(zip(language, language[1:])), d.transitions
        least = _least_word(d)
        reached = {least}
        for u, v in sorted(pairs, key=lambda p: (len(p[0]), p[0])):
            if u in reached:
                reached.add(v)
        assert reached == set(language)


def test_realize_shortlex_routes():
    """An infinite L gets the ∃∀∃ chain from its least word; a finite L
    keeps the pumping construction."""
    n = realize_shortlex(ROADMAP_DFA)
    assert n.prefix.render() == "E x1 A x2 E x3"
    x1, x2, x3 = n.prefix.variables
    step = pad_to_sync({x1: as_word("a"), x2: as_word("aba"), x3: as_word("bab")})
    assert nfa_member(n.underlying, step)
    skip = pad_to_sync({x1: as_word("a"), x2: as_word("ab"), x3: as_word("bab")})
    assert not nfa_member(n.underlying, skip)
    d = Dfa({"a", "b"}, {"0", "1", "2"}, "0", {"2"},
            {("0", "a", "1"), ("1", "b", "2")})
    assert realize_shortlex(d).underlying.transitions == \
        realize_regular(d).underlying.transitions


def test_caps_name_their_stage():
    with pytest.raises(CapExceeded, match=r"^successor count 2: determinization "
                                          r"input has 66 states \(cap 64\)$"):
        realize_regular(ROADMAP_DFA)
    with pytest.raises(CapExceeded, match=r"^shortlex between relation: "
                                          r"determinization input has \d+ states"):
        shortlex_successor(ROADMAP_DFA, det_cap=4)


# --- order containment ----------------------------------------------------------

def length_lex_le(u, v):
    return (len(u), u) <= (len(v), v)


def test_relations_respect_length_lex_order():
    for spec in (prefix_closed_relation(_dfa_eps_a_ab()),
                 regular_relation(_dfa_a_plus())):
        for u, v in relation_pairs(spec.relation, 4):
            assert length_lex_le(u, v), (u, v)


# --- negative results -----------------------------------------------------------

def test_single_block_prefixes_never_pin_a_two_word_language():
    rng = random.Random(9)
    v = ("x1", "x2")
    pool = [letter(v, a, b) for a in "ab#" for b in "ab#" if (a, b) != ("#", "#")]
    for prefix in ("E x1 E x2", "A x1 A x2"):
        for _ in range(10):
            states = [f"q{i}" for i in range(rng.randint(2, 3))]
            delta = {(rng.choice(states), rng.choice(pool), rng.choice(states))
                     for _ in range(rng.randint(2, 6))}
            accepting = {q for q in states if rng.random() < 0.5}
            underlying = Nfa({"a", "b", "#"}, states, {states[0]}, accepting,
                             delta, v)
            n = Nfh(frozenset({"a", "b"}), QuantifierPrefix.parse(prefix),
                    underlying)
            accepted = nfh_hyperlanguage_probe(n, 1)
            if len(accepted) == 1:
                (only,) = accepted
                assert len(only) < 2
