"""NFH acceptance semantics and the bounded hyperlanguage probe."""

import itertools
import random

import pytest

import hyperlang.core as core_module
import hyperlang.nfh as nfh_module
from hyperlang.core import (QuantifierPrefix, as_word, is_synchronous,
                            pad_to_sync, strip_hash)
from hyperlang.errors import EmptyLanguage, UniverseTooLarge
from hyperlang.nfa import Nfa, nfa_language, nfa_member, with_var, word_automaton
from hyperlang.nfh import Nfh, nfh_accepts, nfh_hyperlanguage_probe
from hyperlang.realize import realize_finite

from conftest import language_strings, letter, words


def test_fig1_rejects_finite(fig1_nfh):
    assert not nfh_accepts(fig1_nfh, words("a", "aa"))
    assert not nfh_accepts(fig1_nfh, words("eps", "a", "aa", "aaa"))


def test_exists_witness():
    underlying = with_var(word_automaton(as_word("a"), symbols={"a", "b"}), "x")
    n = Nfh(frozenset({"a", "b"}), QuantifierPrefix.parse("E x"), underlying)
    assert nfh_accepts(n, words("a", "b"))
    assert not nfh_accepts(n, words("b"))


def test_realize_finite_roundtrip():
    n = realize_finite({"ab", "ba"})
    assert nfh_accepts(n, words("ab", "ba"))
    assert not nfh_accepts(n, words("ab"))


def test_pad_is_no_nfh_symbol():
    """An alphabet holding the pad marker is refused: a word holding it would
    be read as its own stripped word, and the probe would never list it."""
    m = realize_finite(["a"], {"a"})
    with pytest.raises(ValueError, match="pad marker"):
        Nfh(frozenset({"a", "#"}), m.prefix, m.underlying)


def test_empty_language_rejected(fig1_nfh):
    with pytest.raises(EmptyLanguage):
        nfh_accepts(fig1_nfh, [])


def test_probe_realize_finite():
    got = nfh_hyperlanguage_probe(realize_finite({"ab", "ba"}), 2)
    assert {frozenset(language_strings(l)) for l in got} == {
        frozenset({"ab", "ba"})}


def test_probe_forall_singleton():
    v = ("x",)
    underlying = Nfa({"a", "#"}, {"q0", "q1"}, {"q0"}, {"q1"},
                     {("q0", letter(v, "a"), "q1")}, v)
    n = Nfh(frozenset({"a"}), QuantifierPrefix.parse("A x"), underlying)
    got = nfh_hyperlanguage_probe(n, 1)
    assert {frozenset(language_strings(l)) for l in got} == {frozenset({"a"})}


def test_probe_without_variables():
    """With no variables the quantifier tree is one leaf, the empty
    assignment: the probe accepts every language or none."""
    for accepting in (set(), {"q"}):
        underlying = Nfa({"a", "#"}, {"q"}, {"q"}, accepting, set(), ())
        n = Nfh(frozenset({"a"}), QuantifierPrefix(()), underlying)
        expected = {frozenset(l) for l in (words("eps"), words("a"), words("eps", "a"))
                    if nfh_accepts(n, l)}
        assert nfh_hyperlanguage_probe(n, 1) == expected
        assert len(expected) == 3 * len(accepting)


def test_probe_fig1_empty(fig1_nfh):
    assert nfh_hyperlanguage_probe(fig1_nfh, 3) == frozenset()


def test_probe_universe_guard(fig1_nfh):
    with pytest.raises(UniverseTooLarge):
        nfh_hyperlanguage_probe(fig1_nfh, 25)
    with pytest.raises(ValueError):
        nfh_hyperlanguage_probe(fig1_nfh, -1)


def test_probe_universe_cap_is_a_constant(monkeypatch):
    """{a,b}^{≤4} has 31 words: refused at the cap of 20, answered at 31."""
    n = realize_finite({"ab", "ba"})
    with pytest.raises(UniverseTooLarge, match=r"^probe universe has 31 words; cap is 20$"):
        nfh_hyperlanguage_probe(n, 4)
    monkeypatch.setattr(core_module, "UNIVERSE_CAP", 31)
    assert nfh_hyperlanguage_probe(n, 4) == {frozenset(words("ab", "ba"))}


def _random_forall_nfh(rng):
    v = ("x1", "x2")
    pool = [letter(v, a, b) for a in "ab#" for b in "ab#" if (a, b) != ("#", "#")]
    states = [f"q{i}" for i in range(rng.randint(2, 3))]
    delta = {(rng.choice(states), rng.choice(pool), rng.choice(states))
             for _ in range(rng.randint(2, 6))}
    accepting = {q for q in states if rng.random() < 0.5}
    underlying = Nfa({"a", "b", "#"}, states, {states[0]}, accepting, delta, v)
    return Nfh(frozenset({"a", "b"}), QuantifierPrefix.parse("A x1 A x2"),
               underlying)


def test_forall_subset_closure():
    rng = random.Random(21)
    for _ in range(15):
        n = _random_forall_nfh(rng)
        accepted = nfh_hyperlanguage_probe(n, 2)
        for language in accepted:
            for size in range(1, len(language)):
                for subset in itertools.combinations(sorted(language), size):
                    assert frozenset(subset) in accepted, language


def test_exists_superset_monotone():
    underlying = with_var(word_automaton(as_word("a"), symbols={"a", "b"}), "x")
    n = Nfh(frozenset({"a", "b"}), QuantifierPrefix.parse("E x"), underlying)
    accepted = nfh_hyperlanguage_probe(n, 1)
    universe = [(), ("a",), ("b",)]
    for language in accepted:
        for extra in universe:
            bigger = frozenset(language) | {extra}
            assert frozenset(bigger) in accepted


def test_probe_equals_membership_over_universe():
    """The probe's trie walk agrees with nfh_accepts on every non-empty subset
    of the 7-word universe over {a, b} up to length 2."""
    universe = [w for n in range(3) for w in itertools.product("ab", repeat=n)]
    subsets = [frozenset(c) for k in range(1, len(universe) + 1)
               for c in itertools.combinations(universe, k)]
    rng = random.Random(11)
    for _ in range(4):
        language = rng.sample(universe, rng.randint(1, 3))
        n = realize_finite(language, alphabet={"a", "b"})
        expected = {s for s in subsets if nfh_accepts(n, s)}
        assert nfh_hyperlanguage_probe(n, 2) == expected


def _random_nfh(rng, quantifiers):
    """A random NFH over {a, b} with one variable per quantifier."""
    v = tuple(f"x{i + 1}" for i in range(len(quantifiers)))
    pool = [letter(v, *t) for t in itertools.product("ab#", repeat=len(v))
            if set(t) != {"#"}]
    states = [f"q{i}" for i in range(rng.randint(1, 3))]
    delta = {(rng.choice(states), rng.choice(pool), rng.choice(states))
             for _ in range(rng.randint(2, 3 * len(pool)))}
    accepting = {q for q in states if rng.random() < 0.5}
    underlying = Nfa({"a", "b", "#"}, states, {states[0]}, accepting, delta, v)
    return Nfh(frozenset({"a", "b"}), QuantifierPrefix(tuple(zip(quantifiers, v))),
               underlying)


def test_pruned_probe_equals_membership(monkeypatch):
    """The probe walks only the viable words, yet agrees with nfh_accepts on
    every non-empty subset of the 7-word universe, for every prefix of one to
    three quantifiers."""
    universe = [w for n in range(3) for w in itertools.product("ab", repeat=n)]
    subsets = [frozenset(c) for k in range(1, len(universe) + 1)
               for c in itertools.combinations(universe, k)]
    walked = []

    def spy(words, original=nfh_module.nonempty_subsets):
        walked.append(len(words))
        return original(words)

    monkeypatch.setattr(nfh_module, "nonempty_subsets", spy)
    rng = random.Random(5)
    pruned_and_accepting = 0
    for k in (1, 2, 3):
        for quantifiers in itertools.product("EA", repeat=k):
            for _ in range(2):
                n = _random_nfh(rng, quantifiers)
                expected = {s for s in subsets if nfh_accepts(n, s)}
                assert nfh_hyperlanguage_probe(n, 2) == expected, quantifiers
                if "A" not in quantifiers:
                    assert walked[-1] == len(universe)
                elif expected and walked[-1] < len(universe):
                    pruned_and_accepting += 1
    assert pruned_and_accepting > 0


def _filtered_assignments(underlying, max_len):
    """The enumerate-then-filter reading: every accepted letter sequence, kept
    when each track pads only at its end and its last letter is not all pad."""
    return {tuple(strip_hash(tuple(l[j] for l in letters))
                  for j in range(len(underlying.vars)))
            for letters in nfa_language(underlying, max_len)
            if is_synchronous(letters) and not (letters and set(letters[-1]) == {"#"})}


def test_well_padded_walk_and_leaf_match_the_references(monkeypatch):
    """On random 1-3-track NFAs whose letters include the all-pad one and pads
    that a later letter of the same track could follow: the well-padded walk
    equals the enumerate-then-filter reference at max_len 0-3, and the
    nfh_accepts leaf equals nfa_member on the pad_to_sync letters on every
    assignment of words of length at most 2."""
    leaves = []

    def spy(quantifiers, words, leaf, original=nfh_module.evaluate):
        leaves.append(leaf)
        return original(quantifiers, words, leaf)

    monkeypatch.setattr(nfh_module, "evaluate", spy)
    short = [w for n in range(3) for w in itertools.product("ab", repeat=n)]
    rng = random.Random(27)
    filtered_out = 0
    for k in (1, 2, 3):
        v = tuple(f"x{i + 1}" for i in range(k))
        pool = [letter(v, *t) for t in itertools.product("ab#", repeat=k)]
        for _ in range(12):
            states = [f"q{i}" for i in range(rng.randint(1, 3))]
            delta = {(rng.choice(states), rng.choice(pool), rng.choice(states))
                     for _ in range(rng.randint(2, len(pool) + 4))}
            accepting = {q for q in states if rng.random() < 0.6}
            underlying = Nfa({"a", "b", "#"}, states, {states[0]}, accepting, delta, v)
            for max_len in range(4):
                expected = _filtered_assignments(underlying, max_len)
                assert nfh_module.accepted_assignments(underlying, max_len) == expected
            filtered_out += len(nfa_language(underlying, 3)) > len(expected)
            n = Nfh(frozenset({"a", "b"}), QuantifierPrefix(tuple(("E", x) for x in v)),
                    underlying)
            nfh_accepts(n, [()])
            leaf = leaves[-1]
            for assignment in itertools.product(short, repeat=k):
                padded = pad_to_sync(dict(zip(v, assignment)), v)
                assert leaf(assignment) == nfa_member(underlying, padded), assignment
    assert filtered_out > 0


def test_membership_leaf_decides_each_assignment_once(monkeypatch):
    """One ``core.evaluate`` walk reaches each full assignment once, so the
    ``nfh_accepts`` leaf needs no memo: under ∃∀∃ (the triples of the trie
    walk test below) and ∀∀ (every pair) over three words, no assignment is
    decided twice."""
    decided = []

    def counting(quantifiers, words, leaf, original=nfh_module.evaluate):
        def counted(assignment):
            decided.append(assignment)
            return leaf(assignment)
        return original(quantifiers, words, counted)

    monkeypatch.setattr(nfh_module, "evaluate", counting)
    triples = ["aba", "aca", "bac", "bbc", "bcc", "caa", "cbb", "ccc"]
    v3, v2 = ("x", "y", "z"), ("x", "y")
    eae = Nfa({"a", "b", "c", "#"}, {"q0", "q1"}, {"q0"}, {"q1"},
              {("q0", letter(v3, *t), "q1") for t in triples}, v3)
    pairs = {("q0", letter(v2, s, t), "q0") for s in "abc#" for t in "abc#"
             if (s, t) != ("#", "#")}
    aa = Nfa({"a", "b", "c", "#"}, {"q0"}, {"q0"}, {"q0"}, pairs, v2)
    for prefix, underlying, leaves in (("E x A y E z", eae, 12), ("A x A y", aa, 9)):
        decided.clear()
        n = Nfh(frozenset("abc"), QuantifierPrefix.parse(prefix), underlying)
        assert nfh_accepts(n, words("a", "b", "c"))
        assert len(decided) == len(set(decided)) == leaves, prefix


def test_trie_walk_short_circuits(monkeypatch):
    """The probe's trie walk stops as ``core.evaluate`` does.  Under
    ∃x∀y∃z over {a, b, c}, accepting the triples below: x = a fails at
    y = a, x = b holds, so x = c is never walked.  Nine calls, one per
    trie node visited: 16 if ∃ did not stop, 13 if ∀ did not."""
    triples = ["aba", "aca", "bac", "bbc", "bcc", "caa", "cbb", "ccc"]
    v = ("x", "y", "z")
    underlying = Nfa({"a", "b", "c", "#"}, {"q0", "q1"}, {"q0"}, {"q1"},
                     {("q0", letter(v, *t), "q1") for t in triples}, v)
    n = Nfh(frozenset("abc"), QuantifierPrefix.parse("E x A y E z"), underlying)
    depths, roots = [], []

    def spy(quantifiers, node, depth, words, original=nfh_module._trie_walk):
        depths.append(depth)
        if depth == 0:
            roots.append(node)
        return original(quantifiers, node, depth, words)

    monkeypatch.setattr(nfh_module, "_trie_walk", spy)
    abc = tuple(as_word(w) for w in "abc")
    assert frozenset(abc) in nfh_hyperlanguage_probe(n, 1)
    depths.clear()
    assert spy(("E", "A", "E"), roots[0], 0, abc)
    assert depths == [0, 1, 1, 2, 3, 2, 3, 2, 3]
