"""Grammar engine: cleanup, CNF, emptiness, CYK, Bar-Hillel, enumeration."""

import random

import pytest

from hyperlang.cfg import (Cfg, bar_hillel, cfg_empty, cfg_intersect_empty,
                           cleanup, cyk_member, derive_bounded, is_cnf, to_cnf)
from hyperlang.core import HWord, as_word
from hyperlang.errors import NotCnf
from hyperlang.nfa import Nfa

from conftest import random_base_grammar


def string_language(g, n):
    return {"".join(w) for w in derive_bounded(g, n)}


def test_cleanup_removes_unreachable(anbn):
    noisy = Cfg(anbn.variables | {"X"}, anbn.start,
                anbn.rules | {("X", ("a",))})
    cleaned = cleanup(noisy)
    assert "X" not in cleaned.variables
    assert string_language(cleaned, 4) == string_language(anbn, 4)


def test_cleanup_eps_elimination():
    g = Cfg(frozenset({"S"}), "S",
            frozenset({("S", ("a", "S", "b")), ("S", ())}))
    cleaned = cleanup(g)
    inner_eps = {(h, b) for h, b in cleaned.rules if not b and h != cleaned.start}
    assert not inner_eps
    assert string_language(cleaned, 4) == {"", "ab", "aabb"}


def test_cleanup_idempotent(anbn):
    g = Cfg(frozenset({"S", "T"}), "S",
            frozenset({("S", ("a", "S", "b")), ("S", ()), ("S", ("T",)),
                       ("T", ("a",))}))
    once = cleanup(g)
    twice = cleanup(once)
    assert once.rules == twice.rules and once.start == twice.start


def test_to_cnf_language(anbn):
    cnf = to_cnf(anbn)
    assert is_cnf(cnf)
    assert string_language(cnf, 6) == {"ab", "aabb", "aaabbb"}


def test_to_cnf_keeps_cnf_language():
    g = Cfg(frozenset({"S", "A", "B"}), "S",
            frozenset({("S", ("A", "B")), ("A", ("a",)), ("B", ("b",))}))
    cnf = to_cnf(g)
    assert is_cnf(cnf)
    assert string_language(cnf, 3) == string_language(g, 3) == {"ab"}


def test_cnf_size_linear(anbn):
    cnf = to_cnf(anbn)
    total_rhs = sum(len(b) for _, b in anbn.rules)
    assert len(cnf.rules) <= 10 * total_rhs


def test_cfg_empty():
    assert cfg_empty(Cfg(frozenset({"S"}), "S", frozenset({("S", ("a", "S"))})))
    assert not cfg_empty(robot_underlying())


def robot_underlying():
    from conftest import robot_grammar
    return robot_grammar(("x",))


def test_cfg_empty_agrees_with_enumeration():
    rng = random.Random(3)
    for _ in range(20):
        g = random_base_grammar(rng)
        assert cfg_empty(g) == (not derive_bounded(g, 6))


def test_cyk_member(anbn):
    cnf = to_cnf(anbn)
    assert cyk_member(cnf, as_word("aabb"))
    assert not cyk_member(cnf, as_word("abab"))
    with pytest.raises(NotCnf):
        cyk_member(anbn, as_word("ab"))


def test_cyk_agrees_with_enumeration():
    rng = random.Random(4)
    import itertools
    universe = ["".join(p) for n in range(4)
                for p in itertools.product("ab", repeat=n)]
    for _ in range(20):
        g = cleanup(random_base_grammar(rng))
        if cfg_empty(g):
            continue
        cnf = to_cnf(g)
        derived = string_language(g, 3)
        for w in universe:
            assert cyk_member(cnf, as_word(w)) == (w in derived), (g.rules, w)


def test_bar_hillel_astar_bstar(anbn):
    a = Nfa({"a", "b"}, {"p", "q"}, {"p"}, {"p", "q"},
            {("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")})
    got = bar_hillel(to_cnf(anbn), a)
    assert string_language(got, 6) == {"ab", "aabb", "aaabbb"}


def test_bar_hillel_abstar(anbn):
    a = Nfa({"a", "b"}, {"p", "q"}, {"p"}, {"p"},
            {("p", "a", "q"), ("q", "b", "p")})
    got = bar_hillel(to_cnf(anbn), a)
    assert string_language(got, 6) == {"ab"}


def test_bar_hillel_empty_automaton(anbn):
    a = Nfa({"a", "b"}, {"p"}, {"p"}, set(), set())
    assert cfg_empty(bar_hillel(to_cnf(anbn), a))


def test_derive_bounded(anbn):
    assert string_language(anbn, 4) == {"ab", "aabb"}
    eps_only = Cfg(frozenset({"S"}), "S", frozenset({("S", ())}))
    assert derive_bounded(eps_only, 0) == {()}
    # a negative bound admits no word, not even ε by an empty body
    a_star = Cfg({"S"}, "S", [("S", ()), ("S", ("a", "S"))])
    assert derive_bounded(a_star, -1) == set()
    assert derive_bounded(eps_only, -1) == set()


def test_derive_bounded_cross_check(anbn):
    cnf = to_cnf(anbn)
    for w in derive_bounded(anbn, 6):
        assert cyk_member(cnf, w)


def test_track_letter_grammar(tile_grammar_cfhg):
    g = tile_grammar_cfhg.underlying
    shortest = min(derive_bounded(g, 3), key=len)
    assert [t.symbols for t in shortest] in (
        [("a", "a"), ("b", "a")],
        [("a", "b"), ("#", "a"), ("#", "a")],
        [("b", "b"), ("b", "b"), ("a", "#")],
    )
    cnf = to_cnf(g)
    assert cyk_member(cnf, HWord(("x1", "x2"), tuple(shortest)))


def _random_nfa(rng):
    states = [f"q{i}" for i in range(rng.randint(1, 4))]
    transitions = {(rng.choice(states), rng.choice("ab"), rng.choice(states))
                   for _ in range(rng.randint(1, 8))}
    return Nfa({"a", "b"}, states, set(rng.sample(states, rng.randint(1, len(states)))),
               set(rng.sample(states, rng.randint(1, len(states)))), transitions)


def test_intersect_empty_equals_bar_hillel():
    """The span fixpoint of ``cfg_intersect_empty`` against the emptiness of
    the materialised Bar-Hillel grammar, on random CNF grammars and NFAs."""
    rng = random.Random(9)
    verdicts = set()
    for _ in range(300):
        cnf = to_cnf(random_base_grammar(rng))
        a = _random_nfa(rng)
        got = cfg_intersect_empty(cnf, a)
        assert got == cfg_empty(bar_hillel(cnf, a)), (cnf.rules, a.transitions)
        verdicts.add(got)
    assert verdicts == {True, False}
