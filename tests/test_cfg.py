"""Grammar engine: cleanup, CNF, emptiness, membership (the span fixpoint
on a word read as a chain), Bar-Hillel, enumeration."""

import itertools
import random

from hyperlang.cfg import (Cfg, bar_hillel, cfg_empty, cfg_intersect_empty,
                           cleanup, cyk_member, derive_bounded, derives_span, to_cnf)
from hyperlang.core import as_word
from hyperlang.nfa import Nfa, word_automaton

from conftest import random_base_grammar


def string_language(g, n):
    return {"".join(w) for w in derive_bounded(g, n)}


def is_cnf(g):
    """Rules A→BC, A→a, and at most start→ε."""
    for v, body in g.rules:
        if len(body) == 2:
            if not all(g.is_variable(t) for t in body):
                return False
        elif len(body) == 1:
            if g.is_variable(body[0]):
                return False
        elif body or v != g.start:
            return False
    return True


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
    # the raw grammar needs no CNF and gives the same verdicts
    assert cyk_member(anbn, as_word("aabb"))
    assert not cyk_member(anbn, as_word("abab"))
    # a nullable start that occurs in bodies
    dyck = Cfg({"S"}, "S", [("S", ("a", "S", "b")), ("S", ()), ("S", ("S", "S"))])
    for w in ("", "ab", "aabb", "abab", "aabbab"):
        assert cyk_member(dyck, as_word(w))
    for w in ("a", "ba", "aab", "abba"):
        assert not cyk_member(dyck, as_word(w))
    # long words, against a balance counter: random Dyck words, each with
    # one letter flipped and rotated by one letter (balanced counts, but a
    # prefix closes more than it opens)
    rng = random.Random(21)
    for n in (20, 40, 80):
        opened = closed = 0
        word = ""
        while closed < n // 2:
            if opened < n // 2 and (opened == closed or rng.random() < 0.5):
                word, opened = word + "a", opened + 1
            else:
                word, closed = word + "b", closed + 1
        i = rng.randrange(n)
        flipped = word[:i] + "ab"[word[i] == "a"] + word[i + 1:]
        for w in (word, flipped, word[1:] + word[0]):
            assert cyk_member(dyck, as_word(w)) == _balanced(w), w
    assert _balanced(word) and not _balanced(flipped)


def _balanced(w):
    """Is ``w`` a Dyck word over a (open) and b (close)?"""
    depth = 0
    for s in w:
        depth += 1 if s == "a" else -1
        if depth < 0:
            return False
    return depth == 0


def test_cyk_agrees_with_enumeration():
    rng = random.Random(4)
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
    assert list(shortest) in (
        [("a", "a"), ("b", "a")],
        [("a", "b"), ("#", "a"), ("#", "a")],
        [("b", "b"), ("b", "b"), ("a", "#")],
    )
    cnf = to_cnf(g)
    assert cyk_member(cnf, tuple(shortest))


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


def _raw_grammar(rng, left=None):
    """A random grammar with all that ``to_cnf`` removes: ε-rules, a
    nullable start occurring in bodies, unit cycles, useless variables
    (X never derives a word, Y is never reached), and bodies of 3–4
    symbols mixing terminals and variables; with a second generator
    ``left``, often a left-recursive body too, drawn from ``left`` alone so
    that ``rng`` draws what it did without one."""
    pool = ["a", "b", "S", "T", "U", "X"]
    rules = {("X", ("a", "X")), ("Y", ("b",))}
    for _ in range(rng.randint(2, 6)):
        body = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        rules.add((rng.choice("STU"), body))
    for head in "STU":
        if rng.random() < 0.4:
            rules.add((head, ()))
        if rng.random() < 0.3:
            rules.add((head, (rng.choice("STU"),)))
        if rng.random() < 0.5:
            rules.add((head, (rng.choice("ab"),)))
    if rng.random() < 0.3:
        rules |= {("S", ("T",)), ("T", ("U",)), ("U", ("S",))}
    if left is not None and left.random() < 0.6:
        head = left.choice("STU")
        rules.add((head, (head, left.choice("ab"))))
    return Cfg({"S", "T", "U", "X", "Y"}, "S", rules)


def test_binary_normal_form_engines_on_raw_grammars():
    """``cyk_member`` and ``cfg_intersect_empty`` on raw grammars against
    their CNF, enumeration and the Bar-Hillel product of the CNF; on one
    short word per grammar, ``cyk_member`` also against the emptiness of
    the grammar's Bar-Hillel product with the word's automaton, a route
    that shares no code with the span fixpoint.  Most grammars hold a
    left-recursive body."""
    rng, pick, left = random.Random(20), random.Random(21), random.Random(22)
    universe = [w for n in range(6) for w in itertools.product("ab", repeat=n)]
    short = universe[:7]  # the words of at most 2 letters
    verdicts, product_verdicts = set(), set()
    for _ in range(120):
        g = _raw_grammar(rng, left)
        cnf = to_cnf(g)
        derived = derive_bounded(g, 5)
        for w in universe:
            got = cyk_member(g, w)
            assert got == cyk_member(cnf, w) == (w in derived), (g.rules, w)
            verdicts.add(got)
        w = pick.choice(short)
        got = cyk_member(g, w)
        assert got == (not cfg_empty(bar_hillel(g, word_automaton(w, "ab")))), (g.rules, w)
        product_verdicts.add(got)
        a = _random_nfa(rng)
        assert cfg_intersect_empty(g, a) == cfg_empty(bar_hillel(g, a)), \
            (g.rules, a.transitions)
    assert verdicts == product_verdicts == {True, False}


def test_letters_are_read_once_and_only_where_a_derivation_reaches():
    """``derives_span`` asks for each letter's spans at most once, and never
    for a letter that only begins a rule unreachable from the start (d, in
    U's rule); a nullable symbol and a unit cycle reach the letters by
    several paths."""
    g = Cfg({"S", "T", "N", "U"}, "S",
            [("S", ("N", "a", "S", "b")), ("S", ("T",)), ("T", ("S",)), ("T", ("c",)),
             ("N", ()), ("N", ("a",)), ("S", ("N", "T", "N")), ("U", ("d", "S"))])
    for w in ("c", "acb", "aacbb", "aacb", "abc", ""):
        asked = []

        def spans(letter, word=w):
            asked.append(letter)
            return [(i, i + 1) for i, s in enumerate(word) if s == letter]
        got = derives_span(g, spans, (0,), (len(w),))
        assert got == (as_word(w) in derive_bounded(g, len(w))), w
        assert len(asked) == len(set(asked)) and "d" not in asked, (w, asked)


def test_long_words_on_recursive_grammars():
    """2,000-letter words on a left-recursive, a right-recursive and a
    centre-embedding grammar: the engine is iterative, so none raises
    ``RecursionError``, and each verdict is right."""
    n = 2000
    cases = [
        (Cfg({"S"}, "S", [("S", ("S", "a")), ("S", ("a",))]), "a" * n, "a" * (n - 1) + "b"),
        (Cfg({"S"}, "S", [("S", ("a", "S")), ("S", ("a",))]), "a" * n, "a" * (n - 1) + "b"),
        (Cfg({"S"}, "S", [("S", ("a", "S", "b")), ("S", ())]),
         "a" * (n // 2) + "b" * (n // 2), "a" * (n // 2) + "b" * (n // 2 - 1) + "a"),
    ]
    for g, member, other in cases:
        assert cyk_member(g, as_word(member)), g.rules
        assert not cyk_member(g, as_word(other)), g.rules


class _Text:
    """A stand-in whose ``repr`` is a track letter's text."""

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return self.text


def test_rule_key_is_the_repr_of_rules_with_letters_as_text():
    """``rule_key`` spells a rule as ``repr`` does once each letter is its
    text, so rules list in that order, though ``"1]"`` sorts after ``"10"``
    and ``"1'"`` before it."""
    rng = random.Random(5)
    v = ("x", "y")
    pool = [c for c in itertools.product(("1", "10", "#", "a'"), repeat=2)
            if c != ("#", "#")]
    for _ in range(50):
        rules = {(rng.choice(["S", "S'", "T"]),
                  tuple(rng.choice(pool + ["S", "T", "c"]) for _ in range(rng.randint(0, 3))))
                 for _ in range(rng.randint(1, 6))}
        g = Cfg({"S", "S'", "T"}, "S", rules, v)
        spelled = {rule: repr((rule[0], tuple(
            _Text(f"[x={t[0]},y={t[1]}]") if isinstance(t, tuple) else t for t in rule[1])))
            for rule in rules}
        assert {rule: g.rule_key(rule) for rule in rules} == spelled
