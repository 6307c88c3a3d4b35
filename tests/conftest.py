"""Shared fixtures: worked examples used across the test modules."""

import itertools
import random

import pytest

from hyperlang.cfg import Cfg
from hyperlang.cfhg import Cfhg
from hyperlang.core import PAD, QuantifierPrefix, as_word
from hyperlang.nfa import Dfa, Nfa
from hyperlang.nfh import Nfh
from hyperlang.pcp import PcpInstance


def letter(var_names, *symbols):
    """The track letter, a tuple of symbols, giving each named track its symbol."""
    assert len(var_names) == len(symbols)
    return symbols


def pad_vars(var_names, token):
    """The variables a terminal assigns the pad marker: none for a base
    symbol."""
    if not isinstance(token, tuple):
        return frozenset()
    return frozenset(v for v, s in zip(var_names, token) if s == PAD)


def hword(tracks):
    """The track word, a tuple of letters, whose tracks are the given
    equal-length padded words (pads may stand anywhere)."""
    return tuple(zip(*(as_word(w) for w in tracks.values())))


def words(*strings):
    """Words from strings; 'eps' denotes the empty word."""
    return [() if s == "eps" else as_word(s) for s in strings]


def language_strings(language):
    """Render a set of words (tuples) as a set of plain strings."""
    return {"".join(w) for w in language}


@pytest.fixture
def fig1_nfh():
    """The two-state NFH accepting exactly the infinite languages over {a}:
    for every word on x there is a strictly longer word on y."""
    v = ("x", "y")
    delta = {
        ("u0", letter(v, "a", "a"), "u0"),
        ("u0", letter(v, "#", "a"), "u1"),
        ("u1", letter(v, "#", "a"), "u1"),
    }
    underlying = Nfa({"a", "#"}, {"u0", "u1"}, {"u0"}, {"u1"}, delta, v)
    return Nfh(frozenset({"a"}), QuantifierPrefix.parse("A x E y"), underlying)


@pytest.fixture
def successor_even_blocks():
    """NFA over (x, y) computing f(a^2i) = b^2i (i >= 1) and
    f(b^2i) = a^(2i+2); together with first word eps this orders
    {a^2i, b^2i : i in N} as eps, aa, bb, aaaa, bbbb, ..."""
    v = ("x", "y")
    delta = {
        ("p0", letter(v, "a", "b"), "p1"),
        ("p1", letter(v, "a", "b"), "p2"),
        ("p2", letter(v, "a", "b"), "p1"),
        ("q0", letter(v, "b", "a"), "q1"),
        ("q1", letter(v, "b", "a"), "q0"),
        ("q0", letter(v, "#", "a"), "q2"),
        ("q2", letter(v, "#", "a"), "q3"),
    }
    return Nfa({"a", "b", "#"}, {"p0", "p1", "p2", "q0", "q1", "q2", "q3"},
               {"p0", "q0"}, {"p2", "q3"}, delta, v)


def robot_grammar(var_names=("x",)):
    """The battery grammar: V0 -> [c]V0[a] | [c]V1 ; V1 -> [c]V1 | [c],
    with every letter duplicated across the given variables."""
    def l(s):
        return letter(var_names, *([s] * len(var_names)))
    rules = {
        ("V0", (l("c"), "V0", l("a"))),
        ("V0", (l("c"), "V1")),
        ("V1", (l("c"), "V1")),
        ("V1", (l("c"),)),
    }
    return Cfg(frozenset({"V0", "V1"}), "V0", frozenset(rules), var_names)


@pytest.fixture
def g1_forall():
    """Single-track forall grammar whose underlying derives c^j a^m, j >= m+2."""
    return Cfhg(frozenset({"a", "c"}), QuantifierPrefix.parse("A x"),
                robot_grammar(("x",)))


@pytest.fixture
def robot_diagonal():
    """Forall-forall variant with both tracks carrying the same letters."""
    return Cfhg(frozenset({"a", "c"}), QuantifierPrefix.parse("A x1 A x2"),
                robot_grammar(("x1", "x2")))


@pytest.fixture
def mixed_letter_grammar():
    """Every rule carries an off-diagonal letter; diagonal restriction kills it."""
    v = ("x1", "x2")
    g = Cfg(frozenset({"V0"}), "V0",
            frozenset({("V0", (letter(v, "a", "b"),))}), v)
    return Cfhg(frozenset({"a", "b"}), QuantifierPrefix.parse("A x1 A x2"), g)


@pytest.fixture
def pcp_fixture():
    """The solvable instance with solution index sequence 3,2,3,1."""
    return PcpInstance.of(("a", "baa"), ("ab", "aa"), ("bba", "bb"))


def tile_grammar():
    """Two-track grammar pairing each tile's top (padded) with its bottom:
    V0 -> <tile>V0 | <tile> for tiles [a,baa], [ab,aa], [bba,bb]."""
    v = ("x1", "x2")
    t1 = (letter(v, "a", "b"), letter(v, "#", "a"), letter(v, "#", "a"))
    t2 = (letter(v, "a", "a"), letter(v, "b", "a"))
    t3 = (letter(v, "b", "b"), letter(v, "b", "b"), letter(v, "a", "#"))
    rules = set()
    for tile in (t1, t2, t3):
        rules.add(("V0", tile + ("V0",)))
        rules.add(("V0", tile))
    return Cfg(frozenset({"V0"}), "V0", frozenset(rules), v)


@pytest.fixture
def tile_grammar_cfhg():
    return Cfhg(frozenset({"a", "b"}), QuantifierPrefix.parse("A x1 A x2"),
                tile_grammar())


@pytest.fixture
def pumping_grammar():
    """The ranked grammar deriving, per a^n b^n on x1, a longer a^n b^m on x2:
    V0 -> V1 V2 ; V1 -> [a,a]V1[b,b] | [a,a][b,b] ; V2 -> V2[#,b] | [#,b]."""
    v = ("x1", "x2")
    rules = {
        ("V0", ("V1", "V2")),
        ("V1", (letter(v, "a", "a"), "V1", letter(v, "b", "b"))),
        ("V1", (letter(v, "a", "a"), letter(v, "b", "b"))),
        ("V2", ("V2", letter(v, "#", "b"))),
        ("V2", (letter(v, "#", "b"),)),
    }
    g = Cfg(frozenset({"V0", "V1", "V2"}), "V0", frozenset(rules), v)
    return Cfhg(frozenset({"a", "b"}), QuantifierPrefix.parse("A x1 E x2"), g)


@pytest.fixture
def anbn():
    """Base-alphabet grammar for {a^n b^n : n >= 1}."""
    return Cfg(frozenset({"S"}), "S",
               frozenset({("S", ("a", "S", "b")), ("S", ("a", "b"))}))


def random_base_grammar(rng, symbols=("a", "b")):
    """A small random base-alphabet grammar (possibly empty language)."""
    variables = ["S", "T", "U"][:rng.randint(1, 3)]
    rules = set()
    for head in variables:
        for _ in range(rng.randint(1, 3)):
            body = tuple(rng.choice(list(symbols) + variables)
                         for _ in range(rng.randint(1, 3)))
            rules.add((head, body))
        if rng.random() < 0.7:
            rules.add((head, (rng.choice(symbols),)))
    return Cfg(frozenset(variables), "S", frozenset(rules))


def track_letters(var_names, symbols=("a", "b")):
    """Every track letter over the variables except the all-pad one."""
    return [letter(var_names, *column) for column in
            itertools.product(list(symbols) + ["#"], repeat=len(var_names))
            if set(column) != {"#"}]


def random_track_grammar(rng, var_names=("x1", "x2"), symbols=("a", "b")):
    """A small random track grammar mixing diagonal, mixed, and pad letters."""
    pool = track_letters(var_names, symbols)
    variables = ["V0", "V1"][:rng.randint(1, 2)]
    rules = set()
    for head in variables:
        for _ in range(rng.randint(1, 3)):
            body = tuple(rng.choice(pool + variables)
                         for _ in range(rng.randint(1, 3)))
            rules.add((head, body))
        rules.add((head, (rng.choice(pool),)))
    return Cfg(frozenset(variables), "V0", frozenset(rules), var_names)


def random_ranked_grammars(count, seed=7, var_names=("x1", "x2")):
    """Random track grammars filtered down to ranked, cleaned ones."""
    from hyperlang.cfg import cfg_empty, cleanup
    from hyperlang.ranks import is_ranked
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = cleanup(random_track_grammar(rng, var_names))
        if not cfg_empty(g) and is_ranked(g).ranked:
            out.append(g)
    return out


def random_prefix_closed_dfa(rng, max_states=4):
    """A random acyclic all-accepting DFA; its (finite) language is
    prefix-closed and contains the empty word."""
    n = rng.randint(2, max_states)
    states = [f"s{i}" for i in range(n)]
    delta = set()
    for i, q in enumerate(states):
        for sym in "ab":
            if i + 1 < n and rng.random() < 0.7:
                delta.add((q, sym, states[rng.randint(i + 1, n - 1)]))
    return Dfa({"a", "b"}, states, "s0", set(states), delta)
