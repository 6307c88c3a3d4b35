"""Singleton-hyperlanguage realizability constructions."""

import itertools
import random
import time

import pytest

import hyperlang.realize as realize_module
from hyperlang.core import (PAD, QuantifierPrefix, as_word,
                            bounded_universe, pad_to_sync)
from hyperlang.errors import CapExceeded, EmptyLanguage, NotPrefixClosed
from hyperlang.formats import parse_nfh, render_nfh
from hyperlang.nfa import (Dfa, Nfa, absorb_pad, compose_free, difference,
                           elim_pad, explore, nfa_language, nfa_member, pad_suffix,
                           project, relabel, trim, union, with_var,
                           word_automaton)
from hyperlang.nfh import Nfh, nfh_accepts, nfh_hyperlanguage_probe
from hyperlang.realize import (OrderedLanguageSpec, PartialOrderSpec,
                               _simple_paths, _successor_counts,
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


def test_realize_finite_rejects_symbols_outside_alphabet():
    """A word's symbol outside the alphabet, or the pad, would give an NFH
    that cannot read its own language."""
    with pytest.raises(ValueError, match="'c'"):
        realize_finite({"ab", "c"}, {"a", "b"})
    with pytest.raises(ValueError, match="'#'"):
        realize_finite({"a#", "b"})
    assert nfh_accepts(realize_finite({"ab", "c"}, {"a", "b", "c"}), words("ab", "c"))


def test_realize_finite_drops_the_pad_of_its_alphabet():
    """The pad of a given alphabet is no symbol of the NFH: the text format
    cannot carry it, and the probe would count pad words toward its cap."""
    n = realize_finite({"a"}, {"a", PAD})
    assert n.symbols == {"a"}
    again = parse_nfh(render_nfh(n))
    assert again.symbols == n.symbols and render_nfh(again) == render_nfh(n)
    assert bounded_universe(n.symbols, 1, "probe") == [(), ("a",)]
    assert probe_strings(n, 1) == {frozenset({"a"})}


def _reference_realize_finite(words, alphabet=None):
    """The construction ``realize_finite`` once used: a free composition of
    the word automata of each word and its cyclic successor, folded by
    nested unions, whose tags sort the initial states in word order."""
    language = sorted({as_word(w) for w in words})
    symbols = set(alphabet) if alphabet is not None else {s for w in language for s in w}
    symbols = symbols or {"a"}
    parts = [compose_free(with_var(word_automaton(w, symbols), "x"),
                          with_var(word_automaton(s, symbols), "y"))
             for w, s in zip(language, language[1:] + language[:1])]
    return Nfh(frozenset(symbols), QuantifierPrefix((("A", "x"), ("E", "y"))),
               absorb_pad(union(*parts)))


def test_realize_finite_matches_product_reference():
    """On 280 seeded languages, 20 of each size 1-14 over 1-3 symbols, a
    third holding ε, half with an alphabet (sometimes with a symbol no word
    uses), ``realize_finite`` renders the bytes of the product reference.
    From 11 words on, this needs the initial states to sort in word order."""
    rng = random.Random(53)
    for t in range(280):
        k = 1 + t % 14
        symbols = "abc"[:rng.randint(1 if k < 6 else 2, 3)]
        language = {""} if t % 3 == 0 else set()
        while len(language) < k:
            language.add("".join(rng.choice(symbols) for _ in range(rng.randint(0, 5))))
        alphabet = None if t % 2 else set(symbols) | set(rng.choice(["", "d"]))
        assert render_nfh(realize_finite(language, alphabet)) == \
            render_nfh(_reference_realize_finite(language, alphabet)), (language, alphabet)


def test_realize_finite_one_path_per_word():
    """On {a,b}^6, 64 words, the NFH has max(|w_i|, |w_(i+1)|) + 2 states
    per word, and of L, L minus a word and L plus a word it accepts L alone."""
    language = [as_word("".join(w)) for w in itertools.product("ab", repeat=6)]
    n = realize_finite(language)
    assert len(n.underlying.states) == 64 * (6 + 2)
    assert nfh_accepts(n, language)
    assert not nfh_accepts(n, language[1:])
    assert not nfh_accepts(n, language + [as_word("abababa")])


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


def _composed_first_word(words, a, track_vars):
    """The reference for ``_first_word_product``: the lines of ``words`` on
    x1..xm, freely composed with ``a`` on ``track_vars``, trailing pads
    absorbed."""
    symbols = {s for s in a.symbols if s != PAD}
    lines = [with_var(word_automaton(w, symbols), f"x{j + 1}")
             for j, w in enumerate(words)]
    renamed = relabel(a, track_vars, lambda l: l)
    return absorb_pad(compose_free(*lines, renamed))


def _column_line_states(a, words):
    """``a``, a composition of the lines of ``words`` with a track automaton,
    with each state (line states..., q) renamed (state of the longest word's
    line, q): the column line's names, since every line reads one column per
    step and a shorter word's line state follows from the longest's; the
    dead state of an empty ``a`` keeps its name."""
    longest = max(range(len(words)), key=lambda j: len(words[j]))
    name = lambda state: (state[longest], state[-1]) if state != "__dead__" else state
    return Nfa(a.symbols, map(name, a.states), map(name, a.initial),
               map(name, a.accepting),
               {(name(q), l, name(p)) for q, l, p in a.transitions}, a.vars)


def _random_track_nfa(rng):
    """An NFA over (x, y) and {a, b} of 1-4 states, one of them sometimes
    named ("pad", 0), whose letters include all-pad and mid-word pads; it
    may have no accepting state."""
    states = [str(i) for i in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        states[-1] = ("pad", 0)
    columns = list(itertools.product("ab#", repeat=2))
    transitions = {(q, letter(("x", "y"), *rng.choice(columns)), rng.choice(states))
                   for q in states for _ in range(rng.randint(0, 3))}
    accepting = {q for q in states if rng.random() < 0.4}
    return Nfa({"a", "b", PAD}, states, rng.sample(states, min(2, len(states))),
               accepting, transitions, ("x", "y"))


def test_first_word_product_equals_composition(monkeypatch):
    """``_first_word_product`` is its composed reference field for field, on
    generated (x, y) NFAs under one to three words, ε among them, with the
    reference's states renamed onto the column line for more than one word;
    on the successors that ``realize_shortlex`` chains from the least word
    of generated infinite DFAs; on the components of the fast prefix-closed
    route; and on the united parts of the partial-order route: so every
    rendered byte of the one-word routes stays the same."""
    rng = random.Random(29)
    cases = []
    for t in range(400):
        a = _random_track_nfa(rng)
        m = 1 + t % 3
        words_ = tuple(tuple(rng.choice("ab") for _ in range(rng.randint(0, 3)))
                       for _ in range(m))
        cases.append((words_, a, rng.choice([(f"x{m + 1}", f"x{m + 2}"), ("x", "y")])))
    assert sum(not a.accepting for _, a, _ in cases) >= 50
    assert sum(("pad", 0) in a.states for _, a, _ in cases) >= 50
    seen = []
    product = realize_module._first_word_product
    monkeypatch.setattr(realize_module, "_first_word_product",
                        lambda *args: (seen.append(args), product(*args))[1])
    for d in [_generated_dfa(rng, 1, 5, 2) for _ in range(150)]:
        if _is_infinite(d):
            realize_shortlex(d)
    for _ in range(40):
        realize_prefix_closed_fast(random_prefix_closed_dfa(rng))
    for _ in range(10):
        realize_regular(_random_dfa(rng, cyclic=False))
    successors = [a for _, a, v in seen if v == ("x2", "x3")]
    assert len(successors) >= 50
    assert sum(v[0] == "z" and len(w) == 1 for w, _, v in seen) >= 40
    assert sum(len(w) > 1 for w, _, _ in seen) >= 3
    cases += [((tuple(rng.choice(sorted(a.symbols - {PAD})) for _ in range(3)),), a,
               ("x2", "x3")) for a in successors]
    for words_, a, track_vars in cases + seen:
        built = product(words_, a, track_vars)
        reference = _composed_first_word(words_, a, track_vars)
        if len(words_) > 1:
            reference = _column_line_states(reference, words_)
        for field in ("states", "initial", "accepting", "transitions", "symbols",
                      "vars"):
            assert getattr(built, field) == getattr(reference, field), \
                (field, words_, a)


# --- successor counting ---------------------------------------------------------

def _finite_relation(pairs, symbols):
    """A 2-track NFA accepting exactly the given (u, v) word pairs."""
    parts = []
    for u, v in pairs:
        parts.append(compose_free(
            with_var(word_automaton(as_word(u), symbols=set(symbols)), "x"),
            with_var(word_automaton(as_word(v), symbols=set(symbols)), "y")))
    return union(*parts)


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


def _random_dfa(rng, cyclic, max_states=3):
    """A DFA over {a, b} with 2 to ``max_states`` states and a non-empty
    language; acyclic ones only move to higher-numbered states."""
    while True:
        n = rng.randint(2, max_states)
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
        counts = _successor_counts(spec.relation, spec.max_successors)
        for i, (_, exact) in enumerate(counts, 1):
            expected = {u for u, vs in successors.items()
                        if len(u) <= 3 and len(vs) == i}
            assert nfa_language(exact, 3) == expected, (spec, i)


def _reference_successor_product(relation, i):
    """The construction ``_successor_product`` once used: i relation copies
    sharing the z-track whose y-words are pairwise distinct, over states
    (per-copy states, set of index pairs already seen distinct)."""
    closed = pad_suffix(relation)
    pairs = list(itertools.combinations(range(i), 2))
    all_pairs = frozenset(frozenset(p) for p in pairs)
    by_x: dict = {}
    for q, l, p in closed.transitions:
        by_x.setdefault(q, {}).setdefault(l[0], []).append((l[1], p))
    joint_vars = ("z",) + tuple(f"y{j + 1}" for j in range(i))

    def step(state):
        copies, seen = state
        per_copy = [by_x.get(q, {}) for q in copies]
        for x_sym in set(per_copy[0]).intersection(*per_copy[1:]):
            for combo in itertools.product(*(moves[x_sym] for moves in per_copy)):
                y_syms = tuple(y for y, _ in combo)
                new_seen = seen | {frozenset((j1, j2)) for j1, j2 in pairs
                                   if y_syms[j1] != y_syms[j2]}
                yield (x_sym,) + y_syms, (tuple(p for _, p in combo), new_seen)

    initial = {(combo, frozenset())
               for combo in itertools.product(closed.initial, repeat=i)}
    return explore(initial, step,
                   lambda state: state[1] == all_pairs
                   and all(q in closed.accepting for q in state[0]),
                   closed.symbols, joint_vars)


def _reference_realize_partially_ordered(spec):
    """The assembly ``realize_partially_ordered`` once used: each count's
    part (P_i run with its words on the z-track, widened by copies of z)
    freely composed with the minimal words' lines, the compositions united,
    then trailing pads absorbed.  With ``_successor_product`` patched to
    the reference, it is the construction once used whole."""
    symbols = {s for s in spec.relation.symbols if s != PAD}
    symbols |= {s for w in spec.minimal_words for s in w}
    x_names = tuple(f"x{j + 1}" for j in range(len(spec.minimal_words)))
    y_names = tuple(f"y{j + 1}" for j in range(spec.max_successors))
    lines = compose_free(*(with_var(word_automaton(w, symbols), x)
                           for w, x in zip(spec.minimal_words, x_names)))
    parts = []
    counts = _successor_counts(spec.relation, spec.max_successors)
    for i, (product, exact) in enumerate(counts, 1):
        base = pad_suffix(exact)
        moves, moves_base = product.moves_from(), base.moves_from()
        b_i = explore({(q, b) for q in product.initial for b in base.initial},
                      lambda s: ((l, (q, b)) for l, q in moves.get(s[0], ())
                                 for z, b in moves_base.get(s[1], ()) if z == l[0]),
                      lambda s: s[0] in product.accepting and s[1] in base.accepting,
                      product.symbols | base.symbols, product.vars)
        b_i = relabel(b_i, ("z",) + y_names,
                      lambda l: l + (l[0],) * (len(y_names) - i))
        if b_i.accepting:
            parts.append(compose_free(lines, b_i))
    prefix = QuantifierPrefix(tuple(("E", x) for x in x_names) + (("A", "z"),)
                              + tuple(("E", y) for y in y_names))
    return Nfh(frozenset(symbols), prefix, absorb_pad(union(*parts)))


def _generated_relation_specs():
    """Prefix-closed relations of generated DFAs over 1-3 letters, then
    pumping relations of small DFAs with k ≤ 3."""
    rng = random.Random(61)
    specs = []
    for _ in range(20):  # all accepting: prefix-closed, finite or infinite
        d = _generated_dfa(rng, 1, 3, 3)
        specs.append(prefix_closed_relation(Dfa(d.symbols, d.states, d.start,
                                                d.states, d.transitions)))
    specs += [prefix_closed_relation(random_prefix_closed_dfa(rng)) for _ in range(4)]
    for cyclic in (True, False) * 6:
        spec = regular_relation(_random_dfa(rng, cyclic))
        if spec.max_successors <= 3:  # k+2 relation copies: keep it small
            specs.append(spec)
    assert {len(spec.relation.symbols) for spec in specs} == {2, 3, 4}
    assert {spec.max_successors for spec in specs[:20]} == {1, 2, 3}
    return specs


def _reference_successors_ge(product):
    """The chain ``successors_ge`` once was: trailing pads absorbed, each
    y-track projected away, the z-track flattened to base letters, then
    pads eliminated."""
    joint = absorb_pad(product)
    for y in product.vars[1:]:
        joint = project(joint, y)
    transitions = {(q, letter[0], p) for q, letter, p in joint.transitions}
    return elim_pad(Nfa(joint.symbols | {s for _, s, _ in transitions}, joint.states,
                        joint.initial, joint.accepting, transitions))


def test_successors_ge_equals_the_projection_chain():
    """On the generated relations, ``successors_ge`` of P_i at i = 1..k+1 is
    the automaton of the projection chain, field by field."""
    fields = lambda a: (a.states, a.initial, a.accepting, a.transitions, a.symbols)
    for spec in _generated_relation_specs():
        for i in range(1, spec.max_successors + 2):
            product = _successor_product(spec.relation, i)
            assert fields(successors_ge(product)) == \
                fields(_reference_successors_ge(product)), (spec, i)


def test_ordered_copies_equal_the_pairwise_distinct_reference(monkeypatch):
    """On the generated relations, ``successors_ge`` of the ordered copies
    has the language of the pairwise-distinct reference at i = 1..k+1:
    ``difference`` both ways is empty.  On those over at most 2 letters,
    ``realize_partially_ordered`` probes as the reference construction does
    at ``max_len`` 2, m ≥ 2 minimal words among them."""
    specs = _generated_relation_specs()
    for spec in specs:
        for i in range(1, spec.max_successors + 2):
            got = successors_ge(_successor_product(spec.relation, i))
            reference = successors_ge(_reference_successor_product(spec.relation, i))
            assert not difference(got, reference).accepting, (spec, i)
            assert not difference(reference, got).accepting, (spec, i)
    probed = [spec for spec in specs if len(spec.relation.symbols) <= 3]
    assert any(len(spec.minimal_words) >= 2 for spec in probed)
    built = [probe_strings(realize_partially_ordered(spec), 2) for spec in probed]
    monkeypatch.setattr(realize_module, "_successor_product",
                        _reference_successor_product)
    for spec, got in zip(probed, built):
        assert got == probe_strings(_reference_realize_partially_ordered(spec), 2), spec


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

# 0-a->1, 1-b->2, 2-a->1, 0-b->0 accepting {1, 2}: the pumping route once
# exceeded DET_CAP on it
ROADMAP_DFA = Dfa({"a", "b"}, {"0", "1", "2"}, "0", {"1", "2"},
                  {("0", "a", "1"), ("1", "b", "2"), ("2", "a", "1"),
                   ("0", "b", "0")})


def _within(a, max_len):
    """``a`` restricted to words of length ≤ max_len, trimmed, so that an
    enumeration walks only the prefixes of such words."""
    moves = a.moves_from()
    return explore({(q, 0) for q in a.initial},
                   lambda s: ((l, (p, s[1] + 1)) for l, p in moves.get(s[0], ())
                              if s[1] < max_len),
                   lambda s: s[0] in a.accepting, a.symbols, a.vars)


def shortlex_words(d, max_len):
    """The words of L(d) up to max_len, in shortlex order."""
    return sorted(nfa_language(_within(d, max_len), max_len),
                  key=lambda w: (len(w), w))


def shortlex_pairs(d, max_len):
    """The shortlex successor's pairs of words of length ≤ max_len, by
    enumeration."""
    return relation_pairs(_within(shortlex_successor(d), max_len), max_len)


def test_shortlex_successor_matches_enumeration():
    """On generated infinite languages, the relation is the shortlex-next
    pairs of L up to length 5, a function, and chains the least word
    through all of L up to length 5; ``realize_shortlex`` starts the chain
    at that word."""
    rng = random.Random(23)
    dfas = [ROADMAP_DFA]
    while len(dfas) < 31:
        d = _random_dfa(rng, cyclic=True)
        # a word as long as the DFA has states can be pumped: L is infinite
        if any(len(w) >= len(d.states) for w in shortlex_words(d, 3)):
            dfas.append(d)
    for d in dfas:
        language = shortlex_words(d, 5)
        pairs = shortlex_pairs(d, 5)
        assert pairs == set(zip(language, language[1:])), d.transitions
        reached = {language[0]}
        for u, v in sorted(pairs, key=lambda p: (len(p[0]), p[0])):
            if u in reached:
                reached.add(v)
        assert reached == set(language)
        n = realize_shortlex(d)
        x1, x2, x3 = n.prefix.variables
        for first, accepted in zip(language[:2], (True, False)):
            h = pad_to_sync({x1: first, x2: language[0], x3: language[1]})
            assert nfa_member(n.underlying, h) == accepted, d.transitions


def test_realize_shortlex_routes():
    """An infinite L gets the ∃∀∃ chain from its least word; a finite L is
    realized as the finite language of its words."""
    n = realize_shortlex(ROADMAP_DFA)
    assert n.prefix.render() == "E x1 A x2 E x3"
    x1, x2, x3 = n.prefix.variables
    step = pad_to_sync({x1: as_word("a"), x2: as_word("aba"), x3: as_word("bab")})
    assert nfa_member(n.underlying, step)
    skip = pad_to_sync({x1: as_word("a"), x2: as_word("ab"), x3: as_word("bab")})
    assert not nfa_member(n.underlying, skip)
    d = Dfa({"a", "b"}, {"0", "1", "2"}, "0", {"2"},
            {("0", "a", "1"), ("1", "b", "2")})
    assert render_nfh(realize_shortlex(d)) == \
        render_nfh(realize_finite(words("ab"), {"a", "b"}))


def test_finite_routes_are_exact_on_generated_dfas():
    """On generated finite languages, ``realize_shortlex`` and the pumping
    ``realize_regular`` both realize exactly {L}."""
    rng = random.Random(31)
    for _ in range(120):
        d = _random_dfa(rng, cyclic=False, max_states=4)
        expected = {frozenset("".join(w) for w in shortlex_words(d, 3))}
        assert probe_strings(realize_shortlex(d), 3) == expected, d.transitions
        assert probe_strings(realize_regular(d), 3) == expected, d.transitions



def _dead_region_dfa(n):
    """L = {a}: s -a-> f, and s -b-> a dead region of n states, in which d_i
    moves on a, b, c, d to the next four; its simple paths grow
    exponentially with n, though no word of L enters it."""
    dead = {(f"d{i}", s, f"d{(i + j + 1) % n}")
            for i in range(n) for j, s in enumerate("abcd")}
    return Dfa(set("abcd"), {"s", "f"} | {f"d{i}" for i in range(n)}, "s", {"f"},
               {("s", "a", "f"), ("s", "b", "d0")} | dead)


def test_realize_shortlex_finite_language_ignores_a_dead_region():
    """A finite L's words come off the trimmed lasso, so a dead region of 18
    states costs no path walk; the NFH is that of the trimmed DFA."""
    d = _dead_region_dfa(18)
    started = time.perf_counter()
    n = realize_shortlex(d)
    assert time.perf_counter() - started < 0.5
    trimmed = Dfa(set("abcd"), {"s", "f"}, "s", {"f"}, {("s", "a", "f")})
    assert render_nfh(n) == render_nfh(realize_shortlex(trimmed))


def _outcome(build):
    """The rendered NFH ``build`` returns, or the type and text of its error."""
    try:
        return render_nfh(build())
    except (CapExceeded, EmptyLanguage) as exc:
        return type(exc).__name__, str(exc)


def _forward_dfa(rng, n):
    """A DFA of n states over a, b, c whose moves only go forward, each
    present with probability 0.8: L is finite, and may pass the path cap."""
    states = [str(i) for i in range(n)]
    delta = {(states[i], s, states[rng.randrange(i + 1, n)])
             for i in range(n - 1) for s in "abc" if rng.random() < 0.8}
    accepting = {q for q in states if rng.random() < 0.4}
    return Dfa(set("abc"), states, "0", accepting, delta)


def test_finite_lasso_words_are_the_simple_path_words():
    """On generated DFAs of finite or empty L, ``realize_shortlex`` writes
    the bytes, or raises the refusal, of ``realize_finite`` on the
    simple-path words, the word count of the cap's message included."""
    rng = random.Random(43)
    dfas = [d for d in (_generated_dfa(rng, 1, 6, 3) for _ in range(200))
            if not _is_infinite(d)]
    dfas += [_forward_dfa(rng, rng.randint(2, 8)) for _ in range(100)]
    outcomes = set()
    for d in dfas:
        got = _outcome(lambda: realize_shortlex(d))
        assert got == _outcome(lambda: realize_finite(_simple_paths(d), d.symbols)), \
            d.transitions
        outcomes.add(got[0] if isinstance(got, tuple) else "nfh")
    assert outcomes == {"nfh", "CapExceeded", "EmptyLanguage"}

def _shortlex_step(order, s, t):
    """The shortlex order ("<", "=" or ">") of two padded words u, v after
    the letters (s, t), given their order before them; None once u is the
    longer, so that u > v whatever follows.  Pads are trailing, so the word
    that pads first is the shorter."""
    if t == PAD:
        return order if s == PAD else None
    if s == PAD:
        return "<"
    if order == "=" and s != t:
        return "<" if s < t else ">"
    return order


def _reference_shortlex_successor(a):
    """The construction ``shortlex_successor`` once used: the pairs u < v of
    L (``less``) minus those with a word w of L between them (``between``,
    whose states run L's DFA on w and keep the orders of (x, w) and (w, y)),
    by a subset construction of ``between``."""
    padded = pad_suffix(a)
    moves = padded.moves_from()
    symbols = padded.symbols

    def less_step(state):
        qx, qy, order = state
        for s, px in moves.get(qx, ()):
            for t, py in moves.get(qy, ()):
                new_order = _shortlex_step(order, s, t)
                if new_order is not None and not s == t == PAD:
                    yield (s, t), (px, py, new_order)

    def between_step(state):
        qw, xw, wy = state
        for w, pw in moves.get(qw, ()):
            for s in symbols:
                new_xw = _shortlex_step(xw, s, w)
                if new_xw is None:
                    continue
                for t in symbols:
                    new_wy = _shortlex_step(wy, w, t)
                    if new_wy is not None and not s == w == t == PAD:
                        yield (s, t), (pw, new_xw, new_wy)

    final = padded.accepting
    less = explore({(a.start, a.start, "=")}, less_step,
                   lambda q: q[0] in final and q[1] in final and q[2] == "<",
                   symbols, ("x", "y"))
    between = explore({(a.start, "=", "=")}, between_step,
                      lambda q: q[0] in final and q[1] == q[2] == "<",
                      symbols, ("x", "y"))
    return difference(less, between)


def _generated_dfa(rng, min_states, max_states, max_symbols):
    """A DFA of ``min_states`` to ``max_states`` states over 1 to
    ``max_symbols`` symbols, each move present with probability 0.7; L may
    be empty or finite."""
    n = rng.randint(min_states, max_states)
    symbols = "abc"[:rng.randint(1, max_symbols)]
    states = [str(i) for i in range(n)]
    delta = {(q, s, str(rng.randrange(n))) for q in states for s in symbols
             if rng.random() < 0.7}
    accepting = {q for q in states if rng.random() < 0.5}
    return Dfa(set(symbols), states, "0", accepting, delta)


def _is_infinite(d):
    """Whether L(d) has a word at least as long as d has states: then it
    can be pumped."""
    n, moves = len(d.states), d.moves_from()
    return bool(explore({(d.start, 0)},
                        lambda s: ((l, (p, min(s[1] + 1, n)))
                                   for l, p in moves.get(s[0], ())),
                        lambda s: s[0] in d.accepting and s[1] == n,
                        d.symbols).accepting)


def test_shortlex_successor_matches_less_between_reference():
    """On 40 generated DFAs of 1-4 states over 1-3 symbols and 100 of 5-6
    states over 1-2, the successor has the language of the ``less`` minus
    ``between`` reference: ``difference`` both ways is empty."""
    rng, larger = random.Random(41), random.Random(23)
    dfas = ([_generated_dfa(rng, 1, 4, 3) for _ in range(40)]
            + [_generated_dfa(larger, 5, 6, 2) for _ in range(100)])
    for d in dfas:
        relation = shortlex_successor(d)
        reference = _reference_shortlex_successor(d)
        assert not difference(relation, reference).accepting, d.transitions
        assert not difference(reference, relation).accepting, d.transitions
    assert sum(map(_is_infinite, dfas[40:])) >= 40


def _ring(n):
    """a: i -> i+1 mod n, b: i -> 0, accepting {n-1}; its least word is a^(n-1)."""
    return Dfa({"a", "b"}, {str(i) for i in range(n)}, "0", {str(n - 1)},
               {(str(i), "a", str((i + 1) % n)) for i in range(n)}
               | {(str(i), "b", "0") for i in range(n)})


@pytest.mark.parametrize("n", [8, 20])
def test_ring_dfas_realize(n):
    """The ring DFAs, whose subset construction the shortlex successor once
    needed, are realized; their successor is the shortlex-next pairs up to
    two letters past the least word."""
    ring = _ring(n)
    assert realize_shortlex(ring).prefix.render() == "E x1 A x2 E x3"
    language = shortlex_words(ring, n + 1)
    assert language[0] == ("a",) * (n - 1)
    assert shortlex_pairs(ring, n + 1) == set(zip(language, language[1:]))


def test_caps_name_their_stage(monkeypatch):
    """The default caps build the pumping NFH of the ROADMAP DFA, and a lower
    ``DET_CAP`` refuses it at the successor count it stops; the shortlex
    length sets name their own cap."""
    n = realize_regular(ROADMAP_DFA)
    assert n.prefix.render() == "E x1 E x2 A z E y1 E y2 E y3 E y4"
    assert len(n.underlying.states) == 42
    # from s, a: into a 7-cycle and b: into an 11-cycle, each accepting at
    # its entry: the length sets repeat with period 77
    cycles = [("p", 7), ("r", 11)]
    states = {"s"} | {f"{c}{i}" for c, k in cycles for i in range(k)}
    moves = {("s", "a", "p0"), ("s", "b", "r0")}
    moves |= {(f"{c}{i}", "a", f"{c}{(i + 1) % k}") for c, k in cycles for i in range(k)}
    two_cycles = Dfa({"a", "b"}, states, "s", {"p0", "r0"}, moves)
    with pytest.raises(CapExceeded, match=r"^shortlex length sets: more than 64 "
                                          r"distinct sets \(cap 64\)$"):
        realize_shortlex(two_cycles)
    monkeypatch.setattr(realize_module, "DET_CAP", 78)
    assert shortlex_successor(two_cycles).accepting
    monkeypatch.setattr(realize_module, "DET_CAP", 20)
    with pytest.raises(CapExceeded, match=r"^successor count 1: determinization "
                                          r"input has 26 states \(cap 20\)$"):
        realize_regular(ROADMAP_DFA)


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
