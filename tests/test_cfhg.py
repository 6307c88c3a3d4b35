"""Hypergrammar decision procedures and undecidability routing."""

import functools
import itertools
import random

import pytest

import hyperlang.cfg as cfg_module
import hyperlang.cfhg as cfhg_module
import hyperlang.core as core_module
from hyperlang.cfg import (Cfg, cfg_empty, cfg_intersect_empty, cleanup,
                           cyk_member, derive_bounded, to_cnf)
from hyperlang.cfhg import (Cfhg, bounded_nonempty_witness, cfhg_empty,
                            diagonal_restriction, finite_member,
                            regular_member)
from hyperlang.core import (QuantifierPrefix, as_word, bounded_universe, evaluate,
                            pad_to_sync, strip_hash)
from hyperlang.errors import CapExceeded, EmptyLanguage, Undecidable
from hyperlang.nfa import (Nfa, pad_anywhere, track_product, with_var,
                           word_automaton)
from hyperlang.pcp import (PcpInstance, pcp_encode_exists_forall,
                           pcp_encode_forall, solution_language)
from hyperlang.ranks import is_ranked

from conftest import (letter, random_ranked_grammars, random_track_grammar,
                      track_letters, words)


def _exists_pair_grammar():
    """∃x1∃x2 grammar deriving only the one-letter word ⟨a,b⟩."""
    v = ("x1", "x2")
    g = Cfg(frozenset({"V0"}), "V0", frozenset({("V0", (letter(v, "a", "b"),))}), v)
    return Cfhg(frozenset({"a", "b"}), QuantifierPrefix.parse("E x1 E x2"), g)


def test_exists_empty():
    g = _exists_pair_grammar()
    assert not cfhg_empty(g)
    dead = Cfhg(frozenset({"a"}), QuantifierPrefix.parse("E x"),
                Cfg(frozenset({"V0"}), "V0",
                    frozenset({("V0", (letter(("x",), "a"), "V0"))}), ("x",)))
    assert cfhg_empty(dead)


def test_exists_empty_single_forall(g1_forall):
    # one ∀ quantifier reduces to plain grammar emptiness
    assert cfhg_empty(g1_forall) == cfg_empty(g1_forall.underlying)
    assert not cfhg_empty(g1_forall)


def test_exists_regular_member():
    g = _exists_pair_grammar()
    ab = Nfa({"a", "b"}, {"0", "1"}, {"0"}, {"1"},
             {("0", "a", "1"), ("0", "b", "1")})
    assert regular_member(g, ab)
    c_only = word_automaton(as_word("c"))
    assert not regular_member(
        Cfhg(g.symbols | {"c"}, g.prefix, g.underlying), c_only)


def test_exists_regular_member_single_var():
    v = ("x",)
    g = Cfhg(frozenset({"a", "b"}), QuantifierPrefix.parse("E x"),
             Cfg(frozenset({"V0"}), "V0",
                 frozenset({("V0", (letter(v, "a"), "V0", letter(v, "b"))),
                            ("V0", (letter(v, "a"), letter(v, "b")))}), v))
    astar_bstar = Nfa({"a", "b"}, {"p", "q"}, {"p"}, {"p", "q"},
                      {("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")})
    assert regular_member(g, astar_bstar)
    only_a = Nfa({"a", "b"}, {"p"}, {"p"}, {"p"}, {("p", "a", "p")})
    assert not regular_member(g, only_a)


def test_finite_member_robot(g1_forall):
    assert finite_member(g1_forall, words("ccca"))
    assert not finite_member(g1_forall, words("ca"))
    assert not finite_member(g1_forall, words("ccca", "ca"))
    assert finite_member(g1_forall, words("cc", "ccca"))


def test_finite_member_tile_grammar(tile_grammar_cfhg):
    assert finite_member(tile_grammar_cfhg, words("bbaabbbaa"))
    assert not finite_member(tile_grammar_cfhg, words("ab"))


def test_finite_member_fast_equals_slow(g1_forall, pumping_grammar):
    cases = [
        (g1_forall, ["ccca"]), (g1_forall, ["ca"]), (g1_forall, ["cc", "ccca"]),
        (pumping_grammar, ["ab", "abb"]), (pumping_grammar, ["ab"]),
    ]
    for g, language in cases:
        language = words(*language)
        assert finite_member(g, language) == finite_member(g, language,
                                                           force_slow=True)


def test_finite_member_empty_language(g1_forall):
    with pytest.raises(EmptyLanguage):
        finite_member(g1_forall, [])


def test_membership_leaf_decides_each_assignment_once(monkeypatch):
    """One ``core.evaluate`` walk reaches each full assignment once, so
    neither ``finite_member`` leaf needs a memo: on ranked grammars of
    one-letter tuples, through the chain leaf and through ``force_slow``,
    under ∃∀∃ (the triples of ``test_nfh``'s trie walk test) and ∀∀ (every
    pair) over three words, no assignment is decided twice."""
    decided = []

    def counting(quantifiers, words, leaf, original=cfhg_module.evaluate):
        def counted(assignment):
            decided.append(assignment)
            return leaf(assignment)
        return original(quantifiers, words, counted)

    monkeypatch.setattr(cfhg_module, "evaluate", counting)
    triples = [tuple(t) for t in ("aba", "aca", "bac", "bbc", "bcc", "caa", "cbb", "ccc")]
    pairs = list(itertools.product("abc", repeat=2))
    for prefix, tuples, leaves in (("E x A y E z", triples, 12), ("A x A y", pairs, 9)):
        prefix = QuantifierPrefix.parse(prefix)
        rules = frozenset(("S", (t,)) for t in tuples)
        g = Cfhg(frozenset("abc"), prefix,
                 Cfg(frozenset({"S"}), "S", rules, prefix.variables))
        assert g.ranked()
        for force_slow in (False, True):
            decided.clear()
            assert finite_member(g, words("a", "b", "c"), force_slow)
            assert len(decided) == len(set(decided)) == leaves, (prefix, force_slow)


def test_diagonal_restriction(robot_diagonal, mixed_letter_grammar):
    diag = diagonal_restriction(robot_diagonal)
    derived = {"".join(t[0] for t in w) for w in derive_bounded(diag, 4)}
    assert derived == {"cc", "ccc", "ccca", "cccc"}
    assert cfg_empty(diagonal_restriction(mixed_letter_grammar))


def test_sync_forall_empty(robot_diagonal, mixed_letter_grammar):
    assert not cfhg_empty(robot_diagonal)
    assert cfhg_empty(mixed_letter_grammar)


def test_sync_forall_empty_exists_forall(robot_diagonal, mixed_letter_grammar):
    ea = Cfhg(robot_diagonal.symbols, QuantifierPrefix.parse("E x1 A x2"),
              robot_diagonal.underlying)
    assert not cfhg_empty(ea)
    ea_mixed = Cfhg(mixed_letter_grammar.symbols,
                    QuantifierPrefix.parse("E x1 A x2"),
                    mixed_letter_grammar.underlying)
    assert cfhg_empty(ea_mixed)


def test_sync_forall_empty_guards(tile_grammar_cfhg, robot_diagonal):
    # the diagonal decides neither an unranked ∀* grammar nor a ∀ before an ∃
    with pytest.raises(Undecidable) as err:
        cfhg_empty(tile_grammar_cfhg)
    assert err.value.reason == "undecforall"
    bad_prefix = Cfhg(robot_diagonal.symbols,
                      QuantifierPrefix.parse("A x1 E x2"),
                      robot_diagonal.underlying)
    with pytest.raises(Undecidable) as err:
        cfhg_empty(bad_prefix)
    assert err.value.reason == "forallexists"


def test_sync_forall_witness_singleton(robot_diagonal):
    diag = diagonal_restriction(robot_diagonal)
    cnf = to_cnf(diag)
    witness = pad_to_sync({"x1": as_word("ccca"), "x2": as_word("ccca")})
    assert cyk_member(cnf, witness)
    assert finite_member(robot_diagonal, words("ccca"))


def test_cfhg_empty_routing(g1_forall, robot_diagonal, tile_grammar_cfhg,
                            pumping_grammar):
    assert not cfhg_empty(g1_forall)
    assert not cfhg_empty(robot_diagonal)
    with pytest.raises(Undecidable) as err:
        cfhg_empty(tile_grammar_cfhg)
    assert err.value.reason == "undecforall"
    ee_aa = Cfhg(frozenset({"a", "b"}),
                 QuantifierPrefix.parse("E x1 A x2"),
                 tile_grammar_cfhg.underlying)
    with pytest.raises(Undecidable) as err:
        cfhg_empty(ee_aa)
    assert err.value.reason == "undecforall"
    with pytest.raises(Undecidable) as err:
        cfhg_empty(pumping_grammar)
    assert err.value.reason == "forallexists"


def test_cfhg_empty_exists_forall_reason(pcp_fixture):
    g = pcp_encode_exists_forall(pcp_fixture)
    with pytest.raises(Undecidable) as err:
        cfhg_empty(g)
    assert err.value.reason == "emptinessexistsforall"


def test_regular_member_guard(g1_forall):
    anything = Nfa({"a", "c"}, {"0"}, {"0"}, {"0"},
                   {("0", "a", "0"), ("0", "c", "0")})
    with pytest.raises(Undecidable) as err:
        regular_member(g1_forall, anything)
    assert err.value.reason == "forallsyncundec"


def test_bounded_nonempty_witness(robot_diagonal, tile_grammar_cfhg):
    got = bounded_nonempty_witness(robot_diagonal, 2)
    assert got is not None
    assert finite_member(robot_diagonal, got)
    # the tile grammar's shortest member word is the 9-letter solution word
    assert bounded_nonempty_witness(tile_grammar_cfhg, 2) is None
    # a ranked ∃∃∀ grammar deriving only ε: its member {ε} lies at length
    # 0, and, as on the enumerating route, a negative bound is refused
    eps = Cfhg(frozenset({"a"}), QuantifierPrefix.parse("E x1 E x2 A x3"),
               Cfg(frozenset({"V0"}), "V0", frozenset({("V0", ())}), ("x1", "x2", "x3")))
    assert bounded_nonempty_witness(eps, 0) == {()}
    for g in (tile_grammar_cfhg, eps):
        with pytest.raises(ValueError):
            bounded_nonempty_witness(g, -1)


def _route_grammar(prefix, ranked):
    """A one-rule grammar over the prefix's variables; the unranked variant
    pads x in front of a letter on x."""
    prefix = QuantifierPrefix.parse(prefix)
    v = prefix.variables
    body = (letter(v, *"a" * len(v)),)
    if not ranked:
        body = (letter(v, "#", *"a" * (len(v) - 1)),) + body
    return Cfhg(frozenset({"a"}), prefix,
                Cfg(frozenset({"V0"}), "V0", frozenset({("V0", body)}), v))


@pytest.mark.parametrize("prefix, ranked, expected", [
    ("E x", True, "exists"),
    ("A x", True, "exists"),
    ("E x E y", True, "exists"),
    ("A x A y", True, "sync"),
    ("A x A y", False, "undecforall"),
    ("E x A y", True, "sync"),
    ("E x A y", False, "undecforall"),
    ("E x E y A z", True, "emptinessexistsforall"),
    ("A x E y", True, "forallexists"),
    ("E x A y E z", True, "forallexists"),
    ("A x A y E z", True, "forallexists"),
])
def test_cfhg_empty_route(monkeypatch, prefix, ranked, expected):
    """The procedure cfhg_empty runs, or the reason it refuses: ``exists``
    tests the grammar itself for emptiness, ``sync`` its diagonal."""
    calls = []
    for name in ("cfg_empty", "diagonal_restriction"):
        def spy(arg, original=getattr(cfhg_module, name), name=name):
            calls.append(name)
            return original(arg)
        monkeypatch.setattr(cfhg_module, name, spy)
    g = _route_grammar(prefix, ranked)
    assert is_ranked(g.underlying).ranked == ranked
    routes = {("cfg_empty",): "exists",
              ("diagonal_restriction", "cfg_empty"): "sync"}
    try:
        cfhg_empty(g)
        got = routes[tuple(calls)]
    except Undecidable as exc:
        assert calls == []
        got = exc.reason
    assert got == expected


def _shortest_word(g, max_len=8):
    """A shortest word that ``g`` derives, searched up to ``max_len``."""
    for n in range(max_len + 1):
        derived = derive_bounded(g, n)
        if derived:
            return min(derived, key=lambda w: (len(w), repr(w)))
    raise AssertionError(f"no word of length ≤ {max_len}")


def test_router_agrees_with_search_and_membership():
    """``cfhg_empty`` on generated grammars, ranked and unranked, under every
    prefix of one to three variables: a member found by the witness search
    rules out an empty verdict, and a non-empty verdict on a ∀*/∃∀* prefix
    is borne out by the singleton of the diagonal restriction's shortest
    word, which ``finite_member`` must accept."""
    rng = random.Random(31)
    found = diagonal_members = 0
    for n in (1, 2, 3):
        v = tuple(f"x{i + 1}" for i in range(n))
        unranked = []
        # a one-track letter holds no pad, so every one-variable grammar is ranked
        while n > 1 and len(unranked) < 3:
            g = cleanup(random_track_grammar(rng, v))
            if not cfg_empty(g) and not is_ranked(g).ranked:
                unranked.append(g)
        grammars = random_ranked_grammars(5, seed=n, var_names=v) + unranked
        for quantifiers in itertools.product("AE", repeat=n):
            prefix = QuantifierPrefix(tuple(zip(quantifiers, v)))
            # ∀* and ∃∀*, where the diagonal decides a ranked grammar
            sync = n > 1 and "E" not in quantifiers[1:]
            for grammar in grammars:
                g = Cfhg(frozenset({"a", "b"}), prefix, grammar)
                try:
                    empty = cfhg_empty(g)
                except Undecidable:
                    empty = None
                if bounded_nonempty_witness(g, 2) is not None:
                    found += 1
                    assert empty is not True, (quantifiers, grammar.rules)
                if sync and empty is False:
                    diagonal = diagonal_restriction(g)
                    assert not cfg_empty(diagonal), (quantifiers, grammar.rules)
                    word = tuple(t[0] for t in _shortest_word(diagonal))
                    assert finite_member(g, [word]), (quantifiers, grammar.rules)
                    diagonal_members += 1
    assert found and diagonal_members


def _reference_witness(g, max_len, most=None, force_slow=False):
    """The search as first defined: finite_member on every non-empty subset of
    the shortest-first, sorted-symbol universe, in bit-mask order; with
    ``most``, only on the subsets of at most that many words."""
    universe = [w for n in range(max_len + 1)
                for w in itertools.product(sorted(g.symbols), repeat=n)]
    for mask in range(1, 1 << len(universe)):
        if most is not None and mask.bit_count() > most:
            continue
        language = [w for i, w in enumerate(universe) if mask >> i & 1]
        if finite_member(g, language, force_slow):
            return frozenset(language)
    return None


def _padded_grammar(rng, v, symbols="ab", recursive=False):
    """A random grammar over every letter of ``v``, the all-pad one
    included, with ε rules and a variable, V2, that has no rule; if
    ``recursive``, half of its body tokens are variables."""
    pool = [letter(v, *c) for c in itertools.product(symbols + "#", repeat=len(v))]
    variables = ["V0", "V1", "V2"]
    rules = {("V1", (letter(v, *"#" * len(v)),))}
    for head in ("V0", "V1"):
        for _ in range(rng.randint(1, 3)):
            rules.add((head, tuple(rng.choice(variables if recursive and rng.random() < 0.5
                                              else pool + variables)
                                   for _ in range(rng.randint(0, 3)))))
        rules.add((head, (rng.choice(pool),)))
    return Cfg(frozenset(variables), "V0", frozenset(rules), v)


def _unranked_grammars(rng, v, count, symbols="ab", recursive=False):
    grammars = []
    while len(grammars) < count:
        g = _padded_grammar(rng, v, symbols, recursive)
        if not is_ranked(g).ranked:
            grammars.append(g)
    return grammars


def test_ranked_agrees_with_the_violation_report():
    """``Cfhg.ranked()``, which stops at the first violation, against the
    full report of ``is_ranked``: on generated ranked grammars, unranked
    ones, and padded ones of either kind, over one to three tracks."""
    rng = random.Random(61)
    verdicts = []
    for k in (1, 2, 3):
        v = tuple(f"x{i + 1}" for i in range(k))
        prefix = QuantifierPrefix(tuple(zip("A" * k, v)))
        grammars = (random_ranked_grammars(4, seed=k, var_names=v)
                    + _unranked_grammars(rng, v, 4)
                    + [_padded_grammar(rng, v, recursive=recursive)
                       for recursive in (False, True) for _ in range(8)])
        for grammar in grammars:
            g = Cfhg(frozenset({"a", "b"}), prefix, grammar)
            verdicts.append(g.ranked())
            assert verdicts[-1] == is_ranked(grammar).ranked, grammar.rules
    assert 20 < verdicts.count(False) < len(verdicts) - 20, verdicts


def _forall_letter_pairs_grammar():
    """∀x1∀x2 grammar deriving every one-letter pair over {a, b}: its member
    languages are {a}, {b} and {a, b}."""
    v = ("x1", "x2")
    rules = {("V0", (letter(v, s, t),)) for s in "ab" for t in "ab"}
    return Cfhg(frozenset({"a", "b"}), QuantifierPrefix.parse("A x1 A x2"),
                Cfg(frozenset({"V0"}), "V0", frozenset(rules), v))


def test_bounded_witness_equals_reference(monkeypatch, robot_diagonal,
                                          tile_grammar_cfhg, pcp_fixture,
                                          pumping_grammar, mixed_letter_grammar):
    """The search against the reference on fixtures, and on generated
    unranked grammars under prefixes of two and three variables at bounds 1
    to 3, where it looks each assignment up among the derived tuples and
    never runs the span fixpoint.  At bound 3 the reference tries only the
    languages of at most max(1, m) words under ∃^m∀*, whose first member is
    the first of all (checked at bound 2 on generated grammars below), and
    a ∀∃ prefix runs on a one-symbol alphabet.  The cases include a miss at
    bound 3 and witnesses shorter than the bound."""
    # the ∃ cases with several member languages pin the mask order; the ∀*
    # cases try single words only (m = 0), and their first member is not
    # universe[0] or does not exist
    cases = [(robot_diagonal, 2), (tile_grammar_cfhg, 2),
             (pcp_encode_exists_forall(pcp_fixture), 1),
             (_exists_pair_grammar(), 2), (pumping_grammar, 2),
             (_forall_letter_pairs_grammar(), 2), (mixed_letter_grammar, 2)]
    for g, max_len in cases:
        assert bounded_nonempty_witness(g, max_len) == _reference_witness(g, max_len)

    fixpoints = []
    for module in (cfhg_module, cfg_module):
        def spy(*args, original=module.derives_span):
            fixpoints.append(args)
            return original(*args)
        monkeypatch.setattr(module, "derives_span", spy)
    rng = random.Random(29)
    kinds = dict.fromkeys(("miss at 3", "shorter than the bound"), 0)
    for quantifiers, symbols in (("AA", "ab"), ("EA", "ab"), ("AE", "ab"),
                                 ("AE", "a"), ("EAA", "ab"), ("AEE", "a")):
        v = tuple(f"x{i + 1}" for i in range(len(quantifiers)))
        prefix = QuantifierPrefix(tuple(zip(quantifiers, v)))
        most = None if "AE" in quantifiers else max(1, quantifiers.count("E"))
        for grammar in _unranked_grammars(rng, v, 3, symbols):
            g = Cfhg(frozenset(symbols), prefix, grammar)
            for max_len in (1, 2, 3) if most or len(symbols) == 1 else (1, 2):
                fixpoints.clear()
                got = bounded_nonempty_witness(g, max_len)
                assert fixpoints == [], (quantifiers, grammar.rules)
                assert got == _reference_witness(g, max_len, most), \
                    (quantifiers, max_len, grammar.rules)
                kinds["miss at 3"] += got is None and max_len == 3
                kinds["shorter than the bound"] += (got is not None
                                                    and max(map(len, got)) < max_len)
    assert min(kinds.values()) > 0, kinds


def _ranked_pad_grammars(rng, v, count):
    """Generated cleaned ranked grammars that hold the all-pad letter, which
    a ranked grammar derives only as a trailing block."""
    pad = letter(v, *"#" * len(v))
    grammars = []
    while len(grammars) < count:
        grammar = cleanup(_padded_grammar(rng, v))
        if pad in grammar.terminals() and is_ranked(grammar).ranked:
            grammars.append(grammar)
    return grammars


def test_derived_assignments_equal_sparse_leaf():
    """The derived tuples at bound 2 against the pad-anywhere leaf, on every
    assignment over Σ^{≤2}, for generated unranked grammars of one to three
    tracks with ε rules, all-pad letters and a variable that has no rule;
    and against the ranked leaf for generated ranked grammars with a
    trailing all-pad block."""
    rng, ranked_rng = random.Random(37), random.Random(59)
    short = [w for n in range(3) for w in itertools.product("ab", repeat=n)]
    verdicts = set()
    for k, count in ((1, 6), (2, 5), (3, 2)):
        v = tuple(f"x{i + 1}" for i in range(k))
        prefix = QuantifierPrefix(tuple(zip("A" * k, v)))
        for grammar in (_unranked_grammars(rng, v, count)
                        + _ranked_pad_grammars(ranked_rng, v, count)):
            g = Cfhg(frozenset({"a", "b"}), prefix, grammar)
            derived = cfhg_module.derived_assignments(g, 2)
            leaf = cfhg_module._membership_leaf(g, False)
            for assignment in itertools.product(short, repeat=k):
                got = assignment in derived[grammar.start]
                assert got == leaf(assignment), (grammar.rules, assignment)
                verdicts.add((g.ranked(), got))
    assert verdicts == {(False, True), (False, False), (True, True), (True, False)}


def _goal_directed_grammar(rng, v):
    """A random grammar over every letter of ``v`` with the paths of a
    goal-directed leaf: an ε rule on N, a unit cycle S -> T -> S, a
    left-recursive body S -> S L, a binary body led by the nullable N, and
    the all-pad letter."""
    pool = [letter(v, *c) for c in itertools.product("ab#", repeat=len(v))]
    symbols = pool + ["S", "T", "N"]
    rules = {("N", ()), ("S", ("T",)), ("T", ("S",)), ("S", ("S", rng.choice(pool))),
             ("S", ("N", rng.choice(symbols))), ("T", (letter(v, *"#" * len(v)), "T")),
             ("N", (rng.choice(pool),)), ("T", (rng.choice(pool),))}
    for _ in range(rng.randint(1, 3)):
        rules.add((rng.choice("STN"),
                   tuple(rng.choice(symbols) for _ in range(rng.randint(1, 3)))))
    return Cfg(frozenset({"S", "T", "N"}), "S", frozenset(rules), v)


def test_goal_directed_leaf_equals_derived_assignments():
    """The pad-anywhere leaf (``force_slow``) against the derived tuples at
    bound 2, an engine exact for any grammar, on every assignment over
    Σ^{≤2}, for generated unranked grammars of one to three tracks."""
    rng = random.Random(61)
    short = [w for n in range(3) for w in itertools.product("ab", repeat=n)]
    verdicts = set()
    for k, count in ((1, 12), (2, 10), (3, 4)):
        v = tuple(f"x{i + 1}" for i in range(k))
        prefix = QuantifierPrefix(tuple(zip("A" * k, v)))
        grammars = []
        while len(grammars) < count:
            grammar = _goal_directed_grammar(rng, v)
            if not is_ranked(grammar).ranked:
                grammars.append(grammar)
        for grammar in grammars:
            g = Cfhg(frozenset({"a", "b"}), prefix, grammar)
            derived = cfhg_module.derived_assignments(g, 2)["S"]
            leaf = cfhg_module._membership_leaf(g, True)
            for assignment in itertools.product(short, repeat=k):
                got = leaf(assignment)
                assert got == (assignment in derived), (grammar.rules, assignment)
                verdicts.add(got)
    assert verdicts == {True, False}


def _naive_derived_assignments(g, n):
    """The derivation as first written: every rule joined over whole sets,
    in place, until a pass adds nothing."""
    grammar = g.underlying
    sets = {v: set() for v in grammar.variables}
    pieces = {t: {tuple(() if s == "#" else (s,) for s in t)}
              for t in grammar.terminals()}
    size = -1
    while size < (size := sum(map(len, sets.values()))):
        for v, body in grammar.rules:
            combos = {((),) * len(g.vars)}
            for token in body:
                parts = sets[token] if grammar.is_variable(token) else pieces[token]
                combos = {t for c in combos for p in parts
                          for t in (tuple(a + b for a, b in zip(c, p)),)
                          if max(map(len, t), default=0) <= n}
            sets[v] |= combos
            if len(sets[v]) > cfhg_module.DERIVATION_CAP:
                raise CapExceeded(
                    f"witness-search: over {cfhg_module.DERIVATION_CAP} derived tuples")
    return sets


def _outcome(derive, *args):
    try:
        return derive(*args)
    except CapExceeded as exc:
        return str(exc)


def test_semi_naive_derivation_equals_naive(monkeypatch):
    """The semi-naive derivation against the naive fixpoint on generated
    unranked grammars of one to four tracks, with ε bodies and all-pad
    letters: at bounds 0-3, and, under a low cap, raising the same
    ``CapExceeded`` or none."""
    rng = random.Random(43)
    derive = cfhg_module.derived_assignments
    grammars = []
    for k, count in ((1, 6), (2, 6), (3, 4), (4, 3)):
        v = tuple(f"x{i + 1}" for i in range(k))
        prefix = QuantifierPrefix(tuple(zip("A" * k, v)))
        grammars += [Cfhg(frozenset({"a", "b"}), prefix, grammar)
                     for grammar in _unranked_grammars(rng, v, count)
                     + _unranked_grammars(rng, v, count, recursive=True)]
    for g in grammars:
        for n in range(4):
            expected = _naive_derived_assignments(g, n)
            assert derive(g, n) == expected, (n, g.underlying.rules)
    monkeypatch.setattr(cfhg_module, "DERIVATION_CAP", 6)
    refused = set()
    for g in grammars:
        got = _outcome(derive, g, 3)
        assert got == _outcome(_naive_derived_assignments, g, 3), g.underlying.rules
        refused.add(isinstance(got, str))
    assert refused == {True, False}


def test_ranked_shortcuts_read_a_trailing_all_pad_block():
    """A ranked grammar derives all-pad letters only as a trailing block,
    which pads every track alike: S -> [a,a][#,#] under ∀x∀y derives the
    tracks (a, a), so {a} is a member, and the ∃∃∀ search finds it
    at bound 1 on three tracks.  On generated ranked grammars that
    hold an all-pad letter, under ∀∀, ∃∀, ∃∃∀ and ∀∀∀, the ranked leaf
    agrees with the pad-anywhere leaf, the search with the reference on the
    pad-anywhere leaf, and ``cfhg_empty`` with the search and the diagonal."""
    v = ("x", "y")
    g = Cfhg(frozenset({"a"}), QuantifierPrefix.parse("A x A y"),
             Cfg({"S"}, "S", {("S", (letter(v, "a", "a"), letter(v, "#", "#")))}, v))
    assert g.ranked() and not cfhg_empty(g)
    assert finite_member(g, [("a",)]) and finite_member(g, [("a",)], force_slow=True)
    assert bounded_nonempty_witness(g, 1) == {("a",)}
    # the ∃∃∀ search bounds the tracks, not the trailing block
    v = ("x", "y", "z")
    g = Cfhg(frozenset({"a"}), QuantifierPrefix.parse("E x E y A z"),
             Cfg({"S"}, "S", {("S", (letter(v, *"aaa"), letter(v, *"###")))}, v))
    assert g.ranked() and bounded_nonempty_witness(g, 1) == {("a",)}
    rng = random.Random(41)
    short = [w for n in range(3) for w in itertools.product("ab", repeat=n)]
    members = 0
    for quantifiers in ("AA", "EA", "EEA", "AAA"):
        v = tuple(f"x{i + 1}" for i in range(len(quantifiers)))
        prefix = QuantifierPrefix(tuple(zip(quantifiers, v)))
        for grammar in _ranked_pad_grammars(rng, v, 5):
            g = Cfhg(frozenset({"a", "b"}), prefix, grammar)
            for _ in range(4):
                language = rng.sample(short, rng.randint(1, 2))
                assert finite_member(g, language) == \
                    finite_member(g, language, force_slow=True), (grammar.rules, language)
            witness = bounded_nonempty_witness(g, 2)
            most = max(1, quantifiers.count("E"))
            assert witness == _reference_witness(g, 2, most, True), grammar.rules
            if quantifiers == "EEA":
                continue
            empty = cfhg_empty(g)
            assert witness is None or not empty, grammar.rules
            if not empty:
                diagonal = diagonal_restriction(g)
                word = strip_hash(t[0] for t in _shortest_word(diagonal))
                assert finite_member(g, [word], force_slow=True), grammar.rules
                members += 1
    assert members


def test_unranked_witness_search_past_the_derivation_cap(monkeypatch):
    """Past ``cfg.DERIVATION_CAP`` tuples of a variable the derivation raises
    ``CapExceeded`` naming the witness search, and the search gives the same
    answer through the span fixpoint on each assignment, over the whole
    universe: a ∀∃ grammar with a member returns the reference's witness,
    and the walk tries {ε}, whose one word fills no ∀ position."""
    v = ("x1", "x2")
    # x1 starts with a and x2 with b: no (w, w) is derived, so ∀∀ has no member
    rules = {("V0", (letter(v, "a", "b"), "V1")), ("V1", ())}
    rules |= {("V1", (t, "V1")) for t in track_letters(v)}
    g = Cfhg(frozenset({"a", "b"}), QuantifierPrefix.parse("A x1 A x2"),
             Cfg({"V0", "V1"}, "V0", rules, v))
    assert not g.ranked()
    assert bounded_nonempty_witness(g, 2) is None
    monkeypatch.setattr(cfhg_module, "DERIVATION_CAP", 10)
    with pytest.raises(CapExceeded, match="witness-search"):
        cfhg_module.derived_assignments(g, 2)
    fixpoints = []

    def spy(*args, original=cfhg_module.derives_span):
        fixpoints.append(args)
        return original(*args)

    monkeypatch.setattr(cfhg_module, "derives_span", spy)
    assert bounded_nonempty_witness(g, 2) is None and fixpoints
    # x1 starts with a and x2 with b, or the other way round: {a, b} is a member
    rules.add(("V0", (letter(v, "b", "a"), "V1")))
    g = Cfhg(frozenset({"a", "b"}), QuantifierPrefix.parse("A x1 E x2"),
             Cfg({"V0", "V1"}, "V0", rules, v))
    assert not g.ranked()
    with pytest.raises(CapExceeded, match="witness-search"):
        cfhg_module.derived_assignments(g, 2)
    tried = []

    def evaluate_spy(quantifiers, words, leaf, original=cfhg_module.evaluate):
        tried.append(words)
        return original(quantifiers, words, leaf)

    monkeypatch.setattr(cfhg_module, "evaluate", evaluate_spy)
    fixpoints.clear()
    witness = bounded_nonempty_witness(g, 2)
    assert witness == _reference_witness(g, 2) == {("a",), ("b",)}
    assert fixpoints and tried[0] == ((),)


def _letter_set_grammar(rng, v):
    """A grammar deriving 2 to 8 random one-letter words over ``v``."""
    rules = {("V0", (t,)) for t in rng.sample(track_letters(v), rng.randint(2, 8))}
    return Cfg(frozenset({"V0"}), "V0", frozenset(rules), v)


def test_bounded_witness_equals_reference_on_generated_grammars():
    """Under every prefix of two and three variables, the witness search
    agrees with the all-subsets reference on seeded random grammars over
    {a, b} at length 2 (7 words).  The cases include ∃∃∀ grammars whose first
    member has exactly two words, so a size bound below m is caught, and
    prefixes with ∀ before ∃ whose first member has more words than ∃s, so a
    size bound there is caught too."""
    rng = random.Random(19)
    two_word_eea = more_words_than_exists = 0
    for quantifiers in ("EE", "EA", "AA", "AE", "EEA", "EAA", "EAE", "AAE"):
        v = tuple(f"x{i + 1}" for i in range(len(quantifiers)))
        prefix = QuantifierPrefix(tuple(zip(quantifiers, v)))
        for i in range(8):
            make = random_track_grammar if i % 2 else _letter_set_grammar
            g = Cfhg(frozenset({"a", "b"}), prefix, make(rng, v))
            expected = _reference_witness(g, 2)
            assert bounded_nonempty_witness(g, 2) == expected, (quantifiers, g)
            size = len(expected or ())
            two_word_eea += quantifiers == "EEA" and size == 2
            more_words_than_exists += ("AE" in quantifiers
                                       and size > quantifiers.count("E"))
    assert two_word_eea and more_words_than_exists


def _greatest_viable(g, max_len):
    """The viable words by their definition: from Σ^{≤max_len}, drop each
    word that fills some ∀ position of no derived tuple over the words
    kept, until none is dropped."""
    universe = [w for n in range(max_len + 1)
                for w in itertools.product(sorted(g.symbols), repeat=n)]
    derived = cfhg_module.derived_assignments(g, max_len)[g.underlying.start]
    foralls = [j for j, q in enumerate(g.prefix.quantifiers) if q == "A"]
    kept = set(universe)
    while True:
        filled = {(a[j], j) for a in itertools.product(kept, repeat=len(g.vars))
                  if a in derived for j in foralls}
        viable = {w for w in kept if all((w, j) in filled for j in foralls)}
        if viable == kept:
            return kept
        kept = viable


def test_pruned_witness_search_equals_unpruned(monkeypatch):
    """On generated unranked grammars, plain and recursive, under all 14
    prefixes of one to three variables over {a, b} at bound 2, and under ∀∃
    and ∀∃∃ over {a} at bound 3, the search pruned to viable words returns
    the unpruned reference's witness or miss.  Every language it walks
    lies inside the viable words, and a grammar with none walks none."""
    tried = []

    def spy(quantifiers, node, depth, words, original=core_module._trie_walk):
        if depth == 0:
            tried.append(words)
        return original(quantifiers, node, depth, words)

    monkeypatch.setattr(core_module, "_trie_walk", spy)
    rng = random.Random(47)
    cases = [("".join(q), "ab", 2)
             for k in (1, 2, 3) for q in itertools.product("EA", repeat=k)]
    cases += [("AE", "a", 3), ("AEE", "a", 3)]
    kinds = dict.fromkeys(("witness", "miss", "no viable word", "pruned"), 0)
    for quantifiers, symbols, max_len in cases:
        v = tuple(f"x{i + 1}" for i in range(len(quantifiers)))
        prefix = QuantifierPrefix(tuple(zip(quantifiers, v)))
        most = None if "AE" in quantifiers else max(1, quantifiers.count("E"))
        universe = bounded_universe(symbols, max_len, "test")
        for recursive in (False, True):
            for grammar in _unranked_grammars(rng, v, 2, symbols, recursive):
                g = Cfhg(frozenset(symbols), prefix, grammar)
                viable = _greatest_viable(g, max_len)
                tried.clear()
                got = bounded_nonempty_witness(g, max_len)
                assert all(viable.issuperset(words) for words in tried), grammar.rules
                assert viable or not tried, grammar.rules
                assert got == _reference_witness(g, max_len, most), \
                    (quantifiers, max_len, grammar.rules)
                kinds["witness" if got else "miss"] += 1
                kinds["no viable word"] += not viable
                kinds["pruned"] += 0 < len(viable) < len(universe)
    assert min(kinds.values()) > 0, kinds


def test_witness_search_tries_only_small_languages(monkeypatch, pcp_fixture):
    """On the ∃∃∀ criterion-9 encoding the search walks each set
    {x1, x2} of a tuple (x1, x2, x1) the grammar derives once, and no other
    language: none at length 1, the top words' sets at length 5 (no
    member).  The same grammar under ∀∃∃ walks every non-empty subset of
    its viable words of length at most 1 and no other, not all 127 subsets
    of the 7 words."""
    tried = []

    def spy(quantifiers, node, depth, words, original=core_module._trie_walk):
        if depth == 0:
            tried.append(words)
        return original(quantifiers, node, depth, words)

    monkeypatch.setattr(core_module, "_trie_walk", spy)
    g = pcp_encode_exists_forall(pcp_fixture)
    assert bounded_nonempty_witness(g, 1) is None
    assert tried == []
    assert bounded_nonempty_witness(g, 5) is None
    derived = set()
    for w in derive_bounded(g.underlying, 5):
        x1, x2, x3 = zip(*w)
        if x3 == x1:
            derived.add(frozenset({strip_hash(x1), strip_hash(x2)}))
    assert len(tried) == len(derived) > 0
    assert {frozenset(words) for words in tried} == derived
    tried.clear()
    forall_first = Cfhg(g.symbols, QuantifierPrefix.parse("A x1 E x2 E x3"),
                        g.underlying)
    assert bounded_nonempty_witness(forall_first, 1) is None
    viable = _greatest_viable(forall_first, 1)
    assert all(viable.issuperset(words) for words in tried)
    assert len(tried) == 2 ** len(viable) - 1 < 127


def _planted_ranked_grammar(rng, prefix, longest=2):
    """A grammar V0 -> t over synchronous tuples t of words of length at
    most ``longest`` over {a, b}: for one to three random ∃ choices x̄ (one
    word x̄ when there is no ∃), most of the tuples (x̄, f) for f mapping the
    ∀ variables into x̄, so set(x̄) is often a member."""
    v = prefix.variables
    m = prefix.quantifiers.count("E")
    words = [w for n in range(longest + 1) for w in itertools.product("ab", repeat=n)]
    rules = set()
    for _ in range(rng.randint(1, 3)):
        chosen = [rng.choice(words) for _ in range(max(1, m))]
        for f in itertools.product(chosen, repeat=len(v) - m):
            if rng.random() < 0.8:
                rules.add(("V0", pad_to_sync(dict(zip(v, chosen[:m] + list(f))), v)))
    return Cfg(frozenset({"V0"}), "V0", frozenset(rules), v)


def test_guided_witness_equals_reference_on_ranked_grammars(monkeypatch):
    """On ranked ∃∃∀ and ∃∃∀∀ grammars the search reads its candidates off
    the derived tuples and never builds the universe; it agrees with the
    all-subsets reference on random ranked grammars and on grammars planted
    with members, at lengths 1 and 2.  The cases include witnesses of two
    words, which the mask order of the candidates decides."""
    def no_universe(*args):
        raise AssertionError("the ∃^m∀* search built the universe")

    monkeypatch.setattr(cfhg_module, "bounded_universe", no_universe)
    rng = random.Random(23)
    witnesses = two_words = 0
    for quantifiers, max_len in (("EEA", 1), ("EEA", 2), ("EEAA", 1), ("EEAA", 2)):
        v = tuple(f"x{i + 1}" for i in range(len(quantifiers)))
        prefix = QuantifierPrefix(tuple(zip(quantifiers, v)))
        grammars = random_ranked_grammars(4, seed=max_len, var_names=v)
        while len(grammars) < 12:
            grammar = _planted_ranked_grammar(rng, prefix)
            if grammar.rules and is_ranked(grammar).ranked:
                grammars.append(grammar)
        for grammar in grammars:
            g = Cfhg(frozenset({"a", "b"}), prefix, grammar)
            expected = _reference_witness(g, max_len)
            assert bounded_nonempty_witness(g, max_len) == expected, (quantifiers, grammar)
            witnesses += expected is not None
            two_words += len(expected or ()) == 2
    assert witnesses >= 10 and two_words >= 5


def _mask_order_witness(g, max_len, most):
    """The first member among the subsets of at most ``most`` words of
    Σ^{≤max_len} in bit-mask order (a subset's universe indices compared
    greatest first), through one memoised ``finite_member`` leaf."""
    universe = [w for n in range(max_len + 1)
                for w in itertools.product(sorted(g.symbols), repeat=n)]
    leaf = functools.cache(cfhg_module._membership_leaf(g, False))
    subsets = [c for k in range(1, most + 1)
               for c in itertools.combinations(range(len(universe)), k)]
    for c in sorted(subsets, key=lambda c: c[::-1]):
        words = [universe[i] for i in c]
        if evaluate(g.prefix.quantifiers, words, leaf):
            return frozenset(words)
    return None


def test_witness_search_past_the_universe_cap(monkeypatch):
    """Under ∀∀, ∃∀ and ∃∃∀ at bound 5 over {a, b} (63 words, past
    ``core.UNIVERSE_CAP``), on generated ranked grammars planted with
    members of up to 5 letters, the search builds no universe and returns
    the witness or miss of the mask-order reference over the subsets of at
    most max(1, m) words.  So it does on generated unranked grammars under
    ∀∀ and ∃∀, where the reference tries the 63 single words (under ∃∃∀
    its pad-anywhere leaf would take seconds on 2,016 sets).  On a ranked
    grammar with a ``cfg.DERIVATION_CAP`` that its tuples pass but its
    tuples whose ∀ tracks copy the first track do not, the search still
    builds no universe and gives the same answer.  So it does at the real
    caps on ∃x∃y∀z over every letter of {a, b}³, whose 37,449 tuples pass
    ``cfg.DERIVATION_CAP``: {ε}, or {a} without the ε rule.  Under a cap
    of 0 a ranked ∃∃∀ grammar falls back to the universe and gives the
    same answer."""
    universe = cfhg_module.bounded_universe

    def no_universe(*args):
        raise AssertionError("the ∃^m∀* search built the universe")

    monkeypatch.setattr(cfhg_module, "bounded_universe", no_universe)
    rng = random.Random(53)
    kinds = dict.fromkeys(("ranked", "unranked", "miss", "two words", "past bound 3",
                           "restricted"), 0)
    for quantifiers in ("AA", "EA", "EEA"):
        v = tuple(f"x{i + 1}" for i in range(len(quantifiers)))
        prefix = QuantifierPrefix(tuple(zip(quantifiers, v)))
        most = max(1, quantifiers.count("E"))
        grammars = _unranked_grammars(rng, v, 2) if most == 1 else []
        while len(grammars) < 5:
            grammar = _planted_ranked_grammar(rng, prefix, 5)
            if grammar.rules and is_ranked(grammar).ranked:
                grammars.append(grammar)
        for grammar in grammars:
            g = Cfhg(frozenset({"a", "b"}), prefix, grammar)
            got = bounded_nonempty_witness(g, 5)
            assert got == _mask_order_witness(g, 5, most), (quantifiers, grammar.rules)
            kinds["ranked" if g.ranked() else "unranked"] += got is not None
            kinds["miss"] += got is None
            kinds["two words"] += len(got or ()) == 2
            kinds["past bound 3"] += max(map(len, got or [()])) > 3
            if quantifiers == "EEA" and got:
                planted = g, got
            derived = cfhg_module.derived_assignments(g, 5)[grammar.start]
            copies = {t for t in derived if all(w == t[0] for w in t[len(v) - 1:])}
            if g.ranked() and len(copies) < len(derived):
                with monkeypatch.context() as patch:
                    patch.setattr(cfhg_module, "DERIVATION_CAP", len(copies))
                    assert bounded_nonempty_witness(g, 5) == got, grammar.rules
                kinds["restricted"] += 1
    assert min(kinds.values()) > 0, kinds
    v = ("x", "y", "z")
    letters = [letter(v, *s) for s in itertools.product("ab", repeat=3)]
    for ends, first in (({()}, ()), ({(t,) for t in letters}, ("a",))):
        rules = {("S", (t, "S")) for t in letters} | {("S", end) for end in ends}
        g = Cfhg(frozenset({"a", "b"}), QuantifierPrefix.parse("E x E y A z"),
                 Cfg(frozenset({"S"}), "S", frozenset(rules), v))
        with pytest.raises(CapExceeded):
            cfhg_module.derived_assignments(g, 5)
        assert bounded_nonempty_witness(g, 5) == {first}
    g, got = planted
    built = []

    def spy(*args):
        built.append(args)
        return universe(*args)

    monkeypatch.setattr(cfhg_module, "bounded_universe", spy)
    monkeypatch.setattr(cfhg_module, "DERIVATION_CAP", 0)
    monkeypatch.setattr(core_module, "UNIVERSE_CAP", 63)
    assert bounded_nonempty_witness(g, 5) == got and built


def test_ranked_copies_drop_what_the_start_no_longer_reaches(monkeypatch):
    """Ranked ∃x∃y∀z over {a, b, c, d}: S -> ε | [x=a,y=a,z=b] T, where T
    derives every (w, w, w) over {c, d}, 16,383 tuples at bound 13, past
    ``cfg.DERIVATION_CAP``.  The copies drop S's T rule, so T is cut off
    from the start: cleaned away, it derives nothing, and the search answers
    {ε} with no universe (Σ^{≤13} holds 89,478,485 words)."""
    v = ("x", "y", "z")
    rules = {("S", ()), ("S", (letter(v, "a", "a", "b"), "T")), ("T", ())}
    rules |= {("T", (letter(v, s, s, s), "T")) for s in "cd"}
    g = Cfhg(frozenset("abcd"), QuantifierPrefix.parse("E x E y A z"),
             Cfg(frozenset({"S", "T"}), "S", frozenset(rules), v))
    assert g.ranked()
    with pytest.raises(CapExceeded):
        cfhg_module.derived_assignments(g, 13)

    def no_universe(*args):
        raise AssertionError("the ranked copies fell back to the universe")

    monkeypatch.setattr(cfhg_module, "bounded_universe", no_universe)
    assert bounded_nonempty_witness(g, 13) == {()}


def _planted_pcp(rng):
    """A random instance whose tiles cut one word two ways, so that the
    index sequence 1..m is a solution."""
    word = "".join(rng.choice("ab") for _ in range(rng.randint(3, 6)))
    pieces = rng.randint(2, min(3, len(word)))
    cuts = [sorted(rng.sample(range(1, len(word)), pieces - 1)) for _ in range(2)]
    top, bottom = ([word[i:j] for i, j in zip([0] + c, c + [len(word)])]
                   for c in cuts)
    return PcpInstance.of(*zip(top, bottom)), list(range(1, pieces + 1))


def _flip(rng, word):
    i = rng.randrange(len(word))
    return word[:i] + ({"a": "b", "b": "a"}.get(word[i], "a"),) + word[i + 1:]


def test_cyk_route_equals_slow_route():
    """On ranked grammars the synchronous padding is the only one derived, so
    the ranked leaf (the span fixpoint on the synchronous padding read as a
    chain) and the pad-anywhere leaf must give every verdict alike:
    random ranked two-track grammars under every two-variable prefix, on
    languages of derived tracks and short words, and the ∃∃∀ encodings
    (ranked by design) of planted PCP instances, on the solution language,
    its forward-order and one-letter-flipped variants.  Some leaves pad to a
    column that no rule has, which the ranked leaf rejects without the
    fixpoint, and a ranked ε grammar is checked on {ε}, a leaf with no
    columns."""
    rng = random.Random(5)
    short = [as_word("".join(p)) for n in range(3)
             for p in itertools.product("ab", repeat=n)]
    cases = []
    for grammar in random_ranked_grammars(10, seed=13):
        derived = {strip_hash(track) for w in derive_bounded(grammar, 4)
                   for track in zip(*w)}
        pool = sorted(derived | set(short))
        for q1, q2 in itertools.product("AE", repeat=2):
            g = Cfhg(frozenset({"a", "b"}),
                     QuantifierPrefix.parse(f"{q1} x1 {q2} x2"), grammar)
            cases += [(g, rng.sample(pool, rng.randint(1, 2))) for _ in range(4)]
    for _ in range(4):
        instance, solution = _planted_pcp(rng)
        g = pcp_encode_exists_forall(instance)
        word, cs = sorted(solution_language(instance, solution))
        forward = word[:len(word) - len(solution)] + tuple(map(str, solution))
        cases += [(g, [word, cs]), (g, [forward, cs]), (g, [_flip(rng, word), cs])]
    v = ("x1", "x2")
    eps = Cfg(frozenset({"S"}), "S", frozenset({("S", ()),
                                                ("S", (letter(v, "a", "b"), "S"))}), v)
    for q1, q2 in itertools.product("AE", repeat=2):
        g = Cfhg(frozenset({"a", "b"}), QuantifierPrefix.parse(f"{q1} x1 {q2} x2"), eps)
        cases += [(g, [()]), (g, [(), ("a",)])]
    verdicts = set()
    kinds = dict.fromkeys(("foreign column", "eps on {eps}"), 0)
    for g, language in cases:
        fast = finite_member(g, language)
        assert fast == finite_member(g, language, force_slow=True), \
            (g.underlying.rules, g.prefix.render(), language)
        verdicts.add(fast)
        letters = g.underlying.terminals()
        kinds["foreign column"] += g.ranked() and any(
            c not in letters for words in itertools.product(language, repeat=len(g.vars))
            for c in itertools.zip_longest(*words, fillvalue="#"))
        kinds["eps on {eps}"] += (language == [()] and g.ranked()
                                  and () in derive_bounded(g.underlying, 0))
    assert verdicts == {True, False}
    assert min(kinds.values()) > 0, kinds


def _product_leaf(g, assignment):
    """The pad-anywhere leaf as first written: the CNF grammar against the
    materialised product of one pad-anywhere word automaton per variable."""
    parts = [with_var(pad_anywhere(word_automaton(w, g.symbols)), v)
             for w, v in zip(assignment, g.vars)]
    return not cfg_intersect_empty(to_cnf(g.underlying), track_product(parts))


def test_sparse_leaf_equals_product_leaf():
    """The leaf of ``force_slow`` against the product it replaces, on ∀∀ and
    ∃∃∀ encodings of random PCP instances; each assignment mixes the tracks
    of derived words with random words."""
    rng = random.Random(17)
    verdicts = set()
    for _ in range(6):
        tiles = [tuple("".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
                       for _ in range(2))
                 for _ in range(rng.randint(2, 3))]
        instance = PcpInstance.of(*tiles)
        for g in (pcp_encode_forall(instance), pcp_encode_exists_forall(instance)):
            leaf = cfhg_module._membership_leaf(g, True)
            derived = [tuple(strip_hash(t) for t in zip(*w))
                       for w in sorted(derive_bounded(g.underlying, 5), key=len)]
            symbols = sorted(g.symbols)
            noise = [tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3)))
                     for _ in range(4)]
            assignments = derived[:4] + [
                tuple(rng.choice(noise + [d[i]]) for i in range(len(g.vars)))
                for d in derived[:4] for _ in range(2)]
            for assignment in assignments:
                got = leaf(assignment)
                assert got == _product_leaf(g, assignment), (tiles, assignment)
                verdicts.add(got)
    assert verdicts == {True, False}
