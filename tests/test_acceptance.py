"""Acceptance gate: one test per criterion, plus companion tests.

Three criteria were first written down with published values that the
fixture grammars do not derive.  Each test asserts the value the fixture
derives and backs it with a route independent of the one under test; the
published values and the reasons they differ are:

  * criterion 5: the published L(V0) = {x1}, R(V0) = {} of the a^n b^n
    pumping grammar are swapped.  V0 -> V1 V2 starts with V1, which never
    pads, and ends with V2, which always ends in [#,b]; so L(V0) = {} and
    R(V0) = {x1}, as the first and last letters of the derived words show;
  * criterion 8: the published member "cca" is not derived.  The battery
    grammar derives c^j a^m only for j >= m+2, so its shortest action word
    is "ccca";
  * criterion 9: the published solution word ends in the indices in
    forward order, "bbaabbbaa3231".  The index letters attach on the right
    in reverse application order (V1 -> chunk V1 idx), so the member for
    the solution 3,2,3,1 ends in "1323".
"""

import itertools
import random
import time

from hyperlang.cfg import (Cfg, bar_hillel, cfg_empty, cleanup, cyk_member,
                           derive_bounded, to_cnf)
from hyperlang.cfhg import bounded_nonempty_witness, cfhg_empty, finite_member
from hyperlang.cli import run
from hyperlang.core import as_word, is_synchronous, pad_to_sync
from hyperlang.nfa import (Dfa, Nfa, compose_free, compose_sync, determinize,
                           difference, nfa_language, nfa_member, with_var,
                           word_automaton)
from hyperlang.nfh import nfh_accepts, nfh_hyperlanguage_probe
from hyperlang.pcp import (pcp_encode_exists_forall, pcp_encode_forall,
                           solution_language)
from hyperlang.ranks import compute_ranks, is_ranked
from hyperlang.realize import (prefix_closed_relation, realize_finite,
                               realize_partially_ordered,
                               realize_prefix_closed_fast, regular_relation,
                               relation_pairs)

from conftest import (letter, pad_vars, random_base_grammar,
                      random_prefix_closed_dfa, random_ranked_grammars, tile_grammar,
                      words)


def probe_strings(n, max_len):
    return {frozenset("".join(w) for w in language)
            for language in nfh_hyperlanguage_probe(n, max_len)}


def derived_boundary_pads(g, variable, max_len=7):
    """Ranks of a variable read off the words it derives up to ``max_len``:
    the tracks padded by the first letter of every word (left), and by the
    last letter of some word (right)."""
    derived = derive_bounded(Cfg(g.variables, variable, g.rules, g.vars), max_len)
    assert derived and () not in derived
    left = frozenset.intersection(*(pad_vars(g.vars, w[0]) for w in derived))
    right = frozenset().union(*(pad_vars(g.vars, w[-1]) for w in derived))
    return left, right


def test_criterion_01_infinite_languages_reject_all_finite(fig1_nfh):
    universe = [("a",) * i for i in range(5)]
    for size in range(1, len(universe) + 1):
        for subset in itertools.combinations(universe, size):
            assert not nfh_accepts(fig1_nfh, list(subset)), subset


def test_criterion_02_finite_realizability_exact():
    for language in ({"ab", "ba"}, {"a"}, {"", "a"}, {"a", "b", "ab"}):
        n = realize_finite(language)
        assert probe_strings(n, 3) == {frozenset(language)}, language


def test_criterion_03_prefix_closed_routes_agree():
    d = Dfa({"a", "b"}, {"0", "1", "2"}, "0", {"0", "1", "2"},
            {("0", "a", "1"), ("1", "b", "2")})
    expected = {frozenset({"", "a", "ab"})}
    assert probe_strings(realize_prefix_closed_fast(d), 3) == expected
    assert probe_strings(
        realize_partially_ordered(prefix_closed_relation(d)), 3) == expected
    rng = random.Random(17)
    for _ in range(5):
        dfa = random_prefix_closed_dfa(rng)
        fast = nfh_hyperlanguage_probe(realize_prefix_closed_fast(dfa), 3)
        slow = nfh_hyperlanguage_probe(
            realize_partially_ordered(prefix_closed_relation(dfa)), 3)
        assert fast == slow


def test_criterion_04_regular_relation_desk_scale():
    d = Dfa({"a"}, {"0", "1"}, "0", {"1"}, {("0", "a", "1"), ("1", "a", "1")})
    spec = regular_relation(d)
    pairs = {("".join(u), "".join(v))
             for u, v in relation_pairs(spec.relation, 4)}
    pumping = {("a", "aa"), ("aa", "aaa"), ("aaa", "aaaa")}
    reflexive = {("a" * i, "a" * i) for i in range(1, 5)}
    assert pairs == pumping | reflexive
    reached = {"".join(w) for w in spec.minimal_words}
    changed = True
    while changed:
        changed = False
        for u, v in pairs:
            if u in reached and v not in reached:
                reached.add(v)
                changed = True
    assert {"a" * i for i in range(1, 5)} <= reached


def test_criterion_05_rank_tables_verbatim(pumping_grammar):
    v = ("x1", "x2")
    table = compute_ranks(tile_grammar())
    t1 = (letter(v, "a", "b"), letter(v, "#", "a"), letter(v, "#", "a"))
    t2 = (letter(v, "a", "a"), letter(v, "b", "a"))
    t3 = (letter(v, "b", "b"), letter(v, "b", "b"), letter(v, "a", "#"))
    assert table.left[t1] == table.left[t2] == table.left[t3] == frozenset()
    assert table.right[t1] == frozenset({"x1"})
    assert table.right[t3] == frozenset({"x2"})
    assert table.right[t2] == frozenset()
    assert table.right["V0"] == frozenset({"x1", "x2"})
    assert table.left["V0"] == frozenset()
    pumped = compute_ranks(pumping_grammar.underlying)
    assert pumped.left["V2"] == pumped.right["V2"] == frozenset({"x1"})
    assert pumped.left["V1"] == pumped.right["V1"] == frozenset()
    # the published table swaps these two (see the module docstring)
    assert pumped.left["V0"] == frozenset()
    assert pumped.right["V0"] == frozenset({"x1"})
    for g, ranks in ((tile_grammar(), table),
                     (pumping_grammar.underlying, pumped)):
        for variable in g.variables:
            assert derived_boundary_pads(g, variable) == \
                (ranks.left[variable], ranks.right[variable]), variable


def test_criterion_05_companion_mechanical_v0_ranks(pumping_grammar):
    pumped = compute_ranks(pumping_grammar.underlying)
    assert pumped.left["V0"] == frozenset()
    assert pumped.right["V0"] == frozenset({"x1"})


def test_criterion_06_ranked_verdicts(pumping_grammar, pcp_fixture):
    verdict = is_ranked(tile_grammar())
    assert not verdict.ranked
    v = ("x1", "x2")
    t1 = (letter(v, "a", "b"), letter(v, "#", "a"), letter(v, "#", "a"))
    assert ("V0", t1 + ("V0",)) in {rule for rule, _, _, _ in verdict.violations}
    assert is_ranked(pumping_grammar.underlying).ranked
    assert pcp_encode_exists_forall(pcp_fixture).ranked()
    assert not pcp_encode_forall(pcp_fixture).ranked()


def test_criterion_07_ranked_implies_synchronous(pumping_grammar):
    grammars = [pumping_grammar.underlying] + random_ranked_grammars(20)
    for g in grammars:
        for w in derive_bounded(g, 6):
            if w:
                assert is_synchronous(w), (g.rules, w)


def test_criterion_08_finite_membership(g1_forall, tile_grammar_cfhg):
    started = time.monotonic()
    assert not finite_member(g1_forall, words("ca"))
    assert finite_member(tile_grammar_cfhg, words("bbaabbbaa"))
    assert not finite_member(tile_grammar_cfhg, words("ab"))
    # the shortest action word is "ccca", not the published "cca"
    for force_slow in (False, True):
        assert finite_member(g1_forall, words("ccca"), force_slow=force_slow)
        assert not finite_member(g1_forall, words("cca"),
                                 force_slow=force_slow)
    assert time.monotonic() - started < 10


def test_criterion_08_companion_shortest_action_word(g1_forall):
    assert not finite_member(g1_forall, words("cca"))
    assert finite_member(g1_forall, words("ccca"))
    enumerated = {"".join(t[0] for t in w)
                  for w in derive_bounded(g1_forall.underlying, 4)}
    assert enumerated == {"cc", "ccc", "ccca", "cccc"}


def test_criterion_09_exists_forall_gadget(pcp_fixture):
    g = pcp_encode_exists_forall(pcp_fixture)
    member = solution_language(pcp_fixture, [3, 2, 3, 1])
    # the indices follow the word reversed, not in the published forward order
    assert member == {tuple("bbaabbbaa1323"), tuple("c" * 13)}
    forward = {tuple("bbaabbbaa3231"), tuple("c" * 13)}
    for force_slow in (False, True):
        assert finite_member(g, member, force_slow=force_slow)
        assert not finite_member(g, forward, force_slow=force_slow)
    # the grammar is ranked, so the witness search reaches the member's length
    assert bounded_nonempty_witness(g, 13) == member


def test_criterion_09_companion_reversed_indices(pcp_fixture):
    g = pcp_encode_exists_forall(pcp_fixture)
    assert finite_member(g, {tuple("bbaabbbaa1323"), tuple("c" * 13)})
    assert not finite_member(g, {tuple("bbaabbbaa3231"), tuple("c" * 13)})


def test_criterion_10_sync_forall_emptiness(robot_diagonal,
                                            mixed_letter_grammar):
    assert not cfhg_empty(robot_diagonal)
    from hyperlang.cfhg import diagonal_restriction
    cnf = to_cnf(diagonal_restriction(robot_diagonal))
    witness = pad_to_sync({"x1": as_word("ccca"), "x2": as_word("ccca")})
    assert cyk_member(cnf, witness)
    assert cfhg_empty(mixed_letter_grammar)


def test_criterion_11_oracle_suites(anbn):
    rng = random.Random(23)
    corpus = [anbn, tile_grammar()]
    for g in corpus + [cleanup(random_base_grammar(rng)) for _ in range(20)]:
        before = derive_bounded(g, 5)
        assert derive_bounded(cleanup(g), 5) == before
        if not cfg_empty(g):
            assert derive_bounded(to_cnf(g), 5) == before
    a1 = word_automaton(as_word("a"), symbols={"a", "b"})
    a2 = word_automaton(as_word("ab"))
    free = compose_free(with_var(a1, "x"), with_var(a2, "y"))
    universe = {"".join(p) for n in range(4) for p in itertools.product("ab", repeat=n)}
    for w1, w2 in itertools.product(universe, repeat=2):
        if not w1 and not w2:
            continue
        h = pad_to_sync({"x": as_word(w1), "y": as_word(w2)})
        assert nfa_member(free, h) == (w1 == "a" and w2 == "ab")
    sync = compose_sync(a1, a2, track_vars=("x", "y"))
    for w in universe:
        if not w:
            continue
        h = pad_to_sync({"x": as_word(w), "y": as_word(w)})
        assert not nfa_member(sync, h) or w in ({"a"} & {"ab"})
    sigma_star = Nfa({"a", "b"}, {"q"}, {"q"}, {"q"},
                     {("q", "a", "q"), ("q", "b", "q")})
    for _ in range(10):
        states = [f"q{i}" for i in range(rng.randint(1, 4))]
        delta = {(rng.choice(states), s, rng.choice(states))
                 for s in "ab" for _ in range(rng.randint(0, 3))}
        accepting = {q for q in states if rng.random() < 0.5}
        a = Nfa({"a", "b"}, states, {states[0]}, accepting, delta)
        lang = {"".join(w) for w in nfa_language(a, 4)}
        assert {"".join(w) for w in nfa_language(determinize(a), 4)} == lang
        comp = difference(sigma_star, determinize(a))
        assert {"".join(w) for w in nfa_language(comp, 3)} == \
            {w for w in universe if w not in lang}
    got = bar_hillel(to_cnf(anbn),
                     Nfa({"a", "b"}, {"p", "q"}, {"p"}, {"p"},
                         {("p", "a", "q"), ("q", "b", "p")}))
    assert {"".join(w) for w in derive_bounded(got, 6)} == {"ab"}


def test_criterion_12_undecidability_guardrails(tmp_path, capsys, pcp_fixture):
    from hyperlang.formats import render_cfhg
    non_ranked = tmp_path / "aa.cfhg"
    non_ranked.write_text(render_cfhg(pcp_encode_forall(pcp_fixture)))
    assert run(["cfhg", "empty", str(non_ranked)]) == 2
    assert "undecforall" in capsys.readouterr().out
    nfa_file = tmp_path / "any.nfa"
    nfa_file.write_text("type: nfa\nalphabet: a b\nstates: q0\ninitial: q0\n"
                        "accepting: q0\ntrans: q0 a q0\ntrans: q0 b q0\n")
    assert run(["cfhg", "member-regular", str(non_ranked), str(nfa_file)]) == 2
    assert "forallsyncundec" in capsys.readouterr().out
