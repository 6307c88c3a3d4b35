"""Hypergrammar decision procedures and undecidability routing."""

import itertools
import random

import pytest

import hyperlang.cfhg as cfhg_module
from hyperlang.cfg import (Cfg, cfg_empty, cfg_intersect_empty, cyk_member,
                           derive_bounded, to_cnf)
from hyperlang.cfhg import (Cfhg, bounded_nonempty_witness, cfhg_empty,
                            diagonal_restriction, exists_empty,
                            exists_regular_member, finite_member,
                            regular_member, sync_forall_empty)
from hyperlang.core import (HWord, QuantifierPrefix, as_word, pad_to_sync,
                            strip_hash, tracks_of)
from hyperlang.errors import (EmptyLanguage, NotRanked, Undecidable,
                              WrongPrefix)
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
    g = Cfg(frozenset({"V0"}), "V0", frozenset({("V0", (letter(v, "a", "b"),))}))
    return Cfhg(frozenset({"a", "b"}), QuantifierPrefix.parse("E x1 E x2"), g)


def test_exists_empty():
    g = _exists_pair_grammar()
    assert not exists_empty(g)
    dead = Cfhg(frozenset({"a"}), QuantifierPrefix.parse("E x"),
                Cfg(frozenset({"V0"}), "V0",
                    frozenset({("V0", (letter(("x",), "a"), "V0"))})))
    assert exists_empty(dead)


def test_exists_empty_single_forall(g1_forall):
    # one ∀ quantifier reduces to plain grammar emptiness
    assert exists_empty(g1_forall) == cfg_empty(g1_forall.underlying)
    assert not exists_empty(g1_forall)


def test_exists_empty_wrong_prefix(robot_diagonal):
    with pytest.raises(WrongPrefix):
        exists_empty(robot_diagonal)


def test_exists_regular_member():
    g = _exists_pair_grammar()
    ab = Nfa({"a", "b"}, {"0", "1"}, {"0"}, {"1"},
             {("0", "a", "1"), ("0", "b", "1")})
    assert exists_regular_member(g, ab)
    c_only = word_automaton(as_word("c"))
    assert not exists_regular_member(
        Cfhg(g.symbols | {"c"}, g.prefix, g.underlying), c_only)


def test_exists_regular_member_single_var():
    v = ("x",)
    g = Cfhg(frozenset({"a", "b"}), QuantifierPrefix.parse("E x"),
             Cfg(frozenset({"V0"}), "V0",
                 frozenset({("V0", (letter(v, "a"), "V0", letter(v, "b"))),
                            ("V0", (letter(v, "a"), letter(v, "b")))})))
    astar_bstar = Nfa({"a", "b"}, {"p", "q"}, {"p"}, {"p", "q"},
                      {("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")})
    assert exists_regular_member(g, astar_bstar)
    only_a = Nfa({"a", "b"}, {"p"}, {"p"}, {"p"}, {("p", "a", "p")})
    assert not exists_regular_member(g, only_a)


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


def test_diagonal_restriction(robot_diagonal, mixed_letter_grammar):
    diag = diagonal_restriction(robot_diagonal)
    derived = {"".join(t.symbols[0] for t in w) for w in derive_bounded(diag, 4)}
    assert derived == {"cc", "ccc", "ccca", "cccc"}
    assert cfg_empty(diagonal_restriction(mixed_letter_grammar))


def test_sync_forall_empty(robot_diagonal, mixed_letter_grammar):
    assert not sync_forall_empty(robot_diagonal)
    assert sync_forall_empty(mixed_letter_grammar)


def test_sync_forall_empty_exists_forall(robot_diagonal, mixed_letter_grammar):
    ea = Cfhg(robot_diagonal.symbols, QuantifierPrefix.parse("E x1 A x2"),
              robot_diagonal.underlying)
    assert not sync_forall_empty(ea)
    ea_mixed = Cfhg(mixed_letter_grammar.symbols,
                    QuantifierPrefix.parse("E x1 A x2"),
                    mixed_letter_grammar.underlying)
    assert sync_forall_empty(ea_mixed)


def test_sync_forall_empty_guards(tile_grammar_cfhg, robot_diagonal):
    with pytest.raises(NotRanked):
        sync_forall_empty(tile_grammar_cfhg)
    bad_prefix = Cfhg(robot_diagonal.symbols,
                      QuantifierPrefix.parse("A x1 E x2"),
                      robot_diagonal.underlying)
    with pytest.raises(WrongPrefix):
        sync_forall_empty(bad_prefix)


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


def _route_grammar(prefix, ranked):
    """A one-rule grammar over the prefix's variables; the unranked variant
    pads x in front of a letter on x."""
    prefix = QuantifierPrefix.parse(prefix)
    v = prefix.variables
    body = (letter(v, *"a" * len(v)),)
    if not ranked:
        body = (letter(v, "#", *"a" * (len(v) - 1)),) + body
    return Cfhg(frozenset({"a"}), prefix,
                Cfg(frozenset({"V0"}), "V0", frozenset({("V0", body)})))


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
    """The procedure cfhg_empty dispatches to, or the reason it refuses."""
    routes = []
    for name, route in (("exists_empty", "exists"), ("sync_forall_empty", "sync")):
        def spy(g, original=getattr(cfhg_module, name), route=route):
            routes.append(route)
            return original(g)
        monkeypatch.setattr(cfhg_module, name, spy)
    g = _route_grammar(prefix, ranked)
    assert is_ranked(g.underlying).ranked == ranked
    try:
        cfhg_empty(g)
        got = routes
    except Undecidable as exc:
        got = [exc.reason]
    assert got == [expected]


def _reference_witness(g, max_len):
    """The search as first defined: finite_member on every non-empty subset of
    the shortest-first, sorted-symbol universe, in bit-mask order."""
    universe = [w for n in range(max_len + 1)
                for w in itertools.product(sorted(g.symbols), repeat=n)]
    for mask in range(1, 1 << len(universe)):
        language = [w for i, w in enumerate(universe) if mask >> i & 1]
        if finite_member(g, language):
            return frozenset(language)
    return None


def _forall_letter_pairs_grammar():
    """∀x1∀x2 grammar deriving every one-letter pair over {a, b}: its member
    languages are {a}, {b} and {a, b}."""
    v = ("x1", "x2")
    rules = {("V0", (letter(v, s, t),)) for s in "ab" for t in "ab"}
    return Cfhg(frozenset({"a", "b"}), QuantifierPrefix.parse("A x1 A x2"),
                Cfg(frozenset({"V0"}), "V0", frozenset(rules)))


def test_bounded_witness_equals_reference(robot_diagonal, tile_grammar_cfhg,
                                          pcp_fixture, pumping_grammar,
                                          mixed_letter_grammar):
    # the ∃ cases with several member languages pin the mask order; the ∀*
    # cases try single words only (m = 0), and their first member is not
    # universe[0] or does not exist
    cases = [(robot_diagonal, 2), (tile_grammar_cfhg, 2),
             (pcp_encode_exists_forall(pcp_fixture), 1),
             (_exists_pair_grammar(), 2), (pumping_grammar, 2),
             (_forall_letter_pairs_grammar(), 2), (mixed_letter_grammar, 2)]
    for g, max_len in cases:
        assert bounded_nonempty_witness(g, max_len) == _reference_witness(g, max_len)


def _letter_set_grammar(rng, v):
    """A grammar deriving 2 to 8 random one-letter words over ``v``."""
    rules = {("V0", (t,)) for t in rng.sample(track_letters(v), rng.randint(2, 8))}
    return Cfg(frozenset({"V0"}), "V0", frozenset(rules))


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


def test_witness_search_tries_only_small_languages(monkeypatch, pcp_fixture):
    """On the ∃∃∀ criterion-9 encoding at length 1 (7 words, no member) only
    the 28 languages of at most two words are evaluated; the same grammar
    under ∀∃∃ still walks all 127 non-empty subsets."""
    tried = []

    def spy(quantifiers, words, leaf, original=cfhg_module.evaluate):
        tried.append(words)
        return original(quantifiers, words, leaf)

    monkeypatch.setattr(cfhg_module, "evaluate", spy)
    g = pcp_encode_exists_forall(pcp_fixture)
    assert bounded_nonempty_witness(g, 1) is None
    assert len(tried) <= 28 and max(map(len, tried)) == 2
    tried.clear()
    forall_first = Cfhg(g.symbols, QuantifierPrefix.parse("A x1 E x2 E x3"),
                        g.underlying)
    assert bounded_nonempty_witness(forall_first, 1) is None
    assert len(tried) == 127


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
    the CYK leaf and the pad-anywhere leaf must give every verdict alike:
    random ranked two-track grammars under every two-variable prefix, on
    languages of derived tracks and short words, and the ∃∃∀ encodings
    (ranked by design) of planted PCP instances, on the solution language,
    its forward-order and one-letter-flipped variants."""
    rng = random.Random(5)
    short = [as_word("".join(p)) for n in range(3)
             for p in itertools.product("ab", repeat=n)]
    cases = []
    for grammar in random_ranked_grammars(10, seed=13):
        derived = {strip_hash(track) for w in derive_bounded(grammar, 4)
                   for track in tracks_of(HWord(("x1", "x2"), w)).values()}
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
    verdicts = set()
    for g, language in cases:
        fast = finite_member(g, language)
        assert fast == finite_member(g, language, force_slow=True), \
            (g.underlying.rules, g.prefix.render(), language)
        verdicts.add(fast)
    assert verdicts == {True, False}


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
            derived = [tuple(strip_hash(t) for t in tracks_of(HWord(g.vars, w)).values())
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
