"""Text formats: parse/render round trips and error reporting."""

import itertools
import os
import random
import re
import subprocess
import sys

import pytest

import hyperlang
from hyperlang.cfhg import Cfhg
from hyperlang.core import QuantifierPrefix, as_word
from hyperlang.errors import ParseError
from hyperlang.formats import (parse_cfhg, parse_language, parse_nfa,
                               parse_nfh, parse_pcp, parse_track_letter,
                               rank_report, render_cfhg, render_language,
                               render_nfa, render_nfh)
from hyperlang.nfa import Dfa, nfa_member
from hyperlang.nfh import nfh_accepts
from hyperlang.pcp import (PcpInstance, pcp_encode_exists_forall,
                           pcp_encode_forall)
from hyperlang.realize import (prefix_closed_relation, realize_finite,
                               realize_prefix_closed_fast, realize_shortlex,
                               shortlex_successor)

from conftest import (random_prefix_closed_dfa, random_ranked_grammars,
                      random_track_grammar, words)

NFA_TEXT = """\
type: nfa
alphabet: a b
states: q0 q1
initial: q0
accepting: q1
trans: q0 a q1
trans: q1 b q1
"""

TRACK_NFA_TEXT = """\
#! a two-track automaton
type: nfa
alphabet: a
vars: x y
states: q0 q1
initial: q0
accepting: q1
trans: q0 [x=a,y=a] q0
trans: q0 [x=#,y=a] q1
"""

NFH_TEXT = "quantifiers: A x E y\n" + TRACK_NFA_TEXT

CFHG_TEXT = """\
quantifiers: A x
start: V0
rule: V0 -> [x=c] V0 [x=a]
rule: V0 -> [x=c] V1
rule: V1 -> [x=c] V1
rule: V1 -> [x=c]
"""


def test_parse_track_letter():
    t = parse_track_letter("[x=a,y=#]", ("x", "y"))
    assert t.symbols == ("a", "#")
    with pytest.raises(ParseError):
        parse_track_letter("x=a", ("x",))
    with pytest.raises(ParseError):
        parse_track_letter("[x=a]", ("x", "y"))


def test_parse_nfa_base():
    a = parse_nfa(NFA_TEXT)
    assert nfa_member(a, as_word("ab"))
    assert not nfa_member(a, as_word("b"))


def test_parse_nfa_track_and_comments():
    a = parse_nfa(TRACK_NFA_TEXT)
    assert a.vars == ("x", "y")
    assert len(a.transitions) == 2


def test_parse_nfa_errors():
    with pytest.raises(ParseError):
        parse_nfa("alphabet: a\n")
    with pytest.raises(ParseError):
        parse_nfa("type: dfa\nalphabet: a\nstates: q0 q1\ninitial: q0 q1\n"
                  "accepting: q0\n")
    with pytest.raises(ParseError, match="'acepting'"):
        parse_nfa(NFA_TEXT.replace("accepting:", "acepting:"))
    with pytest.raises(ParseError, match="pad symbol"):
        parse_nfa(NFA_TEXT.replace("alphabet: a b", "alphabet: a b #"))
    # a track automaton reads pads on its tracks, declared or not
    track = parse_nfa(TRACK_NFA_TEXT.replace("alphabet: a\n", "alphabet: a #\n"))
    assert track.transitions == parse_nfa(TRACK_NFA_TEXT).transitions


def test_nfa_round_trip():
    a = parse_nfa(NFA_TEXT)
    again = parse_nfa(render_nfa(a))
    for w in ("a", "ab", "abb", "b", ""):
        assert nfa_member(a, as_word(w)) == nfa_member(again, as_word(w))
    d = parse_nfa(NFA_TEXT.replace("type: nfa", "type: dfa"))
    assert isinstance(d, Dfa)
    assert isinstance(parse_nfa(render_nfa(d)), Dfa)


def test_render_nfa_deterministic():
    a = parse_nfa(TRACK_NFA_TEXT)
    assert render_nfa(a) == render_nfa(parse_nfa(render_nfa(a)))


def test_parse_nfh():
    n = parse_nfh(NFH_TEXT)
    assert n.prefix.render() == "A x E y"
    assert not nfh_accepts(n, words("a", "aa"))
    with pytest.raises(ParseError):
        parse_nfh(TRACK_NFA_TEXT)  # no quantifiers line


def test_nfh_round_trip():
    n = parse_nfh(NFH_TEXT)
    again = parse_nfh(render_nfh(n))
    assert again.prefix == n.prefix
    assert nfh_accepts(again, words("a", "aa")) == nfh_accepts(n, words("a", "aa"))


def test_parse_cfhg():
    g = parse_cfhg(CFHG_TEXT)
    assert g.prefix.render() == "A x"
    assert g.symbols == frozenset({"a", "c"})
    assert len(g.underlying.rules) == 4


def test_cfhg_round_trip(pcp_fixture):
    g = pcp_encode_forall(pcp_fixture)
    again = parse_cfhg(render_cfhg(g))
    assert again.underlying.rules == g.underlying.rules
    assert again.prefix == g.prefix
    assert render_cfhg(again) == render_cfhg(g)


def test_parse_cfhg_errors():
    with pytest.raises(ParseError):
        parse_cfhg("start: V0\nrule: V0 -> [x=a]\n")  # missing quantifiers
    with pytest.raises(ParseError):
        parse_cfhg("quantifiers: E x\nrule: V0 -> [x=a]\n")  # missing start
    # '#' pads a track; no word of a member language holds it
    with pytest.raises(ParseError, match="pad symbol '#' is not a letter"):
        parse_cfhg("quantifiers: E x\nalphabet: a #\nstart: V0\n"
                   "rule: V0 -> [x=a]\n")


def test_nfh_quantifier_line_may_come_last():
    n = parse_nfh(TRACK_NFA_TEXT + "quantifiers: A x E y\n")
    assert render_nfh(n) == render_nfh(parse_nfh(NFH_TEXT))


def test_repeated_field_takes_its_last_value():
    a = parse_nfa("type: nfa\n" + NFA_TEXT.replace("type: nfa", "type: dfa")
                  + "alphabet: a b c\n")
    assert isinstance(a, Dfa)
    assert a.symbols == {"a", "b", "c"}
    n = parse_nfh("quantifiers: E x E y\n" + NFH_TEXT)
    assert n.prefix.render() == "A x E y"
    g = parse_cfhg("start: V1\n" + CFHG_TEXT)
    assert g.underlying.start == "V0"


@pytest.mark.parametrize("parse,text,kind", [
    (parse_nfa, NFA_TEXT, "automaton"),
    (parse_nfh, NFH_TEXT, "automaton"),
    (parse_cfhg, CFHG_TEXT, "grammar"),
])
def test_reader_messages(parse, text, kind):
    """A line with no colon, and an unknown field, each with its message;
    the colon is checked on every line first."""
    with pytest.raises(ParseError) as err:
        parse(text + "bogus\n")
    assert str(err.value) == "expected 'key: value', got 'bogus'"
    with pytest.raises(ParseError) as err:
        parse("colour: red\n" + text)
    assert str(err.value) == f"unknown {kind} field 'colour'"
    with pytest.raises(ParseError) as err:
        parse("colour: red\n" + text + "bogus\n")
    assert str(err.value) == "expected 'key: value', got 'bogus'"


def test_nfh_malformed_line_before_bad_prefix():
    with pytest.raises(ParseError) as err:
        parse_nfh(NFH_TEXT.replace("A x E y", "A x Q y") + "bogus\n")
    assert str(err.value) == "expected 'key: value', got 'bogus'"


def test_bare_cfhg_terminal_is_named():
    for alphabet in ("", "alphabet: a c\n"):
        with pytest.raises(ParseError) as err:
            parse_cfhg(alphabet + CFHG_TEXT.replace("[x=a]", "a"))
        assert str(err.value) == "terminal 'a' is not a track letter over ('x',)"


def test_terminal_messages_are_seed_independent():
    """A grammar with several bad terminals names the same one under every
    hash seed: the first in repr order, not in set order."""
    grammars = {
        "quantifiers: A x\nstart: V0\nrule: V0 -> a V0\nrule: V0 -> b\n":
            "terminal 'a' is not a track letter over ('x',)",
        "quantifiers: A x\nalphabet: a\nstart: V0\nrule: V0 -> [x=c] V0\n"
        "rule: V0 -> [x=d]\nrule: V0 -> [x=e]\n": "symbol 'c' outside the alphabet",
    }
    script = ("import sys\nfrom hyperlang.formats import parse_cfhg\n"
              "for text in sys.argv[1:]:\n"
              "    try:\n        parse_cfhg(text)\n"
              "    except Exception as exc:\n        print(exc)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hyperlang.__file__)))
    procs = [subprocess.Popen([sys.executable, "-c", script, *grammars],
                              stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=src,
                                       PYTHONHASHSEED=str(seed)))
             for seed in range(6)]
    expected = "".join(f"{message}\n" for message in grammars.values())
    assert [p.communicate()[0] for p in procs] == [expected] * 6


def _round_trips(render, parse, obj):
    text = render(obj)
    return render(parse(text)) == text


def test_generated_round_trips():
    """render → parse → render gives the same bytes on seeded automata,
    NFHs and grammars."""
    rng = random.Random(5)
    dfas = [random_prefix_closed_dfa(rng, 5) for _ in range(12)]
    looped = [Dfa(d.symbols, d.states, d.start, d.accepting,
                  d.transitions | {(max(d.states), "a", max(d.states))})
              for d in dfas]
    automata = dfas + [shortlex_successor(d) for d in dfas + looped]
    automata += [prefix_closed_relation(d).relation for d in dfas[:4]]
    for a in automata:
        assert _round_trips(render_nfa, parse_nfa, a), a.transitions
    nfhs = [realize_shortlex(d) for d in dfas + looped]
    nfhs += [realize_prefix_closed_fast(d) for d in dfas + looped]
    nfhs += [realize_finite(words("", "ab", "b"), {"a", "b", "c"})]
    for n in nfhs:
        assert _round_trips(render_nfh, parse_nfh, n)
    prefix = QuantifierPrefix.parse("A x1 E x2")
    grammars = [random_track_grammar(rng) for _ in range(20)]
    grammars += random_ranked_grammars(10, seed=11)
    cfhgs = [Cfhg(frozenset("ab"), prefix, g) for g in grammars]
    for _ in range(6):
        tiles = tuple(tuple(as_word("".join(rng.choice("ab")
                                            for _ in range(rng.randint(1, 3))))
                            for _ in "tb")
                      for _ in range(rng.randint(1, 3)))
        instance = PcpInstance(tiles)
        cfhgs += [pcp_encode_forall(instance), pcp_encode_exists_forall(instance)]
    for g in cfhgs:
        assert _round_trips(render_cfhg, parse_cfhg, g)


def test_parse_language():
    assert parse_language("eps\nab\n") == [(), ("a", "b")]
    with pytest.raises(ParseError):
        parse_language("\n")
    # '#' pads a track; as a word symbol it would meet no letter of an NFH
    for text in ("a#\nb\n", "#\n"):
        with pytest.raises(ParseError, match="pad symbol"):
            parse_language(text)


def test_language_round_trip():
    text = render_language([(), ("a",), ("a", "b")])
    assert parse_language(text) == [(), ("a",), ("a", "b")]
    # words with a multi-character symbol are written as symbol tokens
    multi = [("a", "b1"), ("ab", "c"), ("ab", "c", "d"), ("b",), ("b", "c")]
    assert render_language(multi) == "a b1\nab c\nab c d\nb\nbc\n"
    assert parse_language(render_language(multi)) == multi
    # generated languages over one- and several-character symbols, e, p and
    # s among them, read back as their sorted distinct words; a word that no
    # line carries raises ValueError
    rng = random.Random(31)
    for symbols in ("eps", "abe", ("a", "ps", "eps", "e")):
        universe = [w for n in range(4) for w in itertools.product(symbols, repeat=n)]
        for _ in range(60):
            language = rng.choices(universe, k=rng.randint(1, 6))
            uncarried = sorted(w for w in language if len(w) == 1 and len(w[0]) > 1)
            if uncarried:  # the first one in sorted order is named
                with pytest.raises(ValueError, match=re.escape(repr(uncarried[0]))):
                    render_language(language)
            else:
                assert parse_language(render_language(language)) == \
                    sorted(set(language)), language
    assert parse_language(render_language([("e", "p", "s")])) == [("e", "p", "s")]
    with pytest.raises(ValueError, match=r"word \('ab',\)"):
        render_language([("ab",)])


def test_parse_pcp():
    inst = parse_pcp("a | baa\nab | aa\nab c | x1 \n")
    assert inst.tiles == ((("a",), ("b", "a", "a")), (("a", "b"), ("a", "a")),
                          (("ab", "c"), ("x", "1")))
    with pytest.raises(ParseError):
        parse_pcp("ab aa\n")
    with pytest.raises(ParseError):
        parse_pcp("")


def test_rank_report(pcp_fixture):
    report = rank_report(pcp_encode_forall(pcp_fixture))
    lines = report.splitlines()
    assert lines[0] == "vertex | L | R"
    assert any(line.startswith("V0 |") for line in lines)
    assert sum(1 for line in lines if line.startswith("violation:")) == 2
