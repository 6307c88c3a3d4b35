"""End-to-end CLI coverage: every verb and every verdict path."""

import gc
import json
import os
import subprocess
import sys
import time

import pytest

import hyperlang
import hyperlang.cfhg as cfhg_module
import hyperlang.cli as cli
import hyperlang.ranks as ranks_module
from hyperlang.cfhg import finite_member
from hyperlang.cli import run
from hyperlang.errors import UnknownLetter
from hyperlang.formats import parse_cfhg, parse_nfa, parse_nfh, render_nfh
from hyperlang.nfh import nfh_accepts
from hyperlang.realize import (OrderedLanguageSpec, realize_finite,
                               realize_ordered, realize_regular,
                               realize_shortlex, regular_relation)

from conftest import words

FIG1 = """\
quantifiers: A x E y
type: nfa
alphabet: a
vars: x y
states: u0 u1
initial: u0
accepting: u1
trans: u0 [x=a,y=a] u0
trans: u0 [x=#,y=a] u1
trans: u1 [x=#,y=a] u1
"""

ROBOT = """\
quantifiers: A x
start: V0
rule: V0 -> [x=c] V0 [x=a]
rule: V0 -> [x=c] V1
rule: V1 -> [x=c] V1
rule: V1 -> [x=c]
"""

PREFIX_CLOSED_DFA = """\
type: dfa
alphabet: a b
states: s0 s1 s2
initial: s0
accepting: s0 s1 s2
trans: s0 a s1
trans: s1 b s2
"""

TILES = "a | baa\nab | aa\nbba | bb\n"

EXISTS_A_NFH = """\
quantifiers: E x
type: nfa
alphabet: a b
vars: x
states: q0 q1
initial: q0
accepting: q1
trans: q0 [x=a] q1
"""

EXISTS_A_CFHG = """\
quantifiers: E x
alphabet: a b
start: V0
rule: V0 -> [x=a]
"""


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write, tmp_path


def test_nfh_member_false(files, capsys):
    write, _ = files
    code = run(["nfh", "member", write("f.nfh", FIG1),
                write("l.txt", "a\naa\n")])
    assert code == 1
    assert capsys.readouterr().out.strip() == "FALSE"


def test_nfh_member_json(files, capsys):
    write, _ = files
    code = run(["--json", "nfh", "member", write("f.nfh", FIG1),
                write("l.txt", "a\n")])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"schema": 1, "verdict": "FALSE"}


def test_nfh_probe(files, capsys):
    write, _ = files
    code = run(["nfh", "probe", write("f.nfh", FIG1), "--max-len", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "(none)"


def test_realize_finite_round_trip(files, capsys):
    write, tmp = files
    lang = write("l.txt", "ab\nba\n")
    out = str(tmp / "out.nfh")
    assert run(["realize", "finite", lang, "-o", out]) == 0
    capsys.readouterr()
    assert run(["nfh", "member", out, lang]) == 0
    assert capsys.readouterr().out.strip() == "TRUE"
    assert run(["nfh", "member", out, write("l2.txt", "ab\n")]) == 1


def test_realize_ordered(files, capsys):
    write, tmp = files
    succ = write("succ.nfa", """\
type: nfa
alphabet: a b
vars: x y
states: q0 q1
initial: q0
accepting: q1
trans: q0 [x=a,y=b] q1
trans: q0 [x=b,y=a] q1
""")
    out = str(tmp / "out.nfh")
    assert run(["realize", "ordered", "a", succ, "-o", out]) == 0
    capsys.readouterr()
    assert run(["nfh", "probe", out, "--max-len", "1"]) == 0
    assert capsys.readouterr().out.strip() == "{a,b}"
    # a relation that accepts nothing orders no language
    empty = write("empty.nfa", "type: nfa\nalphabet: a b\nvars: x y\n"
                               "states: q0 q1\ninitial: q0\n"
                               "trans: q0 [x=a,y=b] q1\n")
    os.remove(out)
    assert run(["realize", "ordered", "eps", empty, "-o", out]) == 64
    assert capsys.readouterr().err == "error: the successor relation is empty\n"
    assert not os.path.exists(out)


def test_realize_prefix_closed_routes(files, capsys):
    write, tmp = files
    dfa = write("d.dfa", PREFIX_CLOSED_DFA)
    for route in ("fast", "relation"):
        out = str(tmp / f"{route}.nfh")
        assert run(["realize", "prefix-closed", dfa, "--route", route,
                    "-o", out]) == 0
        capsys.readouterr()
        assert run(["nfh", "probe", out, "--max-len", "3"]) == 0
        assert capsys.readouterr().out.strip() == "{eps,a,ab}"


NOT_PREFIX_CLOSED_DFA = """\
type: dfa
alphabet: a b
states: s0 s1 s2 s3
initial: s0
accepting: s1 s3
trans: s0 a s3
trans: s0 b s1
trans: s1 a s0
trans: s1 b s3
trans: s2 b s2
trans: s3 a s1
"""


# determinized, its states are subsets: {s1 s2} -b-> {s3} is the violation
NOT_PREFIX_CLOSED_NFA = """\
type: nfa
alphabet: a b
states: s0 s1 s2 s3
initial: s0
accepting: s0 s3
trans: s0 a s1
trans: s0 a s2
trans: s1 b s3
trans: s2 b s3
"""


def test_not_prefix_closed_message_is_seed_independent(files):
    """The message names the same violating transition, by the same state
    names, under any hash seed."""
    write, tmp = files
    src = os.path.dirname(os.path.dirname(os.path.abspath(hyperlang.__file__)))
    for text, message in (
            (NOT_PREFIX_CLOSED_DFA, "reachable from non-accepting 's0'"),
            (NOT_PREFIX_CLOSED_NFA,
             "accepting state '{s3}' is reachable from non-accepting '{s1 s2}'")):
        dfa = write("d.dfa", text)
        outcomes = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            done = subprocess.run([sys.executable, "-m", "hyperlang.cli", "realize",
                                   "prefix-closed", dfa, "-o", str(tmp / "out.nfh")],
                                  capture_output=True, text=True, env=env)
            outcomes.append((done.returncode, done.stderr))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 64
        assert message in outcomes[0][1]


def test_realize_regular(files, capsys):
    write, tmp = files
    dfa = write("d.dfa", """\
type: dfa
alphabet: a b
states: s0 s1 s2
initial: s0
accepting: s2
trans: s0 a s1
trans: s1 b s2
""")
    out = str(tmp / "out.nfh")
    assert run(["realize", "regular", dfa, "-o", out]) == 0
    capsys.readouterr()
    assert run(["nfh", "probe", out, "--max-len", "2"]) == 0
    assert capsys.readouterr().out.strip() == "{ab}"


ACYCLIC_DFA = """\
type: dfa
alphabet: a b
states: s0 s1 s2
initial: s0
accepting: s1 s2
trans: s0 a s1
trans: s0 b s2
trans: s1 b s2
"""

A_PLUS_DFA = """\
type: dfa
alphabet: a
states: s0 s1
initial: s0
accepting: s1
trans: s0 a s1
trans: s1 a s1
"""

# 0-a->1, 1-b->2, 2-a->1, 0-b->0 accepting {1, 2}
ROADMAP_DFA = """\
type: dfa
alphabet: a b
states: 0 1 2
initial: 0
accepting: 1 2
trans: 0 a 1
trans: 0 b 0
trans: 1 b 2
trans: 2 a 1
"""


def test_realize_regular_routes(files, capsys):
    """``realize regular`` writes realize_shortlex's NFH: the ∃∀∃ chain on
    an infinite L, and realize_finite's bytes on the words of a finite L."""
    write, tmp = files
    written = {}
    for name, text in (("acyclic", ACYCLIC_DFA), ("a_plus", A_PLUS_DFA)):
        out = tmp / f"{name}.nfh"
        assert run(["realize", "regular", write(f"{name}.dfa", text),
                    "-o", str(out)]) == 0
        written[name] = out.read_text()
        assert written[name] == render_nfh(realize_shortlex(parse_nfa(text)))
    capsys.readouterr()
    assert written["acyclic"] == render_nfh(realize_finite(words("a", "ab", "b"),
                                                          {"a", "b"}))
    assert written["a_plus"].startswith("quantifiers: E x1 A x2 E x3\n")


def _all_words_dfa(n):
    """DFA text for (a|b)^n, whose 2^n words are its simple-path words."""
    lines = ["type: dfa", "alphabet: a b",
             "states: " + " ".join(str(i) for i in range(n + 1)),
             "initial: 0", f"accepting: {n}"]
    lines += [f"trans: {i} {s} {i + 1}" for i in range(n) for s in "ab"]
    return "\n".join(lines) + "\n"


def test_realize_regular_finite_refusals(files, capsys):
    """A finite L keeps the simple-path refusals: more than 32 words, and
    the empty language.  32 words realize with two variables."""
    write, tmp = files
    out = tmp / "out.nfh"
    assert run(["realize", "regular", write("six.dfa", _all_words_dfa(6)),
                "-o", str(out)]) == 2
    assert capsys.readouterr().err == \
        "cap exceeded: 64 simple-path words exceed the cap 32\n"
    empty = write("empty.dfa", "type: dfa\nalphabet: a b\nstates: s0 s1\n"
                               "initial: s0\naccepting: s1\ntrans: s1 a s0\n")
    assert run(["realize", "regular", empty, "-o", str(out)]) == 64
    assert capsys.readouterr().err == "error: the language is empty\n"
    assert not out.exists()
    # an NFA is determinized first, and its subset DFA accepts nothing too
    empty_nfa = write("empty.nfa", "type: nfa\nalphabet: a b\nstates: s0 s1\n"
                                   "initial: s0\ntrans: s0 a s1\n")
    for verb in (["regular"], ["prefix-closed", "--route", "fast"],
                 ["prefix-closed", "--route", "relation"]):
        assert run(["realize", *verb, empty_nfa, "-o", str(out)]) == 64
        assert capsys.readouterr().err == "error: the language is empty\n"
        assert not out.exists()
    assert run(["realize", "regular", write("five.dfa", _all_words_dfa(5)),
                "-o", str(out)]) == 0
    assert parse_nfh(out.read_text()).prefix.render() == "A x E y"


def test_realize_regular_on_the_roadmap_dfa(files):
    """The default caps build the pumping construction on this DFA, and
    ``realize regular`` realizes it too, with output that does not depend on
    the hash seed."""
    write, tmp = files
    dfa = write("d.dfa", ROADMAP_DFA)
    assert realize_regular(parse_nfa(ROADMAP_DFA)).prefix.render() == \
        "E x1 E x2 A z E y1 E y2 E y3 E y4"
    src = os.path.dirname(os.path.dirname(os.path.abspath(hyperlang.__file__)))
    outputs = []
    for seed in ("1", "2"):
        out = tmp / f"seed{seed}.nfh"
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-m", "hyperlang.cli", "realize",
                               "regular", dfa, "-o", str(out)],
                              capture_output=True, text=True, env=env)
        assert (done.returncode, done.stderr) == (0, "")
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("quantifiers: E x1 A x2 E x3\n")


TWO_TRACK_NFA = """\
type: nfa
alphabet: a b
vars: x y
states: q0 q1
initial: q0
accepting: q1
trans: q0 [x=a,y=b] q1
"""


def test_realize_rejects_the_wrong_automaton_kind(files, capsys):
    write, tmp = files
    out = str(tmp / "out.nfh")
    tracks = write("t.nfa", TWO_TRACK_NFA)
    one_track = write("one.nfa", EXISTS_A_NFH.replace("quantifiers: E x\n", ""))
    for argv, expected in (
            (["realize", "regular", tracks], "automaton over the base alphabet"),
            (["realize", "prefix-closed", tracks],
             "automaton over the base alphabet"),
            (["realize", "ordered", "a", one_track], "over variables (x, y)")):
        assert run(argv + ["-o", out]) == 64, argv
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and expected in err, (argv, err)
    assert not (tmp / "out.nfh").exists()


def test_cfhg_empty_true_path(files, capsys):
    write, _ = files
    assert run(["cfhg", "empty", write("g.cfhg", ROBOT)]) == 1
    assert capsys.readouterr().out.strip() == "FALSE"


def test_cfhg_empty_undecidable(files, capsys):
    write, tmp = files
    out = str(tmp / "g.cfhg")
    assert run(["pcp", "encode-forall", write("t.txt", TILES), "-o", out]) == 0
    capsys.readouterr()
    assert run(["cfhg", "empty", out]) == 2
    text = capsys.readouterr().out
    assert text.startswith("UNDECIDABLE(undecforall)")


def test_cfhg_empty_bounded_witness(files, capsys):
    write, tmp = files
    out = str(tmp / "g.cfhg")
    run(["pcp", "encode-ea", write("t.txt", TILES), "-o", out])
    capsys.readouterr()
    assert run(["cfhg", "empty", out, "--bounded", "1"]) == 2
    text = capsys.readouterr().out
    assert "UNDECIDABLE(emptinessexistsforall)" in text
    assert "no member language found" in text
    # the member of the solution 3,2,3,1, out of reach of any subset search
    assert run(["cfhg", "empty", out, "--bounded", "13"]) == 2
    assert capsys.readouterr().out.endswith(
        "witness: {bbaabbbaa1323,ccccccccccccc}\n")


def test_cap_errors_name_the_search(files, capsys):
    write, tmp = files
    assert run(["nfh", "probe", write("e.nfh", EXISTS_A_NFH), "--max-len", "5"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "cap exceeded: probe universe has 63 words; cap is 20\n"
    # a ∀∃ grammar over {a, b}: the search walks the viable words of Σ^{≤5}
    grammar = write("ae.cfhg", "quantifiers: A x E y\nstart: S\nrule: S -> [x=a,y=b]\n")
    assert run(["cfhg", "empty", grammar, "--bounded", "5"]) == 2
    assert capsys.readouterr().err == \
        "cap exceeded: witness-search universe has 63 words; cap is 20\n"
    # a ranked ∃∃∀ grammar over 6 symbols: past the derivation cap, for
    # it and its restriction, the search falls back to Σ^{≤30}
    grammar = str(tmp / "ea.cfhg")
    run(["pcp", "encode-ea", write("t2.txt", "ab | a\nb | bb\na | ba\n"), "-o", grammar])
    capsys.readouterr()
    assert run(["cfhg", "empty", grammar, "--bounded", "30"]) == 2
    assert capsys.readouterr().err == ("cap exceeded: witness-search universe has "
                                       f"{(6 ** 31 - 1) // 5} words; cap is 20\n")


def test_a_huge_bound_is_refused_at_once(files, capsys):
    """A bound of 10^6 is refused without counting its 2^(10^6) words."""
    write, _ = files
    grammar = write("ae.cfhg", "quantifiers: A x E y\nstart: S\nrule: S -> [x=a,y=b]\n")
    for argv, stage in ((["nfh", "probe", write("e.nfh", EXISTS_A_NFH), "--max-len"],
                         "probe"),
                        (["cfhg", "empty", grammar, "--bounded"], "witness-search")):
        started = time.perf_counter()
        assert run(argv + ["1000000"]) == 2
        assert time.perf_counter() - started < 1
        assert capsys.readouterr().err == (f"cap exceeded: {stage} universe has over "
                                           "2^1000000 words; cap is 20\n")
    # with no symbol the universe is {ε} at any bound, and is built at once
    grammar = write("pad.cfhg", "quantifiers: A x E y\nstart: S\nrule: S -> [x=#,y=#]\n")
    started = time.perf_counter()
    assert run(["cfhg", "empty", grammar, "--bounded", "1000000000"]) == 2
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().out.endswith("witness: {eps}\n")


def test_cfhg_member_finite(files, capsys):
    write, _ = files
    g = write("g.cfhg", ROBOT)
    assert run(["cfhg", "member-finite", g, write("l.txt", "ccca\n")]) == 0
    capsys.readouterr()
    assert run(["cfhg", "member-finite", g, write("l2.txt", "ca\n")]) == 1


def test_cfhg_member_regular_guard(files, capsys):
    write, _ = files
    nfa = write("a.nfa", """\
type: nfa
alphabet: a c
states: q0
initial: q0
accepting: q0
trans: q0 a q0
trans: q0 c q0
""")
    assert run(["cfhg", "member-regular", write("g.cfhg", ROBOT), nfa]) == 2
    assert "forallsyncundec" in capsys.readouterr().out


def test_cfhg_member_regular_refuses_a_track_automaton(files, capsys):
    write, _ = files
    nfa = write("t.nfa", EXISTS_A_NFH.replace("quantifiers: E x\n", ""))
    assert run(["cfhg", "member-regular", write("g.cfhg", EXISTS_A_CFHG), nfa]) == 64
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("usage error: expected an automaton over the base "
                       "alphabet (no 'vars:' line)\n")


@pytest.mark.parametrize("verb, text, code, message", [
    ("finite", "a#\nb\n", 65, "parse error: word 'a#' holds the pad symbol '#'"),
    ("regular", "type: dfa\nalphabet: a #\nstates: s0 s1\ninitial: s0\n"
                "accepting: s1\ntrans: s0 # s1\n", 65,
     "parse error: the pad symbol '#' is not a letter of a base automaton"),
    ("ordered", None, 64, "usage error: the first word holds the pad symbol '#'"),
], ids=["finite", "regular", "ordered"])
def test_realize_refuses_the_pad_symbol(files, capsys, verb, text, code, message):
    """'#' pads the tracks of an NFH, so no word of the input may use it."""
    write, tmp = files
    out = str(tmp / "out.nfh")
    if verb == "ordered":
        argv = ["realize", "ordered", "a#", write("s.nfa", TWO_TRACK_NFA)]
    else:
        argv = ["realize", verb, write("in.txt", text)]
    assert run(argv + ["-o", out]) == code
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp / "out.nfh").exists()


@pytest.mark.parametrize("argv, text, symbol", [
    (["realize", "finite"], "a,b\n", ","),
    (["realize", "finite"], "a[b\n", "["),
    (["realize", "regular"], "type: dfa\nalphabet: a a]\nstates: s0\ninitial: s0\n"
                             "accepting: s0\ntrans: s0 a s0\ntrans: s0 a] s0\n", "a]"),
    (["pcp", "encode-forall"], "a,b | a\n", ","),
], ids=["finite-comma", "finite-bracket", "regular-bracket", "encode-forall-comma"])
def test_writers_refuse_a_symbol_no_track_letter_carries(files, capsys, argv, text, symbol):
    """A symbol with '[', ']' or ',' would write a track letter that the
    parsers refuse: a usage error that names it, and no file."""
    write, tmp = files
    out = tmp / "out"
    for mode in ([], ["--json"]):
        assert run(mode + argv + [write("in.txt", text), "-o", str(out)]) == 64
        assert capsys.readouterr() == ("", f"usage error: no track letter can carry "
                                       f"the symbol {symbol!r}: '[', ']' and ',' "
                                       "delimit a letter's text\n")
        assert not out.exists()


def test_realize_ordered_refuses_a_first_word_outside_the_alphabet(files, capsys):
    """The written alphabet is the successor's: a FIRST symbol outside it
    would be a symbol of the file but not of the NFH built in memory."""
    write, tmp = files
    succ = write("s.nfa", TWO_TRACK_NFA)
    assert run(["realize", "ordered", "ac", succ, "-o", str(tmp / "out.nfh")]) == 64
    assert capsys.readouterr().err == ("usage error: symbol 'c' of the first word "
                                       "is outside the successor's alphabet\n")
    assert not (tmp / "out.nfh").exists()


def test_realize_ordered_reads_first_as_a_language_line(files, capsys):
    """FIRST is read as a line of a language file: spaced tokens are symbols
    of several characters, unspaced text one symbol per character."""
    write, tmp = files
    succ = write("s.nfa", "type: nfa\nalphabet: 10 2\nvars: x y\nstates: q0 q1\n"
                          "initial: q0\naccepting: q1\ntrans: q0 [x=10,y=2] q1\n"
                          "trans: q1 [x=2,y=10] q1\n")
    out = tmp / "out.nfh"
    for first, word in (("10 2", ("10", "2")), ("eps", ())):
        assert run(["realize", "ordered", first, succ, "-o", str(out)]) == 0
        spec = OrderedLanguageSpec(word, parse_nfa(open(succ).read()))
        assert out.read_text() == render_nfh(realize_ordered(spec))
    capsys.readouterr()
    # unspaced, "10" is the two symbols 1 and 0; a FIRST holding '#' is refused
    assert run(["realize", "ordered", "10", succ, "-o", str(out)]) == 64
    assert capsys.readouterr().err == ("usage error: symbol '0' of the first word "
                                       "is outside the successor's alphabet\n")
    assert run(["realize", "ordered", "10 #", succ, "-o", str(out)]) == 64
    assert capsys.readouterr().err == ("usage error: the first word holds the pad "
                                       "symbol '#'\n")
    succ = write("ab.nfa", TWO_TRACK_NFA)
    assert run(["realize", "ordered", "ab", succ, "-o", str(out)]) == 0
    spec = OrderedLanguageSpec(("a", "b"), parse_nfa(TWO_TRACK_NFA))
    assert out.read_text() == render_nfh(realize_ordered(spec))


def test_cfhg_refuses_the_pad_symbol(files, capsys):
    """'#' in a grammar's alphabet is a parse error; the witness search would
    otherwise count words holding it against the universe cap."""
    write, _ = files
    grammar = ("quantifiers: A x A y E z\nalphabet: a{}\nstart: S\n"
               "rule: S -> [x=a,y=a,z=a]\n")
    assert run(["cfhg", "empty", write("pad.cfhg", grammar.format(" #")),
                "--bounded", "4"]) == 65
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("parse error: the pad symbol '#' is not a letter of a "
                       "hypergrammar's alphabet\n")
    assert run(["cfhg", "empty", write("a.cfhg", grammar.format("")),
                "--bounded", "4"]) == 2
    assert "witness: {a}" in capsys.readouterr().out


def test_cfhg_empty_bounded_computes_ranks_once(files, capsys, monkeypatch):
    """An unranked ∀∀ grammar is checked for ranks once: the emptiness route
    and the witness search share the verdict."""
    write, tmp = files
    grammar = str(tmp / "aa.cfhg")
    run(["pcp", "encode-forall", write("t.txt", TILES), "-o", grammar])
    capsys.readouterr()
    calls = []

    def spy(g, original=ranks_module.compute_ranks):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(ranks_module, "compute_ranks", spy)
    assert run(["cfhg", "empty", grammar, "--bounded", "1"]) == 2
    assert capsys.readouterr().out.startswith("UNDECIDABLE(undecforall)")
    assert len(calls) == 1


def test_cfhg_ranks_and_is_ranked(files, capsys):
    write, tmp = files
    out = str(tmp / "g.cfhg")
    run(["pcp", "encode-forall", write("t.txt", TILES), "-o", out])
    capsys.readouterr()
    assert run(["cfhg", "ranks", out]) == 0
    report = capsys.readouterr().out
    assert report.startswith("vertex | L | R")
    assert "violation:" in report
    assert run(["cfhg", "is-ranked", out]) == 1
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "FALSE"
    assert run(["cfhg", "is-ranked", write("g2.cfhg", ROBOT)]) == 0


TILES_RANKS = """\
vertex | L | R
V0 | {} | {x1,x2}
[x1=a,x2=a] [x1=b,x2=a] | {} | {}
[x1=a,x2=a] [x1=b,x2=a] V0 | {} | {x1,x2}
[x1=a,x2=b] [x1=#,x2=a] [x1=#,x2=a] | {} | {x1}
[x1=a,x2=b] [x1=#,x2=a] [x1=#,x2=a] V0 | {} | {x1,x2}
[x1=b,x2=b] [x1=b,x2=b] [x1=a,x2=#] | {} | {x2}
[x1=b,x2=b] [x1=b,x2=b] [x1=a,x2=#] V0 | {} | {x1,x2}
violation: V0 -> [x1=a,x2=b] [x1=#,x2=a] [x1=#,x2=a] V0 @ position 2
violation: V0 -> [x1=b,x2=b] [x1=b,x2=b] [x1=a,x2=#] V0 @ position 2
"""

TILES_IS_RANKED = """\
FALSE
violation: V0 -> [x1=a,x2=b] [x1=#,x2=a] [x1=#,x2=a] V0 @ position 2: R={x1} ⊄ L={}
violation: V0 -> [x1=b,x2=b] [x1=b,x2=b] [x1=a,x2=#] V0 @ position 2: R={x2} ⊄ L={}
"""


def test_rank_violations_golden(files, capsys):
    """Full stdout of ``ranks`` and ``is-ranked`` on the encode-forall tiles
    grammar, which has two violating rules."""
    write, tmp = files
    out = str(tmp / "g.cfhg")
    run(["pcp", "encode-forall", write("t.txt", TILES), "-o", out])
    capsys.readouterr()
    assert run(["cfhg", "ranks", out]) == 0
    assert capsys.readouterr().out == TILES_RANKS
    assert run(["cfhg", "is-ranked", out]) == 1
    assert capsys.readouterr().out == TILES_IS_RANKED
    assert run(["--json", "cfhg", "is-ranked", out]) == 1
    assert json.loads(capsys.readouterr().out)["violations"] == \
        TILES_IS_RANKED.splitlines()[1:]


def test_usage_and_parse_errors(files, capsys):
    write, tmp = files
    assert run(["bogus"]) == 64
    assert run(["nfh", "member", "no-such-file", "also-missing"]) == 64
    bad = write("bad.nfh", "quantifiers: A x\ntype: nfa\n")
    assert run(["nfh", "probe", bad, "--max-len", "1"]) == 65
    typo = write("typo.dfa", PREFIX_CLOSED_DFA.replace("accepting:", "acepting:"))
    capsys.readouterr()
    assert run(["realize", "regular", typo, "-o", str(tmp / "o.nfh")]) == 65
    assert "unknown automaton field 'acepting'" in capsys.readouterr().err
    nfh, grammar = write("f.nfh", FIG1), str(tmp / "aa.cfhg")
    run(["pcp", "encode-forall", write("t.txt", TILES), "-o", grammar])
    capsys.readouterr()
    for argv in (["nfh", "probe", nfh, "--max-len", "-1"],
                 ["cfhg", "empty", grammar, "--bounded", "-1"]):
        assert run(argv) == 64
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "usage error: a length bound must be at least 0\n"


@pytest.mark.parametrize("argv, text, message", [
    (["nfh", "member"], FIG1.replace("A x E y", "A x E"),
     "bad quantifier prefix 'A x E'"),
    (["nfh", "member"], EXISTS_A_NFH.replace("[x=a] q1", "[x=a]"),
     "bad transition line 'q0 [x=a]'"),
    (["nfh", "member"], EXISTS_A_NFH.replace("[x=a] q1", "[x=a] q9"),
     "transition (q0,('a',),q9) uses undeclared state"),
    (["nfh", "member"], EXISTS_A_NFH.replace("vars: x\n", "").replace("[x=a]", "a"),
     "an NFH underlying automaton needs a 'vars:' line"),
    (["nfh", "member"], FIG1.replace("A x E y", "A y E x"),
     "quantifier prefix must cover the underlying variables ('x', 'y') in order"),
    (["realize", "regular"], PREFIX_CLOSED_DFA + "trans: s0 a s2\n",
     "nondeterministic moves from s0 on a"),
    (["cfhg", "member-finite"], EXISTS_A_CFHG.replace("V0 -> [x=a]", "V0 [x=a]"),
     "bad rule line 'V0 [x=a]'"),
    (["cfhg", "member-finite"], EXISTS_A_CFHG.replace("a b", "a").replace("x=a", "x=b"),
     "symbol 'b' outside the alphabet"),
], ids=["quantifier-prefix", "transition-line", "undeclared-state", "no-vars",
        "prefix-order", "dfa-nondeterministic", "rule-line", "grammar-symbol"])
def test_parse_errors_name_the_fault(files, capsys, argv, text, message):
    """A file that does not parse: exit 65, the parser's message and no output."""
    write, tmp = files
    rest = [write("l.txt", "a\n")] if argv[0] != "realize" else ["-o", str(tmp / "o")]
    for mode in ([], ["--json"]):
        assert run(mode + argv + [write("in.txt", text)] + rest) == 65
        assert capsys.readouterr() == ("", f"parse error: {message}\n")


def _verb_calls(write, tmp):
    """A valid argv after GROUP VERB, for every verb."""
    nfh, lang = write("f.nfh", FIG1), write("l.txt", "a\n")
    dfa, tiles = write("d.dfa", PREFIX_CLOSED_DFA), write("t.txt", TILES)
    grammar, succ = write("e.cfhg", EXISTS_A_CFHG), write("s.nfa", TWO_TRACK_NFA)
    out = ["-o", str(tmp / "out")]
    return {
        ("nfh", "member"): [nfh, lang],
        ("nfh", "probe"): [nfh, "--max-len", "1"],
        ("realize", "finite"): [lang, *out],
        ("realize", "ordered"): ["eps", succ, *out],
        ("realize", "prefix-closed"): [dfa, "--route", "relation", *out],
        ("realize", "regular"): [dfa, *out],
        ("cfhg", "empty"): [grammar, "--bounded", "1"],
        ("cfhg", "member-finite"): [grammar, lang],
        ("cfhg", "member-regular"): [grammar, dfa],
        ("cfhg", "ranks"): [grammar],
        ("cfhg", "is-ranked"): [grammar],
        ("pcp", "encode-forall"): [tiles, *out],
        ("pcp", "encode-ea"): [tiles, *out],
    }


def _outcome(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:  # -h prints the help and exits
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verb_parser_route_matches_the_full_parser(files, capsys, monkeypatch):
    """``[--json] GROUP VERB ...`` goes through the verb's own parser; the
    full parser gives the same exit code, stdout and stderr on it, usage
    errors and help included."""
    write, tmp = files
    calls = _verb_calls(write, tmp)
    assert set(calls) == set(cli._VERBS)
    bad = {"--max-len": ["x", "-1"], "--bounded": ["x", "-1"], "--route": ["slow"]}
    argvs = []
    for (group, verb), tail in calls.items():
        tails = [tail, [], [*tail, "--bogus"], [*tail, "--json"], ["-h"],
                 [*tail, "-o"] if "-o" in tail else tail[:1]]
        tails += [[*tail[:tail.index(option) + 1], value]
                  for option, values in bad.items() if option in tail
                  for value in values]
        argvs += [[*json_flag, group, verb, *rest]
                  for json_flag in ([], ["--json"]) for rest in tails]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_PARSER", None)  # every argv takes the verb's parser
        fast = [_outcome(argv, capsys) for argv in argvs]
        namespaces = [vars(cli._parse([group, verb, *tail]))
                      for (group, verb), tail in calls.items()]
    monkeypatch.setattr(cli, "_VERBS", {})
    for argv, got in zip(argvs, fast):
        assert got == _outcome(argv, capsys), argv
    assert namespaces == [vars(cli._parse([group, verb, *tail]))
                          for (group, verb), tail in calls.items()]
    assert {code for code, _, _ in fast} >= {0, 64, ("SystemExit", 0)}


def test_deterministic_output(files, capsys):
    write, tmp = files
    tiles = write("t.txt", TILES)
    out1, out2 = str(tmp / "a.cfhg"), str(tmp / "b.cfhg")
    run(["pcp", "encode-forall", tiles, "-o", out1])
    run(["pcp", "encode-forall", tiles, "-o", out2])
    capsys.readouterr()
    assert (tmp / "a.cfhg").read_text() == (tmp / "b.cfhg").read_text()


def test_output_is_overwritten_in_place(files, capsys):
    """``-o`` writes over an existing file and cuts it to the new length: a
    longer or a shorter old file ends up holding a fresh run's bytes."""
    write, tmp = files
    lang = write("l.txt", "eps\na\nab\n")
    fresh = tmp / "fresh.nfh"
    assert run(["realize", "finite", lang, "-o", str(fresh)]) == 0
    expected = fresh.read_bytes()
    for name, old in (("longer.nfh", expected + b"x" * 4096), ("shorter.nfh", b"q\n")):
        out = tmp / name
        out.write_bytes(old)
        assert run(["realize", "finite", lang, "-o", str(out)]) == 0
        assert out.read_bytes() == expected, name
    # a device is written but not truncated, which it would refuse
    assert run(["realize", "finite", lang, "-o", os.devnull]) == 0
    assert capsys.readouterr().err == ""


def test_output_mode_and_write_errors(files, capsys):
    """A created output gets the mode ``open(path, "w")`` gives it, under the
    umask; an output that cannot be opened is a usage error."""
    write, tmp = files
    lang = write("l.txt", "a\n")
    umask = os.umask(0o002)
    try:
        assert run(["realize", "finite", lang, "-o", str(tmp / "made.nfh")]) == 0
        with open(tmp / "plain.nfh", "w"):
            pass
    finally:
        os.umask(umask)
    assert (tmp / "made.nfh").stat().st_mode == (tmp / "plain.nfh").stat().st_mode
    capsys.readouterr()
    for out in (tmp, tmp / "no-such-dir" / "o.nfh"):
        assert run(["realize", "finite", lang, "-o", str(out)]) == 64
        assert capsys.readouterr().err.startswith(f"usage error: cannot write {out}: ")


def test_input_that_is_not_utf8_is_a_parse_error(files, capsys):
    write, tmp = files
    bad = tmp / "bad.nfh"
    bad.write_bytes(b"\xff\xfe")
    for argv in (["nfh", "member", str(bad), write("a.lang", "a\n")],
                 ["realize", "finite", str(bad), "-o", str(tmp / "o.nfh")]):
        assert run(argv) == 65, argv
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {bad} is not UTF-8 text: "), err


def test_realize_finite_on_multi_character_symbols(files, capsys):
    """A language line with spaces lists symbol tokens: no space becomes a
    symbol, and the written NFH parses and accepts the language."""
    write, tmp = files
    lang, out = write("l.txt", "a b c\nab c\n"), str(tmp / "o.nfh")
    assert run(["realize", "finite", lang, "-o", out]) == 0
    assert parse_nfh((tmp / "o.nfh").read_text()).symbols == \
        frozenset({"a", "ab", "b", "c"})
    capsys.readouterr()
    assert run(["nfh", "member", out, lang]) == 0
    assert run(["nfh", "probe", out, "--max-len", "1"]) == 0


def test_out_of_alphabet_word_is_unknown_letter(files, capsys):
    # the ∃ tree could stop at 'a' before it reaches 'z': the verdict must not
    # depend on the order of the words
    write, _ = files
    n, g = parse_nfh(EXISTS_A_NFH), parse_cfhg(EXISTS_A_CFHG)
    for language in (words("a", "z"), words("b", "z")):
        with pytest.raises(UnknownLetter):
            nfh_accepts(n, language)
        with pytest.raises(UnknownLetter):
            finite_member(g, language)
    lang = write("l.txt", "a\nz\n")
    for argv in (["nfh", "member", write("e.nfh", EXISTS_A_NFH), lang],
                 ["cfhg", "member-finite", write("e.cfhg", EXISTS_A_CFHG), lang]):
        assert run(["--json", *argv]) == 64
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error:")



def _fresh_runs(argvs):
    """(exit code, stdout, stderr) of each distinct argv, each in a new
    interpreter; the interpreters run side by side."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hyperlang.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    distinct = list(dict.fromkeys(map(tuple, argvs)))
    procs = [subprocess.Popen([sys.executable, "-m", "hyperlang.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env)
             for argv in distinct]
    return {argv: (p.wait(), *p.communicate()) for argv, p in zip(distinct, procs)}


def test_cli_calls_share_no_state(files, capsys):
    """One process running a sequence of calls prints, call by call, what a
    new process prints for that call alone: no option value, output mode or
    error carries over from an earlier call."""
    write, tmp = files
    grammar = str(tmp / "ea.cfhg")
    run(["pcp", "encode-ea", write("t.txt", TILES), "-o", grammar])
    nfh, lang = write("f.nfh", FIG1), write("l.txt", "a\n")
    dfa = write("d.dfa", PREFIX_CLOSED_DFA)
    capsys.readouterr()
    sequence = [
        ["cfhg", "empty", grammar, "--bounded", "1"],
        ["cfhg", "empty", grammar, "--bounded", "x"],
        ["cfhg", "empty", grammar, "--json"],
        ["cfhg", "empty", grammar],
        ["--json", "nfh", "member", nfh, lang],
        ["nfh", "member", nfh, lang],
        ["realize", "prefix-closed", dfa, "--route", "relation",
         "-o", str(tmp / "relation.nfh")],
        ["realize", "prefix-closed", dfa, "-o", str(tmp / "fast.nfh")],
        ["nfh", "probe", nfh],
        ["nfh", "member", nfh, lang],
    ]
    in_process = []
    for argv in sequence:
        code = run(argv)
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    assert in_process[0][1].count("\n") == 2  # verdict and witness lines
    assert [code for code, _, _ in in_process[1:3]] == [64, 64]
    assert in_process[3][1].count("\n") == 1  # the verdict alone
    assert in_process[8][0] == 64
    written = {name: (tmp / name).read_text()
               for name in ("relation.nfh", "fast.nfh")}
    fresh = _fresh_runs(sequence)
    for argv, got in zip(sequence, in_process):
        assert got == fresh[tuple(argv)], argv
    for name, text in written.items():
        assert (tmp / name).read_text() == text, name


# unranked: ∀∀ finds no member at bound 2, ∀∃ finds {a, b}
AA_UNRANKED = ("quantifiers: A x A y\nstart: S\nrule: S -> [x=a,y=b] T\n"
               "rule: T -> eps\nrule: T -> [x=a,y=#] T\nrule: T -> [x=#,y=b] T\n")
AE_UNRANKED = ("quantifiers: A x E y\nstart: S\nrule: S -> [x=a,y=b]\n"
               "rule: S -> [x=b,y=#] [x=#,y=#] [x=#,y=a]\n"
               "rule: S -> [x=b,y=b] [x=b,y=#] S\n")


def test_queries_leave_nothing_for_the_cyclic_collector(files, capsys, monkeypatch):
    """Every verb and route frees what it built by reference counting: with
    the collector off, ``gc.collect()`` finds nothing unreachable after each
    call, a refusal, an error or an undecidable verdict included."""
    write, tmp = files
    tiles, out = write("t.txt", TILES), ["-o", str(tmp / "out")]
    forall, ea = str(tmp / "aa.cfhg"), str(tmp / "ea.cfhg")
    run(["pcp", "encode-forall", tiles, "-o", forall])
    run(["pcp", "encode-ea", tiles, "-o", ea])
    nfh, robot = write("f.nfh", FIG1), write("r.cfhg", ROBOT)
    dfa, a_plus = write("d.dfa", PREFIX_CLOSED_DFA), write("a.dfa", A_PLUS_DFA)
    aa, ae = write("aa2.cfhg", AA_UNRANKED), write("ae.cfhg", AE_UNRANKED)
    ab = write("ab.txt", "a\nb\n")
    calls = [
        ["cfhg", "member-finite", robot, write("c.txt", "ccca\n")],
        ["cfhg", "member-finite", forall, ab],
        ["cfhg", "empty", ea, "--bounded", "2"],
        ["cfhg", "empty", aa, "--bounded", "2"],
        ["--json", "cfhg", "empty", ae, "--bounded", "2"],
        ["cfhg", "empty", robot],
        ["cfhg", "member-regular", write("e.cfhg", EXISTS_A_CFHG), dfa],
        ["cfhg", "ranks", forall],
        ["cfhg", "is-ranked", forall],
        ["nfh", "member", nfh, write("l.txt", "a\naa\n")],
        ["nfh", "probe", nfh, "--max-len", "2"],
        ["realize", "finite", ab, *out],
        ["realize", "ordered", "a", write("s.nfa", TWO_TRACK_NFA), *out],
        ["realize", "prefix-closed", dfa, *out],
        ["realize", "prefix-closed", dfa, "--route", "relation", *out],
        ["realize", "regular", a_plus, *out],
        ["realize", "regular", dfa, *out],
        ["pcp", "encode-forall", tiles, *out],
        ["pcp", "encode-ea", tiles, *out],
        ["nfh", "member", "no-such-file", ab],  # usage error
        ["bogus"],
        ["nfh", "probe", write("bad.nfh", "quantifiers: A x\ntype: nfa\n"),
         "--max-len", "1"],  # parse error
        ["nfh", "probe", nfh, "--max-len", "20"],  # the universe cap
        ["realize", "regular", write("six.dfa", _all_words_dfa(6)), *out],  # path cap
        ["cfhg", "empty", forall],  # undecidable
        ["cfhg", "member-regular", robot, dfa],  # undecidable, raised
    ]
    codes = []
    gc.collect()
    gc.disable()
    try:
        for argv in calls:
            codes.append(run(argv))
            assert gc.collect() == 0, argv
        for build in (regular_relation, realize_regular):
            build(parse_nfa(A_PLUS_DFA))
            assert gc.collect() == 0, build
        # past the derivation cap, the unranked search falls back to the span fixpoint
        monkeypatch.setattr(cfhg_module, "DERIVATION_CAP", 2)
        codes.append(run(["cfhg", "empty", aa, "--bounded", "2"]))
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()
    assert set(codes) == {0, 1, 2, 64, 65}
