"""Sweep of the hyperlang CLI: one line per call, for byte-for-byte comparison.

    python3 tools/cli_sweep.py --src src --seeds 1 2 3 > sweep.txt

Each line is ``<call id> exit=<code> out=<sha256> err=<sha256> file=<sha256>``:
the exit code and the SHA-256 of stdout, of stderr and of the file the call
wrote (``-`` when it wrote none).  A ``realize`` call's file is read back as
an NFH and a ``pcp`` call's as a CFHG, by the package's own parser; the line
of a call whose file does not parse ends in `` unreadable``.  Two checkouts
give the same output
when the CLI behaves the same on every call, so running the sweep with
``--src`` pointed at each and ``diff``-ing the outputs shows every call whose
output changed; running it twice under different ``PYTHONHASHSEED`` values
shows output that depends on set order.

The calls: every query of the three benchmark workloads (``perfbench/gen.py``)
for each seed, in text and ``--json``; on every workload grammar ``cfhg
empty``, ``ranks`` and ``is-ranked``; on every workload NFH ``nfh probe``;
on every realize DFA both ``realize prefix-closed`` routes and ``realize
regular``; and, on fixed inputs below, the verbs no workload runs and the
ranked membership leaf on criterion 9's 13-letter words, on {ε} and on a
language whose synchronous padding holds a column that no rule has; the
witness search on unranked ∀∀ and ∀∃ misses and a ∀∃ grammar, on
criterion 9's ∀∀ gadget at bound 9, a ranked ∃∃∀ grammar and an unranked
∀∃∃∃ grammar past the derivation cap (``eea-derivation-cap``,
``aeee-derivation-cap``), a ranked ∃∃∀ grammar whose restriction to
copied ∀ tracks cuts a variable past the cap off from the start
(``eea-copies-unreachable``), an unranked ∃∃∀ grammar with a variable
past the cap that the start does not reach (``eea-unreachable-cap``), and
a ranked grammar with a trailing all-pad letter; the
pad-anywhere membership leaf on an unranked ∀∀ grammar with an ε rule, a
unit cycle and an all-pad letter (``aa-unit-cycle-member``); an NFH
whose quantifier line comes last, one whose automaton pads a track inside
a word and reads an all-pad letter inside a word, an ∃∀∃ NFH, ordered
languages from a non-empty FIRST word, through a successor that ends in an
all-pad letter, and from a FIRST word outside the alphabet, a grammar
with a bare terminal, a finite L whose DFA holds a dead region with
many simple paths, and the relation route on prefix-closed DFAs with three
extensions at one state over three letters and four over four
(``pc4-relation``, which builds five successor products); symbols of
several characters, where a letter's text and the ``repr`` of its symbol
tuple sort apart: ``pcp encode-ea`` on 11 tiles (index symbols ``10`` and
``11``) with ``cfhg ranks`` and ``is-ranked`` on that encoding, and
``realize regular`` and ``realize prefix-closed --route relation`` on DFAs
over ``a ab`` and over ``1 10``, ``pcp encode-forall``, ``cfhg ranks`` and
``is-ranked`` on rules that differ only in ``1`` and ``10`` on the last
track, and ``realize finite`` on words over ``1 10`` (the calls of
``tests/test_golden.py``); track letters the parser refuses, in a
grammar rule (``letter-unclosed``, ``letter-no-equals``,
``letter-missing-var``, ``letter-extra-var``, ``letter-repeated-var``),
and letters whose names come out of order, in a grammar rule
(``letter-reordered-ranks``) and an NFH transition
(``letter-reordered-member``); symbols that no track letter can carry,
in a word of ``realize finite`` (``finite-comma``, ``finite-bracket``), a
DFA's alphabet for ``realize regular`` (``regular-bracket``) and a tile of
``pcp encode-forall`` (``forall-comma``); and usage
errors on both parse routes (``-h`` raises ``SystemExit``, so it is not
among them).  Calls run in-process, in a scratch directory, with file
names relative to it.
Each call's output is deleted before it runs, unless the call's own files
provide it: ``finite-over-stale`` writes over a file longer than any output,
and must leave the bytes that ``finite`` writes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

from gen import (CRITERION9_TILES, ea_cfhg_text, forall_cfhg_text,  # noqa: E402
                 make_queries, WORKLOADS)

# s0 -a-> s1, s2 and s1, s2 -b-> s3: determinized, a violation's states are
# subsets, which the NotPrefixClosed message must name the same way under
# every hash seed.
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

# Prefix-closed and infinite; the realize verbs determinize it, so their
# outputs are where the hash order of a subset state could show.
PREFIX_CLOSED_NFA = """\
type: nfa
alphabet: a b
states: s0 s1 s2
initial: s0
accepting: s0 s1 s2
trans: s0 a s1
trans: s0 a s2
trans: s1 b s1
trans: s2 a s0
"""

# Prefix-closed and infinite over three letters; s0 has three accepting
# extensions, so the relation route counts successors with up to four
# relation copies.
PREFIX_CLOSED_3_DFA = """\
type: dfa
alphabet: a b c
states: s0 s1 s2
initial: s0
accepting: s0 s1 s2
trans: s0 a s1
trans: s0 b s2
trans: s0 c s0
trans: s1 b s1
trans: s2 a s0
"""

# Prefix-closed and infinite over four letters; s0 has four accepting
# extensions, so the relation route builds the successor products P_1..P_5.
PREFIX_CLOSED_4_DFA = """\
type: dfa
alphabet: a b c d
states: s0 s1
initial: s0
accepting: s0 s1
trans: s0 a s1
trans: s0 b s1
trans: s0 c s1
trans: s0 d s0
"""

# f(a^2i) = b^2i and f(b^2i) = a^(2i+2): from eps it orders the even blocks.
EVEN_BLOCKS_SUCCESSOR = """\
type: nfa
alphabet: a b
vars: x y
states: p0 p1 p2 q0 q1 q2 q3
initial: p0 q0
accepting: p2 q3
trans: p0 [x=a,y=b] p1
trans: p1 [x=a,y=b] p2
trans: p2 [x=a,y=b] p1
trans: q0 [x=b,y=a] q1
trans: q1 [x=b,y=a] q0
trans: q0 [x=#,y=a] q2
trans: q2 [x=#,y=a] q3
"""

# f(a) = b and f(b) = a, each ending in an all-pad letter into the only
# accepting state: the realized NFH accepts the state before it only once
# trailing pads are absorbed.
ALL_PAD_SUCCESSOR = """\
type: nfa
alphabet: a b
vars: x y
states: q0 q1 q2
initial: q0
accepting: q2
trans: q0 [x=a,y=b] q1
trans: q0 [x=b,y=a] q1
trans: q1 [x=#,y=#] q2
"""

# Two tracks and no accepting state: a successor relation that is empty.
EMPTY_SUCCESSOR = """\
type: nfa
alphabet: a b
vars: x y
states: q0 q1
initial: q0
trans: q0 [x=a,y=b] q1
"""

# No accepting state: its subset DFA accepts nothing either.
EMPTY_NFA = """\
type: nfa
alphabet: a b
states: s0 s1
initial: s0
trans: s0 a s1
"""

FIG1_NFH = """\
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

# Over {a, b}: its probe universe outgrows the cap at --max-len 4 (31 words).
AB_NFH = """\
quantifiers: E x
type: nfa
alphabet: a b
vars: x
states: q0 q1
initial: q0
accepting: q1
trans: q0 [x=a] q1
"""

# R = {(a, b), (b, a), (a, ba), (b, aa)} read well padded, so the probe
# accepts only {a, b}.  Its other paths are badly padded: x pads and then
# reads b (q2 -> q3), and an all-pad letter stands inside a word (q1 -> q4,
# then q4 -> q3); a reading that kept them would accept {ab, ba}, {aa, bb}
# and their unions with {a, b} too.
MID_PAD_NFH = """\
quantifiers: A x E y
type: nfa
alphabet: a b
vars: x y
states: q0 q1 q2 q3 q4
initial: q0
accepting: q1 q2 q3
trans: q0 [x=a,y=b] q1
trans: q0 [x=b,y=a] q1
trans: q1 [x=#,y=a] q2
trans: q2 [x=b,y=#] q3
trans: q1 [x=#,y=#] q4
trans: q4 [x=a,y=b] q3
"""

# R = {(eps, eps, eps), (eps, a, b), (eps, b, a), (a, eps, a)} under
# E x1 A x2 E x3: the probe accepts {eps} and {eps, a, b}.
EAE_NFH = """\
quantifiers: E x1 A x2 E x3
type: nfa
alphabet: a b
vars: x1 x2 x3
states: p0 p1 p2
initial: p0
accepting: p0 p1 p2
trans: p0 [x1=#,x2=a,x3=b] p1
trans: p0 [x1=#,x2=b,x3=a] p1
trans: p0 [x1=a,x2=#,x3=a] p2
"""

EXISTS_CFHG = """\
quantifiers: E x
alphabet: a b
start: V0
rule: V0 -> [x=a] V0
rule: V0 -> [x=b]
"""

# 11 tiles: the index symbols 10 and 11 share a first character with 1
TILES_11 = (("a", "ab"), ("b", "ba"), ("ab", "a"), ("ba", "b"), ("aa", "a"),
            ("bb", "b"), ("a", "aa"), ("b", "bb"), ("ab", "ba"), ("ba", "ab"),
            ("aab", "b"))

# prefix-closed and infinite, over a symbol of two characters
A_AB_DFA = """\
type: dfa
alphabet: a ab
states: s0 s1
initial: s0
accepting: s0 s1
trans: s0 a s1
trans: s0 ab s0
trans: s1 ab s1
"""

# every word over 1 and 10: its shortlex successor moves from one state on
# [x=1,y=1] and [x=1,y=10], which a letter's text sorts 10 first
ONE_TEN_DFA = """\
type: dfa
alphabet: 1 10
states: s0
initial: s0
accepting: s0
trans: s0 1 s0
trans: s0 10 s0
"""

# over x and y: its second letter is the one under test
LETTER_CFHG = "quantifiers: A x A y\nstart: S\nrule: S -> [x=a,y=b] {}\n"

A_STAR_B_NFA = """\
type: nfa
alphabet: a b
states: s0 s1
initial: s0
accepting: s1
trans: s0 a s0
trans: s0 b s1
"""


def ring_dfa(n: int) -> str:
    """a: i -> i+1 mod n, b: i -> 0, accepting {n-1}.  Its shortlex
    successor grows with n, past that of any workload DFA: it has n + 1
    length sets."""
    trans = "".join(f"trans: s{i} a s{(i + 1) % n}\ntrans: s{i} b s0\n"
                    for i in range(n))
    return (f"type: dfa\nalphabet: a b\n"
            f"states: {' '.join(f's{i}' for i in range(n))}\ninitial: s0\n"
            f"accepting: s{n - 1}\n{trans}")


def blocks_dfa(n: int) -> str:
    """(a|b)^n: s_i -a,b-> s_(i+1), accepting s_n.  Its 2^n words are all
    simple-path words, at ``realize.PATH_CAP``, 32, for n = 5."""
    trans = "".join(f"trans: s{i} {s} s{i + 1}\n" for i in range(n) for s in "ab")
    return (f"type: dfa\nalphabet: a b\n"
            f"states: {' '.join(f's{i}' for i in range(n + 1))}\ninitial: s0\n"
            f"accepting: s{n}\n{trans}")


def dead_region_dfa(n: int) -> str:
    """L = {a}: s -a-> f, and s -b-> a dead region of n states, in which d_i
    moves on a, b, c, d to the next four.  No word of L enters the region,
    whose simple paths grow exponentially with n."""
    trans = "trans: s a f\ntrans: s b d0\n" + "".join(
        f"trans: d{i} {s} d{(i + j + 1) % n}\n" for i in range(n)
        for j, s in enumerate("abcd"))
    return (f"type: dfa\nalphabet: a b c d\n"
            f"states: s f {' '.join(f'd{i}' for i in range(n))}\ninitial: s\n"
            f"accepting: f\n{trans}")


def two_cycles_dfa(m: int, n: int) -> str:
    """From s, a: into a cycle of m a-moves, b: into one of n, each accepting
    at its entry.  The length sets repeat with period lcm(m, n), 77 for 7 and
    11, past ``realize.DET_CAP``, 64."""
    cycles = [(f"{c}{i}", f"{c}{(i + 1) % k}") for c, k in (("p", m), ("r", n))
              for i in range(k)]
    trans = "trans: s a p0\ntrans: s b r0\n"
    trans += "".join(f"trans: {q} a {p}\n" for q, p in cycles)
    return (f"type: dfa\nalphabet: a b\n"
            f"states: s {' '.join(q for q, _ in cycles)}\ninitial: s\n"
            f"accepting: p0 r0\n{trans}")


FIXED_FILES = {
    "npc.nfa": NOT_PREFIX_CLOSED_NFA,
    "pc.nfa": PREFIX_CLOSED_NFA,
    "pc3.dfa": PREFIX_CLOSED_3_DFA,
    "pc4.dfa": PREFIX_CLOSED_4_DFA,
    "succ.nfa": EVEN_BLOCKS_SUCCESSOR,
    "empty-succ.nfa": EMPTY_SUCCESSOR,
    "all-pad-succ.nfa": ALL_PAD_SUCCESSOR,
    "empty.nfa": EMPTY_NFA,
    "fig1.nfh": FIG1_NFH,
    # the same NFH with its quantifier line last
    "fig1-last.nfh": FIG1_NFH.replace("quantifiers: A x E y\n", "")
                     + "quantifiers: A x E y\n",
    "ab.nfh": AB_NFH,
    "mid-pad.nfh": MID_PAD_NFH,
    "eae.nfh": EAE_NFH,
    "e.cfhg": EXISTS_CFHG,
    # a bare terminal, which no hypergrammar accepts
    "bare.cfhg": "quantifiers: A x\nstart: V0\nrule: V0 -> [x=a] V0\nrule: V0 -> a\n",
    "aa.cfhg": forall_cfhg_text(CRITERION9_TILES),
    "ea.cfhg": ea_cfhg_text(CRITERION9_TILES),
    # solvable (1, 3), but its derivations up to length 30 exceed the
    # derivation cap, and the universe Σ^{≤30} the universe cap
    "ea-cap.cfhg": ea_cfhg_text((("ab", "a"), ("b", "bb"), ("a", "ba"))),
    # unranked: x starts with a and y with b, so no (w, w) is derived and
    # ∀x∀y has no member
    "aa-unranked-miss.cfhg": "quantifiers: A x A y\nstart: S\n"
                             "rule: S -> [x=a,y=b] T\nrule: T -> eps\n"
                             "rule: T -> [x=a,y=#] T\nrule: T -> [x=#,y=b] T\n",
    # the same tracks under ∀x∃y: no word fills both positions, so no word is
    # viable and there is no member
    "ae-unranked-miss.cfhg": "quantifiers: A x E y\nstart: S\n"
                             "rule: S -> [x=a,y=b] T\nrule: T -> eps\n"
                             "rule: T -> [x=a,y=#] T\nrule: T -> [x=#,y=b] T\n",
    # unranked, with an all-pad letter inside a word: its first member is {a, b}
    "ae-unranked.cfhg": "quantifiers: A x E y\nstart: S\nrule: S -> [x=a,y=b]\n"
                        "rule: S -> [x=b,y=#] [x=#,y=#] [x=#,y=a]\n"
                        "rule: S -> [x=b,y=b] [x=b,y=#] S\n",
    # ranked ∃∃∀ over every letter of {a, b}^3: its tuples up to length 5
    # pass the derivation cap, those whose z copies x do not
    "eea-letters.cfhg": "quantifiers: E x E y A z\nstart: S\nrule: S -> eps\n" + "".join(
        f"rule: S -> [x={x},y={y},z={z}] S\n" for x in "ab" for y in "ab" for z in "ab"),
    # ranked ∃∃∀ over {a, b, c, d}: T derives 16,383 tuples up to length 13,
    # past the derivation cap; the copied-∀ restriction drops S's T rule
    "eea-unreachable.cfhg": "quantifiers: E x E y A z\nalphabet: a b c d\nstart: S\n"
                            "rule: S -> eps\nrule: S -> [x=a,y=a,z=b] T\n"
                            "rule: T -> [x=c,y=c,z=c] T\nrule: T -> [x=d,y=d,z=d] T\n"
                            "rule: T -> eps\n",
    # unranked ∃∃∀ whose member is {a}; the unreachable U derives every word
    # over the other letters of {a, b, #}^3, past the derivation cap at bound 4
    "eea-unreachable-cap.cfhg": "quantifiers: E x E y A z\nalphabet: a b\nstart: S\n"
                                "rule: S -> [x=a,y=#,z=a]\n"
                                "rule: S -> [x=#,y=a,z=a] [x=a,y=#,z=#]\n" + "".join(
        f"rule: U -> [x={x},y={y},z={z}] U\nrule: U -> [x={x},y={y},z={z}]\n"
        for x, y, z in itertools.product("ab#", repeat=3) if (x, y, z) != ("#",) * 3),
    # unranked ∀∃∃∃ over every letter of {a, b, #}^4 but the all-pad one: its
    # tuples up to length 3 pass the derivation cap, while the universe
    # Σ^{≤3} holds 15 words
    "aeee-letters.cfhg": "quantifiers: A x E y E z E w\nstart: S\nrule: S -> eps\n"
                         + "".join(f"rule: S -> [x={x},y={y},z={z},w={w}] S\n"
                                   for x, y, z, w in itertools.product("ab#", repeat=4)
                                   if (x, y, z, w) != ("#",) * 4),
    # unranked, with an ε rule, a unit cycle S -> T -> S and an all-pad
    # letter: it derives every pair over {a}, pads anywhere
    "aa-unit-cycle.cfhg": "quantifiers: A x A y\nstart: S\nrule: S -> eps\n"
                          "rule: S -> [x=a,y=#] S\nrule: S -> [x=#,y=a] S\n"
                          "rule: S -> T\nrule: T -> S\nrule: T -> [x=#,y=#] T\n",
    # ranked, with a trailing all-pad letter: it derives the tracks (a, a)
    "trailing-pad.cfhg": "quantifiers: A x A y\nstart: S\n"
                         "rule: S -> [x=a,y=a] [x=#,y=#]\n",
    # track letters the parser rejects: no closing bracket, an entry without
    # '=', a missing, an extra and a repeated variable
    "letter-unclosed.cfhg": LETTER_CFHG.format("[x=a"),
    "letter-no-equals.cfhg": LETTER_CFHG.format("[x=a,y]"),
    "letter-missing-var.cfhg": LETTER_CFHG.format("[x=a]"),
    "letter-extra-var.cfhg": LETTER_CFHG.format("[x=a,y=b,z=c]"),
    "letter-repeated-var.cfhg": LETTER_CFHG.format("[x=a,x=b]"),
    # letters whose names come out of order, which the parser reorders
    "letter-reordered.cfhg": LETTER_CFHG.format("[y=b,x=a]"),
    "eae-reordered.nfh": EAE_NFH.replace("[x1=#,x2=a,x3=b]", "[x3=b,x1=#,x2=a]")
                                .replace("[x1=#,x2=b,x3=a]", "[x2=b,x3=a,x1=#]"),
    "ab.nfa": A_STAR_B_NFA,
    "tiles11.txt": "".join(f"{a} | {b}\n" for a, b in TILES_11),
    "ea11.cfhg": ea_cfhg_text(TILES_11),
    "a-ab.dfa": A_AB_DFA,
    "one-ten.dfa": ONE_TEN_DFA,
    "one-ten.lang": "1\n10\n1 10\n10 1\n",
    # two rules that differ only in 1 and 10 on the last track
    "tiles-one-ten.txt": "a 1 | a 1\na 1 | a 10\n",
    "one-ten.cfhg": "quantifiers: A x A y\nstart: S\nrule: S -> [x=#,y=1] [x=a,y=1]\n"
                    "rule: S -> [x=#,y=10] [x=a,y=1]\n",
    "tiles.txt": "".join(f"{a} | {b}\n" for a, b in CRITERION9_TILES),
    "words.lang": "eps\na\nab\n",
    # criterion 9's member: the solution 3 2 3 1, its indices reversed behind
    # the top word, and the all-c word; then the same with one letter flipped
    "ea-member.lang": "bbaabbbaa1323\nccccccccccccc\n",
    "ea-flipped.lang": "bbaabbbab1323\nccccccccccccc\n",
    "eps.lang": "eps\n",
    "one-a.lang": "a\n",
    "eps-a-b.lang": "eps\na\nb\n",
    # accepted only if the badly padded paths of mid-pad.nfh were read
    "ab-ba.lang": "ab\nba\n",
    # (ab, ab, ab) pads to the columns (a, a, a) and (b, b, b), which no rule
    # of ea.cfhg has: every letter gives x2 a c
    "ab.lang": "ab\n",
    "a.lang": "a\naa\n",
    # 12 words: the realized NFH's bytes depend on its initial states
    # sorting in word order past the tenth word
    "twelve.lang": "a\nb\naa\nab\nba\nbb\naaa\naab\naba\nabb\nbaa\nbab\n",
    "pad.lang": "a#\nb\n",
    "pad.dfa": "type: dfa\nalphabet: a #\nstates: s0 s1\ninitial: s0\n"
               "accepting: s1\ntrans: s0 # s1\n",
    "ring5.dfa": ring_dfa(5),
    "ring8.dfa": ring_dfa(8),
    "ring20.dfa": ring_dfa(20),
    "blocks5.dfa": blocks_dfa(5),
    "blocks6.dfa": blocks_dfa(6),
    "cycles-7-11.dfa": two_cycles_dfa(7, 11),
    "dead12.dfa": dead_region_dfa(12),
    # symbols with ',', '[' or ']', which no track letter can carry
    "comma.lang": "a,b\n",
    "bracket.lang": "a[b\n",
    "bracket.dfa": "type: dfa\nalphabet: a a]\nstates: s0\ninitial: s0\n"
                   "accepting: s0\ntrans: s0 a s0\ntrans: s0 a] s0\n",
    "comma-tiles.txt": "a,b | a\n",
    # longer than any output of the sweep (ring20-regular writes 74,197 bytes)
    "stale.nfh": "#! an earlier output\n" * 8192,
}

FIXED_CALLS = [
    ("npc-fast", ["realize", "prefix-closed", "npc.nfa", "-o", "out"]),
    ("npc-relation", ["realize", "prefix-closed", "npc.nfa", "--route", "relation",
                      "-o", "out"]),
    ("npc-regular", ["realize", "regular", "npc.nfa", "-o", "out"]),
    ("pc-fast", ["realize", "prefix-closed", "pc.nfa", "-o", "out"]),
    ("pc-relation", ["realize", "prefix-closed", "pc.nfa", "--route", "relation",
                     "-o", "out"]),
    ("pc-regular", ["realize", "regular", "pc.nfa", "-o", "out"]),
    ("pc3-relation", ["realize", "prefix-closed", "pc3.dfa", "--route", "relation",
                      "-o", "out"]),
    ("pc4-relation", ["realize", "prefix-closed", "pc4.dfa", "--route", "relation",
                      "-o", "out"]),
    ("ordered", ["realize", "ordered", "eps", "succ.nfa", "-o", "out"]),
    ("ordered-empty", ["realize", "ordered", "eps", "empty-succ.nfa", "-o", "out"]),
    ("ordered-first-aa", ["realize", "ordered", "aa", "succ.nfa", "-o", "out"]),
    ("ordered-all-pad", ["realize", "ordered", "a", "all-pad-succ.nfa", "-o", "out"]),
    # a FIRST symbol outside the successor's alphabet
    ("ordered-foreign-first", ["realize", "ordered", "ac", "succ.nfa", "-o", "out"]),
    ("empty-fast", ["realize", "prefix-closed", "empty.nfa", "-o", "out"]),
    ("empty-relation", ["realize", "prefix-closed", "empty.nfa", "--route",
                        "relation", "-o", "out"]),
    ("empty-regular", ["realize", "regular", "empty.nfa", "-o", "out"]),
    ("ordered-wrong-kind", ["realize", "ordered", "a", "pc.nfa", "-o", "out"]),
    ("regular-track", ["realize", "regular", "succ.nfa", "-o", "out"]),
    ("finite", ["realize", "finite", "words.lang", "-o", "out"]),
    ("finite-twelve", ["realize", "finite", "twelve.lang", "-o", "out"]),
    ("finite-over-stale", ["realize", "finite", "words.lang", "-o", "stale.nfh"]),
    ("blocks5-regular", ["realize", "regular", "blocks5.dfa", "-o", "out"]),
    ("encode-forall", ["pcp", "encode-forall", "tiles.txt", "-o", "out"]),
    ("encode-ea", ["pcp", "encode-ea", "tiles.txt", "-o", "out"]),
    ("member-regular-exists", ["cfhg", "member-regular", "e.cfhg", "ab.nfa"]),
    ("member-regular-forall", ["cfhg", "member-regular", "aa.cfhg", "ab.nfa"]),
    ("member-regular-track", ["cfhg", "member-regular", "e.cfhg", "succ.nfa"]),
    ("finite-pad", ["realize", "finite", "pad.lang", "-o", "out"]),
    ("regular-pad", ["realize", "regular", "pad.dfa", "-o", "out"]),
    ("ring5-regular", ["realize", "regular", "ring5.dfa", "-o", "out"]),
    ("ring8-regular", ["realize", "regular", "ring8.dfa", "-o", "out"]),
    ("ring20-regular", ["realize", "regular", "ring20.dfa", "-o", "out"]),
    ("dead-region-regular", ["realize", "regular", "dead12.dfa", "-o", "out"]),
    ("fig1-member", ["nfh", "member", "fig1.nfh", "a.lang"]),
    ("fig1-quantifiers-last", ["nfh", "member", "fig1-last.nfh", "a.lang"]),
    ("fig1-probe", ["nfh", "probe", "fig1.nfh", "--max-len", "2"]),
    ("mid-pad-probe", ["nfh", "probe", "mid-pad.nfh", "--max-len", "2"]),
    ("mid-pad-member", ["nfh", "member", "mid-pad.nfh", "ab-ba.lang"]),
    ("eae-probe", ["nfh", "probe", "eae.nfh", "--max-len", "2"]),
    ("eae-member", ["nfh", "member", "eae.nfh", "eps-a-b.lang"]),
    ("probe-negative", ["nfh", "probe", "fig1.nfh", "--max-len", "-1"]),
    ("bounded", ["cfhg", "empty", "aa.cfhg", "--bounded", "1"]),
    ("bounded-negative", ["cfhg", "empty", "aa.cfhg", "--bounded", "-1"]),
    ("ea-criterion9-bounded", ["cfhg", "empty", "ea.cfhg", "--bounded", "13"]),
    ("aa-criterion9-bounded", ["cfhg", "empty", "aa.cfhg", "--bounded", "9"]),
    ("ea-derivation-cap", ["cfhg", "empty", "ea-cap.cfhg", "--bounded", "30"]),
    ("eea-derivation-cap", ["cfhg", "empty", "eea-letters.cfhg", "--bounded", "5"]),
    ("aeee-derivation-cap", ["cfhg", "empty", "aeee-letters.cfhg", "--bounded", "3"]),
    ("eea-copies-unreachable", ["cfhg", "empty", "eea-unreachable.cfhg", "--bounded", "13"]),
    ("eea-unreachable-cap", ["cfhg", "empty", "eea-unreachable-cap.cfhg", "--bounded", "4"]),
    ("aa-unranked-miss", ["cfhg", "empty", "aa-unranked-miss.cfhg", "--bounded", "3"]),
    ("ae-unranked", ["cfhg", "empty", "ae-unranked.cfhg", "--bounded", "2"]),
    ("ae-unranked-miss", ["cfhg", "empty", "ae-unranked-miss.cfhg", "--bounded", "3"]),
    ("trailing-pad-empty", ["cfhg", "empty", "trailing-pad.cfhg"]),
    ("trailing-pad-member", ["cfhg", "member-finite", "trailing-pad.cfhg", "one-a.lang"]),
    ("ea-criterion9-member", ["cfhg", "member-finite", "ea.cfhg", "ea-member.lang"]),
    ("ea-criterion9-flipped", ["cfhg", "member-finite", "ea.cfhg", "ea-flipped.lang"]),
    ("ea-member-eps", ["cfhg", "member-finite", "ea.cfhg", "eps.lang"]),
    ("ea-member-no-letter", ["cfhg", "member-finite", "ea.cfhg", "ab.lang"]),
    ("bare-terminal", ["cfhg", "member-finite", "bare.cfhg", "a.lang"]),
    ("aa-unit-cycle-member", ["cfhg", "member-finite", "aa-unit-cycle.cfhg", "a.lang"]),
    # one refusal per cap
    ("probe-universe-cap", ["nfh", "probe", "ab.nfh", "--max-len", "4"]),
    ("witness-universe-cap", ["cfhg", "empty", "ae-unranked.cfhg", "--bounded", "5"]),
    ("path-cap", ["realize", "regular", "blocks6.dfa", "-o", "out"]),
    ("lasso-cap", ["realize", "regular", "cycles-7-11.dfa", "-o", "out"]),
    # symbols of several characters
    ("encode-ea-11", ["pcp", "encode-ea", "tiles11.txt", "-o", "out"]),
    ("ea11-ranks", ["cfhg", "ranks", "ea11.cfhg"]),
    ("ea11-is-ranked", ["cfhg", "is-ranked", "ea11.cfhg"]),
    ("a-ab-regular", ["realize", "regular", "a-ab.dfa", "-o", "out"]),
    ("a-ab-relation", ["realize", "prefix-closed", "a-ab.dfa", "--route", "relation",
                       "-o", "out"]),
    ("forall-one-ten", ["pcp", "encode-forall", "tiles-one-ten.txt", "-o", "out"]),
    ("one-ten-ranks", ["cfhg", "ranks", "one-ten.cfhg"]),
    ("one-ten-is-ranked", ["cfhg", "is-ranked", "one-ten.cfhg"]),
    ("one-ten-regular", ["realize", "regular", "one-ten.dfa", "-o", "out"]),
    ("one-ten-relation", ["realize", "prefix-closed", "one-ten.dfa", "--route",
                          "relation", "-o", "out"]),
    ("one-ten-finite", ["realize", "finite", "one-ten.lang", "-o", "out"]),
    # track letters: refused, or read in the order of the variables
    ("letter-unclosed", ["cfhg", "empty", "letter-unclosed.cfhg"]),
    ("letter-no-equals", ["cfhg", "empty", "letter-no-equals.cfhg"]),
    ("letter-missing-var", ["cfhg", "empty", "letter-missing-var.cfhg"]),
    ("letter-extra-var", ["cfhg", "empty", "letter-extra-var.cfhg"]),
    ("letter-repeated-var", ["cfhg", "empty", "letter-repeated-var.cfhg"]),
    ("letter-reordered-ranks", ["cfhg", "ranks", "letter-reordered.cfhg"]),
    ("letter-reordered-member", ["nfh", "member", "eae-reordered.nfh", "eps-a-b.lang"]),
    # symbols that no track letter can carry: refused, and no file written
    ("finite-comma", ["realize", "finite", "comma.lang", "-o", "out"]),
    ("finite-bracket", ["realize", "finite", "bracket.lang", "-o", "out"]),
    ("regular-bracket", ["realize", "regular", "bracket.dfa", "-o", "out"]),
    ("forall-comma", ["pcp", "encode-forall", "comma-tiles.txt", "-o", "out"]),
    ("missing-file", ["nfh", "member", "no-such.nfh", "words.lang"]),
    ("bogus-verb", ["bogus"]),
    # usage errors: through the verb's own parser, then through the full one
    ("json-after-verb", ["cfhg", "empty", "aa.cfhg", "--json"]),
    ("unknown-option", ["nfh", "probe", "fig1.nfh", "--max-len", "2", "--bogus"]),
    ("missing-positional", ["cfhg", "member-finite", "ea.cfhg"]),
    ("bare-group", ["cfhg"]),
    ("abbreviated-json", ["--js", "cfhg", "ranks", "e.cfhg"]),
]


def import_package(src: str):
    """The package's CLI and text formats, imported from ``src``, never from
    elsewhere."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import hyperlang.cli
    import hyperlang.formats
    if os.path.dirname(os.path.abspath(hyperlang.__file__)) != os.path.join(src, "hyperlang"):
        raise SystemExit(f"hyperlang was imported from {hyperlang.__file__}, not {src}")
    return hyperlang.cli, hyperlang.formats


def digest(data: str | None) -> str:
    return "-" if data is None else hashlib.sha256(data.encode("utf-8")).hexdigest()


def call(cli, argv: list[str], files: dict[str, str], read=None) -> str:
    """Write ``files`` and run one call in the current directory; its exit
    code and digests, and `` unreadable`` if ``read``, the parser of its
    output, refuses the file it wrote.  An output that ``files`` does not
    provide is deleted first, so that a file the call leaves is one it
    wrote."""
    for name, text in files.items():
        with open(name, "w", encoding="utf-8") as handle:
            handle.write(text)
    output = argv[argv.index("-o") + 1] if "-o" in argv else None
    if output is not None and output not in files and os.path.exists(output):
        os.remove(output)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.run(argv))
        except Exception as exc:  # a crash is an outcome to compare, not a stop
            code = f"raised:{type(exc).__name__}"
            print(exc, file=sys.stderr)
    written = None
    if output is not None and os.path.exists(output):
        with open(output, encoding="utf-8") as handle:
            written = handle.read()
    line = (f"exit={code} out={digest(out.getvalue())} err={digest(err.getvalue())} "
            f"file={digest(written)}")
    if written is not None and read is not None:
        try:
            read(written)
        except Exception:  # a parser crash is unreadable too
            line += " unreadable"
    return line


def workload_calls(workload: str, seed: int):
    """(call id, argv, files) of a workload's queries and the extra verbs on
    their inputs."""
    for q in make_queries(workload, seed):
        argv = [a[1:] if a.startswith("@") else a for a in q.argv]
        yield q.qid, argv, q.files
        for name, text in q.files.items():
            files = {name: text}
            if name.endswith(".cfhg"):
                for verb in ("empty", "ranks", "is-ranked"):
                    yield f"{q.qid}/{verb}", ["cfhg", verb, name], files
            elif name.endswith(".nfh"):
                yield f"{q.qid}/probe", ["nfh", "probe", name, "--max-len", "3"], files
            elif name.endswith(".dfa"):
                out = ["-o", f"{q.qid}.extra.nfh"]
                for route in ("fast", "relation"):
                    yield (f"{q.qid}/prefix-{route}",
                           ["realize", "prefix-closed", name, "--route", route, *out],
                           files)
                yield f"{q.qid}/regular", ["realize", "regular", name, *out], files


def all_calls(seeds):
    for seed in seeds:
        for workload in WORKLOADS:
            for qid, argv, files in workload_calls(workload, seed):
                yield f"s{seed}/{workload}/{qid}", argv, files
    for qid, argv in FIXED_CALLS:
        yield f"fixed/{qid}", argv, FIXED_FILES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="directory holding the hyperlang package to run")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    cli, formats = import_package(args.src)
    readers = {"realize": formats.parse_nfh, "pcp": formats.parse_cfhg}
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        for call_id, argv, files in all_calls(args.seeds):
            read = readers.get(argv[0])
            for mode in ("text", "json"):
                full = argv if mode == "text" else ["--json", *argv]
                print(f"{call_id}/{mode} {call(cli, full, files, read)}")
        os.chdir(HERE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
