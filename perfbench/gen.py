"""Seeded inputs for the three workloads, with each query's answer.

A workload is a list of ``Query`` values built from ``random.Random`` seeded
by the workload name and ``--seed``.  Every input file is rendered here as
text; nothing imports the package under test, so a change to the program
cannot change its inputs or the answers it is checked against.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass

from oracle import (bounded_universe, dfa_language, ea_member, ea_symbols,
                    first_witness, forall_empty_equal_length, forall_member,
                    pcp_apply, render_language)

# The solvable instance of the paper's Criterion 9, solution 3,2,3,1.
CRITERION9_TILES = (("a", "baa"), ("ab", "aa"), ("bba", "bb"))
CRITERION9_SOLUTION = (3, 2, 3, 1)

# The 3-state DFA 0-a->1, 1-b->2, 2-a->1, 0-b->0 accepting {1, 2}.
ROADMAP_DFA = ("0", frozenset({"1", "2"}),
               {("0", "a"): "1", ("1", "b"): "2", ("2", "a"): "1", ("0", "b"): "0"})


@dataclass
class Query:
    """One CLI call of class ``cls``.  ``argv`` names files as ``@name``;
    ``files`` holds their text.  ``expect`` is the JSON document's expected
    fields, or for realize queries ``{"realize": (words, finite)}``."""

    qid: str
    cls: str
    argv: list[str]
    files: dict[str, str]
    expect: dict

    def resolved_argv(self, directory: str) -> list[str]:
        return ["--json"] + [os.path.join(directory, a[1:]) if a.startswith("@")
                             else a for a in self.argv]


def write_inputs(queries, directory: str):
    os.makedirs(directory, exist_ok=True)
    for q in queries:
        for name, text in q.files.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
                handle.write(text)


# --- words, tiles and languages -------------------------------------------------

def random_word(rng, n: int) -> str:
    """A word over {a, b} using both letters when n >= 2."""
    while True:
        word = "".join(rng.choice("ab") for _ in range(n))
        if n < 2 or len(set(word)) == 2:
            return word


def _cut(rng, word: str, pieces: int) -> list[str]:
    points = sorted(rng.sample(range(1, len(word)), pieces - 1))
    bounds = [0] + points + [len(word)]
    return [word[bounds[i]:bounds[i + 1]] for i in range(pieces)]


def planted_pcp(rng, length: int, pieces: int):
    """Tiles from cutting one random word two different ways, in random
    order, and the index sequence that spells the word on both sides."""
    word = random_word(rng, length)
    top = _cut(rng, word, pieces)
    bottom = top
    while bottom == top:
        bottom = _cut(rng, word, pieces)
    order = list(range(pieces))
    rng.shuffle(order)
    tiles = tuple((top[i], bottom[i]) for i in order)
    solution = tuple(order.index(i) + 1 for i in range(pieces))
    return tiles, solution


def equal_length_pcp(rng, count: int, solvable: bool):
    """Tiles whose sides have equal lengths; solvable iff some tile has
    identical sides."""
    while True:
        tiles = [(random_word(rng, n), random_word(rng, n))
                 for n in (rng.randint(1, 3) for _ in range(count))]
        if solvable:
            i = rng.randrange(count)
            tiles[i] = (tiles[i][0], tiles[i][0])
        symbols = {s for a, b in tiles for s in a + b}
        if symbols == {"a", "b"} and forall_empty_equal_length(tiles) != solvable:
            return tuple(tiles)


def random_language(rng, size: int) -> list[str]:
    """``size`` distinct words of length at most 3 over {a, b}, using both
    letters."""
    universe = bounded_universe("ab", 3)
    while True:
        words = sorted(rng.sample(universe, size))
        if {"a", "b"} <= set("".join(words)):
            return words


def flip(rng, word: str) -> str:
    """The word with one random a or b changed to the other letter."""
    positions = [i for i, s in enumerate(word) if s in "ab"]
    i = rng.choice(positions)
    return word[:i] + ("b" if word[i] == "a" else "a") + word[i + 1:]


# --- text renderings ------------------------------------------------------------

def _letters(vars_, *tracks: str) -> list[str]:
    n = max(len(t) for t in tracks)
    padded = [t + "#" * (n - len(t)) for t in tracks]
    return ["[" + ",".join(f"{v}={t[i]}" for v, t in zip(vars_, padded)) + "]"
            for i in range(n)]


def forall_cfhg_text(tiles) -> str:
    """The ∀∀ PCP encoding: one two-track chunk per tile, padded on the
    shorter side; V0 loops over chunks."""
    vars_ = ("x1", "x2")
    lines = ["quantifiers: A x1 A x2",
             "alphabet: " + " ".join(sorted({s for a, b in tiles for s in a + b})),
             "vars: x1 x2", "start: V0"]
    for a, b in tiles:
        chunk = " ".join(_letters(vars_, a, b))
        lines += [f"rule: V0 -> {chunk} V0", f"rule: V0 -> {chunk}"]
    return "\n".join(lines) + "\n"


def ea_cfhg_text(tiles) -> str:
    """The ∃∃∀ PCP encoding: V1 spells top words with the indices reversed
    behind them, V2 bottom words; track 2 is all c."""
    vars_ = ("x1", "x2", "x3")
    lines = ["quantifiers: E x1 E x2 A x3",
             "alphabet: " + " ".join(sorted(ea_symbols(tiles))),
             "vars: x1 x2 x3", "start: V0",
             "rule: V0 -> V1", "rule: V0 -> V2"]
    for i, (a, b) in enumerate(tiles):
        idx = str(i + 1)
        top = " ".join(_letters(vars_, a, "c" * len(a), a))
        top_idx = f"[x1={idx},x2=c,x3={idx}]"
        bottom = " ".join(_letters(vars_, b, "c" * len(b), "c" * len(b)))
        bottom_idx = f"[x1={idx},x2=c,x3=c]"
        lines += [f"rule: V1 -> {top} V1 {top_idx}", f"rule: V1 -> {top} {top_idx}",
                  f"rule: V2 -> {bottom} V2 {bottom_idx}",
                  f"rule: V2 -> {bottom} {bottom_idx}"]
    return "\n".join(lines) + "\n"


def language_text(words) -> str:
    return "".join((w or "eps") + "\n" for w in sorted(words))


def finite_nfh_text(words) -> str:
    """∀x ∃y NFH for a finite language: each word, on x, demands the
    cyclically next word on y; one path of padded letters per pair."""
    words = sorted(words)
    trans = []
    accepting = []
    count = 1
    for i, w in enumerate(words):
        succ = words[(i + 1) % len(words)]
        letters = _letters(("x", "y"), w, succ) if (w or succ) else []
        q = "q0"
        for letter in letters:
            p = f"q{count}"
            count += 1
            trans.append(f"trans: {q} {letter} {p}")
            q = p
        accepting.append(q)
    lines = ["quantifiers: A x E y", "type: nfa", "alphabet: a b", "vars: x y",
             "states: " + " ".join(f"q{i}" for i in range(count)),
             "initial: q0",
             "accepting: " + " ".join(sorted(set(accepting), key=lambda s: int(s[1:])))]
    return "\n".join(lines + trans) + "\n"


def dfa_states(dfa) -> set[str]:
    start, accepting, delta = dfa
    return {start} | set(accepting) | {q for q, _ in delta} | set(delta.values())


def dfa_text(dfa) -> str:
    start, accepting, delta = dfa
    states = sorted(dfa_states(dfa))
    lines = ["type: dfa", "alphabet: a b", "states: " + " ".join(states),
             f"initial: {start}", "accepting: " + " ".join(sorted(accepting))]
    lines += [f"trans: {q} {s} {p}" for (q, s), p in sorted(delta.items())]
    return "\n".join(lines) + "\n"


# --- DFAs -------------------------------------------------------------------------

def cycle_rotations(dfa) -> int:
    """Number of (state, word) pairs read along simple cycles: every
    rotation of a cycle counts once per state on it."""
    _, _, delta = dfa
    count = 0
    for q in sorted(dfa_states(dfa)):
        stack = [(q, frozenset({q}))]
        while stack:
            cur, seen = stack.pop()
            for s in "ab":
                p = delta.get((cur, s))
                if p == q:
                    count += 1
                elif p is not None and p not in seen:
                    stack.append((p, seen | {p}))
    return count


def _trim_ok(dfa) -> bool:
    """Every state is reachable and reaches an accepting state."""
    start, accepting, delta = dfa
    states = dfa_states(dfa)
    reach = {start}
    stack = [start]
    while stack:
        q = stack.pop()
        for s in "ab":
            p = delta.get((q, s))
            if p is not None and p not in reach:
                reach.add(p)
                stack.append(p)
    live = set(accepting)
    changed = True
    while changed:
        changed = False
        for (q, _), p in delta.items():
            if p in live and q not in live:
                live.add(q)
                changed = True
    return reach == states and states <= live


def random_dfa(rng, n: int, cyclic: bool, all_accepting: bool,
               rotations: int | None = None, transitions: int | None = None,
               accepting_count: int | None = None):
    """A trim DFA over {a, b} with states 0..n-1 and start 0; acyclic ones
    only move to higher-numbered states.  ``rotations``, ``transitions`` and
    ``accepting_count``, when given, fix its cycle rotations, its number of
    transitions and its number of accepting states."""
    while True:
        delta = {}
        for i in range(n):
            for s in "ab":
                targets = range(n) if cyclic else range(i + 1, n)
                if targets and rng.random() < 0.7:
                    delta[str(i), s] = str(rng.choice(targets))
        states = [str(i) for i in range(n)]
        accepting = frozenset(states if all_accepting
                              else [q for q in states if rng.random() < 0.5])
        dfa = ("0", accepting, delta)
        found = cycle_rotations(dfa)
        if (accepting and len(dfa_states(dfa)) == n and _trim_ok(dfa)
                and (found > 0) == cyclic
                and rotations in (None, found)
                and transitions in (None, len(delta))
                and accepting_count in (None, len(accepting))):
            return dfa


# --- workloads --------------------------------------------------------------------

class _Workload:
    """Collects queries; each gets the id ``<class>-<n>`` and files named
    after it."""

    def __init__(self):
        self.queries: list[Query] = []
        self._counts: Counter = Counter()

    def add(self, cls: str, verb: list[str], inputs: list[tuple[str, str]],
            expect: dict, tail: tuple = ()):
        """``inputs`` are (extension, text) pairs passed in order after the
        verb, then ``tail``; realize queries also get ``-o <id>.out.nfh``."""
        qid = f"{cls}-{self._counts[cls]}"
        self._counts[cls] += 1
        files = {f"{qid}.{ext}": text for ext, text in inputs}
        argv = verb + [f"@{name}" for name in files] + list(tail)
        if "realize" in expect:
            argv += ["-o", f"@{qid}.out.nfh"]
        self.queries.append(Query(qid, cls, argv, files, expect))


def _forall_expect(tiles) -> dict:
    """``cfhg empty --bounded 2`` on the ∀∀ encoding: equal-length tiles are
    ranked and decided; otherwise the bounded witness search runs."""
    if all(len(a) == len(b) for a, b in tiles):
        return {"verdict": "TRUE" if forall_empty_equal_length(tiles) else "FALSE"}
    symbols = {s for a, b in tiles for s in a + b}
    witness = first_witness(lambda ws: forall_member(tiles, ws), symbols, 2)
    return {"verdict": "UNDECIDABLE", "reason": "undecforall", "witness": witness}


def _search(rng, w: _Workload):
    def forall(cls, tiles, expect=None):
        w.add(cls, ["cfhg", "empty"], [("cfhg", forall_cfhg_text(tiles))],
              expect or _forall_expect(tiles), ("--bounded", "2"))

    def exists(cls, tiles):
        witness = first_witness(lambda ws: ea_member(tiles, ws), ea_symbols(tiles), 1)
        w.add(cls, ["cfhg", "empty"], [("cfhg", ea_cfhg_text(tiles))],
              {"verdict": "UNDECIDABLE", "reason": "emptinessexistsforall",
               "witness": witness}, ("--bounded", "1"))

    forall("aa-criterion9", CRITERION9_TILES)
    exists("ea-criterion9", CRITERION9_TILES)
    for _ in range(SEARCH_MIX["aa-miss"]):
        expect = {}
        while expect.get("witness", "") is not None:
            tiles = planted_pcp(rng, 6, 3)[0]
            expect = _forall_expect(tiles)
        forall("aa-miss", tiles, expect)
    for _ in range(SEARCH_MIX["aa-early"]):
        tiles = list(planted_pcp(rng, 6, 3)[0])
        word = random_word(rng, rng.randint(1, 2))
        tiles.insert(rng.randint(0, len(tiles)), (word, word))
        forall("aa-early", tiles)
    for i in range(SEARCH_MIX["aa-ranked"]):
        forall("aa-ranked", equal_length_pcp(rng, 3, solvable=i % 2 == 0))
    for _ in range(SEARCH_MIX["ea2"]):
        exists("ea2", planted_pcp(rng, 4, 2)[0])
    for _ in range(SEARCH_MIX["ea3"]):
        exists("ea3", planted_pcp(rng, 5, 3)[0])
    for _ in range(SEARCH_MIX["probe"]):
        words = random_language(rng, 3)
        w.add("probe", ["nfh", "probe"], [("nfh", finite_nfh_text(words))],
              {"languages": [render_language(words)]}, ("--max-len", "3"))


def _membership(rng, w: _Workload):
    def member(cls, grammar, words, verdict):
        w.add(cls, ["cfhg", "member-finite"],
              [("cfhg", grammar), ("lang", language_text(words))],
              {"verdict": "TRUE" if verdict else "FALSE"})

    def exists(prefix, tiles, solution):
        top, _ = pcp_apply(tiles, solution)
        word = top + "".join(str(i) for i in reversed(solution))
        forward = top + "".join(str(i) for i in solution)
        grammar = ea_cfhg_text(tiles)
        for tag, words in (("planted", [word, "c" * len(word)]),
                           ("forward", [forward, "c" * len(word)]),
                           ("flipped", [flip(rng, word), "c" * len(word)])):
            member(f"{prefix}-{tag}", grammar, words, ea_member(tiles, words))

    exists("ea-criterion9", CRITERION9_TILES, CRITERION9_SOLUTION)
    for _ in range(MEMBERSHIP_MIX["ea"]):
        exists("ea", *planted_pcp(rng, 7, 3))
    for _ in range(MEMBERSHIP_MIX["aa"]):
        tiles, solution = planted_pcp(rng, 6, 3)
        top, _ = pcp_apply(tiles, solution)
        grammar = forall_cfhg_text(tiles)
        for tag, words in (("top", [top]), ("flipped", [flip(rng, top)])):
            member(f"aa-{tag}", grammar, words, forall_member(tiles, words))
    for _ in range(MEMBERSHIP_MIX["nfh"]):
        words = random_language(rng, 3)
        other = next(u for u in bounded_universe("ab", 3) if u not in words)
        nfh = finite_nfh_text(words)
        for tag, language in (("exact", words), ("dropped", words[1:]),
                              ("added", words + [other]),
                              ("swapped", words[:-1] + [other])):
            w.add(f"nfh-{tag}", ["nfh", "member"],
                  [("nfh", nfh), ("lang", language_text(language))],
                  {"verdict": "TRUE" if tag == "exact" else "FALSE"})


def _realize(rng, w: _Workload):
    def regular(cls, verb, dfa, tail=()):
        finite = cycle_rotations(dfa) == 0
        # A finite language's words are shorter than the number of states;
        # of an infinite one the check reads words up to length 3.
        target = sorted(dfa_language(dfa, len(dfa_states(dfa)) if finite else 3))
        w.add(cls, ["realize", verb], [("dfa", dfa_text(dfa))],
              {"realize": (target, finite)}, tail)

    regular("regular-roadmap", "regular", ROADMAP_DFA)
    for i in range(REALIZE_MIX["finite"]):
        words = random_language(rng, 2 + i % 3)
        w.add("finite", ["realize", "finite"], [("lang", language_text(words))],
              {"realize": (words, True)})
    for i in range(REALIZE_MIX["prefix-closed"]):
        dfa = random_dfa(rng, rng.randint(2, 4), cyclic=i % 2 == 1, all_accepting=True)
        for route in ("fast", "relation"):
            regular(f"prefix-{route}", "prefix-closed", dfa, ("--route", route))
    for i in range(REALIZE_MIX["regular-acyclic"]):
        accepting, transitions = ACYCLIC_SHAPES[i % len(ACYCLIC_SHAPES)]
        regular("regular-acyclic", "regular",
                random_dfa(rng, 3, False, False, transitions=transitions,
                           accepting_count=accepting))
    for (n, rotations, transitions), count in REGULAR_CYCLIC.items():
        for i in range(count):
            regular(f"regular-cyclic-{n}s{rotations}r", "regular",
                    random_dfa(rng, n, True, False, rotations, transitions,
                               accepting_count=1 + i % 2))


# Query counts per class.  Each workload's classes are sized so that the
# median and the 90th percentile of latency fall inside a class of queries
# with steady cost, not on the border between two classes; enough instances
# are drawn that a class's cost varies little from seed to seed.
SEARCH_MIX = {"aa-miss": 16, "aa-early": 4, "aa-ranked": 8, "ea2": 10, "ea3": 12,
              "probe": 10}
MEMBERSHIP_MIX = {"ea": 25, "aa": 12, "nfh": 3}
REALIZE_MIX = {"finite": 30, "prefix-closed": 6, "regular-acyclic": 30}
# (accepting states, transitions) of the 3-state acyclic DFAs, in turn; the
# cost of ``realize regular`` grows with both.
ACYCLIC_SHAPES = [(1, 3), (2, 3), (2, 4), (3, 3)]
# Cyclic DFAs for ``realize regular`` by (states, cycle rotations,
# transitions).  Within a class the cost is steady; the rotations set how
# many relation copies ``successors_ge`` multiplies.  At rotations >= 3 the
# construction exceeds the default det_cap.  Half of each class has one
# accepting state and half two, which also moves the cost.
REGULAR_CYCLIC = {(2, 1, 2): 3, (3, 1, None): 3, (2, 2, 2): 18,
                  (2, 3, 3): 3, (2, 4, 4): 3, (3, 4, 5): 3}

WORKLOADS = {"search": _search, "membership": _membership, "realize": _realize}


def interleave(queries: list[Query]) -> list[Query]:
    """Spread each class evenly over the cycle, so that a run which stops
    part-way through a cycle keeps the classes' proportions."""
    sizes = Counter(q.cls for q in queries)
    seen: Counter = Counter()
    keyed = []
    for i, q in enumerate(queries):
        keyed.append(((seen[q.cls] + 0.5) / sizes[q.cls], i, q))
        seen[q.cls] += 1
    return [q for _, _, q in sorted(keyed, key=lambda k: k[:2])]


def make_queries(workload: str, seed: int) -> list[Query]:
    rng = random.Random(f"{workload}:{seed}")
    w = _Workload()
    WORKLOADS[workload](rng, w)
    return interleave(w.queries)
