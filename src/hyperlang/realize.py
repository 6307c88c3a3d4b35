"""Constructions that compile a described language into a singleton-exact NFH.

Each builder returns an NFH whose hyperlanguage is exactly ``{L}`` for the
described language L, under the quantifier shape the construction needs:
finite languages (∀∃), ordered languages (∃∀∃), partially ordered languages
(∃^m ∀ ∃^k), and prefix-closed / general regular languages via relations.

A general regular L has two constructions.  ``realize_shortlex`` orders an
infinite L by its shortlex successor, a synchronous relation, and realizes
it as an ordered language (∃∀∃); it hands a finite L to ``realize_regular``,
which pumps the DFA's simple cycles and counts each word's successors
(∃^m ∀ ∃^k).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import PAD, QuantifierPrefix, TrackLetter, Word, as_word
from .errors import CapExceeded, EmptyLanguage, NotPrefixClosed
from .nfa import (Dfa, Nfa, absorb_pad, compose_free, compose_sync, difference,
                  elim_pad, explore, fresh_state, pad_closure, pad_suffix,
                  project, reachable, rename_vars, to_base, trim, union_all,
                  with_var, word_automaton)
from .nfh import Nfh, accepted_assignments


# --- relations over word pairs -------------------------------------------------

def relation_pairs(relation: Nfa, max_len: int) -> set[tuple[Word, Word]]:
    """All related (x, y) pairs with both words of length ≤ max_len, by enumeration."""
    return accepted_assignments(absorb_pad(pad_closure(relation)), max_len)


# --- specs ---------------------------------------------------------------------

@dataclass(frozen=True)
class OrderedLanguageSpec:
    """A first word plus a successor-function automaton over variables x, y."""

    first_word: Word
    successor: Nfa

    def __post_init__(self):
        if self.successor.vars != ("x", "y"):
            raise ValueError("successor automaton must be over variables (x, y)")


@dataclass(frozen=True)
class PartialOrderSpec:
    """m minimal words, a successor-relation automaton, and a successor bound k."""

    minimal_words: tuple[Word, ...]
    relation: Nfa
    max_successors: int

    def __post_init__(self):
        if not self.minimal_words:
            raise ValueError("at least one minimal word is required")
        if self.max_successors < 1:
            raise ValueError("the successor bound must be at least 1")
        if self.relation.vars != ("x", "y"):
            raise ValueError("relation automaton must be over variables (x, y)")


# --- finite and ordered languages ----------------------------------------------

def realize_finite(words, alphabet=None) -> Nfh:
    """∀∃-NFH for a finite language: every word demands the cyclically next one."""
    language = sorted({as_word(w) for w in words})
    if not language:
        raise EmptyLanguage("cannot realize the empty language")
    symbols = set(alphabet) if alphabet is not None else {s for w in language for s in w}
    symbols = symbols or {"a"}
    k = len(language)
    parts = []
    for i, w in enumerate(language):
        succ = language[(i + 1) % k]
        parts.append(compose_free(with_var(word_automaton(w, symbols), "x"),
                                  with_var(word_automaton(succ, symbols), "y")))
    underlying = absorb_pad(union_all(parts))
    return Nfh(frozenset(symbols), QuantifierPrefix((("A", "x"), ("E", "y"))),
               underlying)


def realize_ordered(spec: OrderedLanguageSpec, alphabet=None) -> Nfh:
    """∃∀∃-NFH for an ordered language: a chain reaction from the first word."""
    symbols = set(alphabet) if alphabet is not None else \
        {s for s in spec.successor.symbols if s != PAD}
    first = with_var(word_automaton(spec.first_word, symbols), "x1")
    chain = rename_vars(spec.successor, {"x": "x2", "y": "x3"})
    underlying = absorb_pad(compose_free(first, chain))
    prefix = QuantifierPrefix((("E", "x1"), ("A", "x2"), ("E", "x3")))
    return Nfh(frozenset(symbols), prefix, underlying)


# --- successor-counting automata -----------------------------------------------

def _successor_product(relation: Nfa, i: int) -> Nfa:
    """P_i, the joint automaton over (z, y1..yi): i relation copies sharing
    the z-track, accepting only when all y-words are pairwise distinct.

    States are (per-copy states, set of index pairs already seen distinct).
    """
    closed = pad_closure(relation)
    pairs = list(itertools.combinations(range(i), 2))
    all_pairs = frozenset(frozenset(p) for p in pairs)
    by_x: dict = {}
    for q, letter, p in closed.transitions:
        by_x.setdefault(q, {}).setdefault(letter["x"], []).append((letter["y"], p))
    joint_vars = ("z",) + tuple(f"y{j + 1}" for j in range(i))

    def step(state):
        copies, seen = state
        per_copy = [by_x.get(q, {}) for q in copies]
        for x_sym in set(per_copy[0]).intersection(*per_copy[1:]):
            for combo in itertools.product(*(moves[x_sym] for moves in per_copy)):
                y_syms = tuple(y for y, _ in combo)
                targets = tuple(p for _, p in combo)
                new_seen = seen | {frozenset((j1, j2)) for j1, j2 in pairs
                                   if y_syms[j1] != y_syms[j2]}
                yield TrackLetter(joint_vars, (x_sym,) + y_syms), (targets, new_seen)

    initial = {(combo, frozenset())
               for combo in itertools.product(closed.initial, repeat=i)}
    states, transitions = explore(initial, step)
    accepting = {
        (copies, seen) for (copies, seen) in states
        if seen == all_pairs and all(q in closed.accepting for q in copies)
    }
    return trim(Nfa(closed.symbols, states, initial, accepting, transitions,
                    joint_vars))


def successors_ge(product: Nfa) -> Nfa:
    """Base-alphabet NFA for the z-words of a successor product P_i: the words
    with at least i distinct successors."""
    joint = absorb_pad(product)
    for y in product.vars[1:]:
        joint = project(joint, y)
    return elim_pad(to_base(joint))


def _capped(a: Nfa, det_cap: int, stage: str) -> Nfa:
    """``a`` trimmed, to be determinized; ``CapExceeded`` naming ``stage`` if
    it has more than ``det_cap`` states."""
    a = trim(a)
    if len(a.states) > det_cap:
        raise CapExceeded(f"{stage}: determinization input has {len(a.states)} "
                          f"states (cap {det_cap})")
    return a


def successors_exact(at_least: Nfa, more: Nfa, i: int, det_cap: int = 64) -> Nfa:
    """Words with exactly i successors: those of ``at_least`` (at least i)
    not in ``more`` (at least i+1)."""
    more = _capped(more, det_cap, f"successor count {i}")
    return trim(difference(at_least, more))


def _successor_counts(relation: Nfa, k: int, det_cap: int) -> Iterator[tuple[Nfa, Nfa]]:
    """(P_i, the words with exactly i successors) for i = 1..k, building each
    product once; P_{i+1} is built when count i is asked for, before its cap
    check.  No word has more successors than i once none has i, so the
    counts stop there."""
    product = _successor_product(relation, 1)
    at_least = successors_ge(product)
    for i in range(1, k + 1):
        if not at_least.accepting:
            return
        next_product = _successor_product(relation, i + 1)
        more = successors_ge(next_product)
        yield product, successors_exact(at_least, more, i, det_cap)
        product, at_least = next_product, more


# --- partially ordered languages -----------------------------------------------

def _constrain_track(a: Nfa, var: str, base: Nfa) -> Nfa:
    """Product of a track automaton with a base automaton run on one track."""
    moves_a = a.moves_from()
    moves_base = base.adjacency()

    def step(state):
        q, b = state
        for letter, q2 in moves_a.get(q, []):
            for b2 in moves_base.get((b, letter[var]), ()):
                yield letter, (q2, b2)

    initial = {(q, b) for q in a.initial for b in base.initial}
    states, transitions = explore(initial, step)
    accepting = {(q, b) for (q, b) in states
                 if q in a.accepting and b in base.accepting}
    return trim(Nfa(a.symbols | base.symbols, states, initial, accepting,
                    transitions, a.vars))


def _extend_diagonal(a: Nfa, source: str, new_vars: tuple[str, ...]) -> Nfa:
    """Add tracks that copy the ``source`` track letter for letter."""
    if not new_vars:
        return a
    joint_vars = a.vars + new_vars
    transitions = {
        (q, TrackLetter(joint_vars, letter.symbols + (letter[source],) * len(new_vars)), p)
        for q, letter, p in a.transitions
    }
    return Nfa(a.symbols, a.states, a.initial, a.accepting, transitions, joint_vars)


def realize_partially_ordered(spec: PartialOrderSpec, det_cap: int = 64) -> Nfh:
    """∃^m ∀ ∃^k NFH: minimal words exist, and every word demands its successors."""
    k = spec.max_successors
    symbols = {s for s in spec.relation.symbols if s != PAD}
    symbols |= {s for w in spec.minimal_words for s in w}
    x_names = tuple(f"x{i + 1}" for i in range(len(spec.minimal_words)))
    y_names = tuple(f"y{i + 1}" for i in range(k))
    a_u = compose_free(*(with_var(word_automaton(w, symbols), x)
                         for w, x in zip(spec.minimal_words, x_names)))

    parts = []
    counts = _successor_counts(spec.relation, k, det_cap)
    for i, (product, exact) in enumerate(counts, 1):
        b_i = _constrain_track(product, "z", pad_suffix(exact))
        b_i = _extend_diagonal(b_i, "z", y_names[i:])
        if b_i.accepting:
            parts.append(trim(compose_free(a_u, b_i)))
    if not parts:
        raise EmptyLanguage("no word of the relation's domain has 1..k successors")
    underlying = absorb_pad(union_all(parts))
    prefix = QuantifierPrefix(tuple(("E", x) for x in x_names)
                              + (("A", "z"),)
                              + tuple(("E", y) for y in y_names))
    return Nfh(frozenset(symbols), prefix, underlying)


# --- prefix-closed regular languages -------------------------------------------

def _check_prefix_closed(a: Dfa) -> Dfa:
    """Trim and verify that accepting states are reached only via accepting states."""
    t = trim(a)
    if not t.accepting:
        raise NotPrefixClosed("the language is empty")
    violations = [(q, p) for q, _, p in t.transitions
                  if p in t.accepting and q not in t.accepting]
    if violations:
        # the least one, so the message does not depend on set order
        q, p = min(violations, key=repr)
        raise NotPrefixClosed(
            f"accepting state {p!r} is reachable from non-accepting {q!r}")
    if not (t.initial & t.accepting):
        raise NotPrefixClosed("the empty word is not in the language")
    return t


def _accepting_extensions(a: Nfa) -> dict:
    """accepting state -> sorted letters leading to an accepting state."""
    moves = a.moves_from()
    return {q: sorted({s for s, p in moves.get(q, []) if p in a.accepting})
            for q in a.accepting}


def _prefix_closed_setup(a: Dfa) -> tuple[Dfa, dict, int, tuple]:
    """What both prefix-closed routes start from: the checked, trimmed DFA,
    its accepting extensions, the successor bound k and a fresh final state."""
    t = _check_prefix_closed(a)
    extensions = _accepting_extensions(t)
    k = max((len(ls) for ls in extensions.values()), default=1) or 1
    return t, extensions, k, fresh_state(t.states, "ext")


def prefix_closed_relation(a: Dfa) -> PartialOrderSpec:
    """Single-letter-extension relation of a prefix-closed regular language."""
    t, extensions, k, final = _prefix_closed_setup(a)
    transitions = set()
    for q, s, p in t.transitions:
        transitions.add((q, TrackLetter(("x", "y"), (s, s)), p))
    for q, letters in extensions.items():
        for s in letters or [PAD]:
            transitions.add((q, TrackLetter(("x", "y"), (PAD, s)), final))
    relation = Nfa(t.symbols | {PAD}, t.states | {final}, t.initial, {final},
                   transitions, ("x", "y"))
    return PartialOrderSpec(((),), relation, k)


def realize_prefix_closed_fast(a: Dfa) -> Nfh:
    """Polynomial ∃∀∃^k NFH for a prefix-closed regular language.

    One component reads the word assigned to z diagonally on all y-tracks and
    finishes with a single letter that hands each y one extension letter (or
    pad, where fewer extensions exist).
    """
    t, extensions, k, final = _prefix_closed_setup(a)
    y_names = tuple(f"y{i + 1}" for i in range(k))
    joint_vars = ("z",) + y_names
    transitions = set()
    for q, s, p in t.transitions:
        transitions.add((q, TrackLetter(joint_vars, (s,) * (k + 1)), p))
    for q, letters in extensions.items():
        padded = tuple(letters) + (PAD,) * (k - len(letters))
        transitions.add((q, TrackLetter(joint_vars, (PAD,) + padded), final))
    component = Nfa(t.symbols | {PAD}, t.states | {final}, t.initial, {final},
                    transitions, joint_vars)

    symbols = {s for s in t.symbols if s != PAD}
    eps = with_var(word_automaton((), symbols), "x1")
    underlying = absorb_pad(compose_free(eps, component))
    prefix = QuantifierPrefix((("E", "x1"), ("A", "z"))
                              + tuple(("E", y) for y in y_names))
    return Nfh(frozenset(symbols), prefix, underlying)


# --- general regular languages -------------------------------------------------

def _simple_paths(a: Dfa) -> list[Word]:
    """Words reaching accepting states along simple paths from the start state."""
    out: list[Word] = []
    moves = a.moves_from()

    def walk(q, word: Word, visited: frozenset):
        if q in a.accepting:
            out.append(word)
        for s, p in sorted(moves.get(q, []), key=repr):
            if p not in visited:
                walk(p, word + (s,), visited | {p})

    walk(a.start, (), frozenset({a.start}))
    return sorted(set(out))


def _simple_cycles(a: Dfa) -> list[tuple[object, Word]]:
    """(state q, word c) pairs where c is read along a simple cycle at q."""
    out = []
    moves = a.moves_from()
    for q in sorted(a.states, key=repr):
        def walk(cur, word: Word, visited: frozenset):
            for s, p in sorted(moves.get(cur, []), key=repr):
                if p == q:
                    out.append((q, word + (s,)))
                elif p not in visited and p != q:
                    walk(p, word + (s,), visited | {p})
        walk(q, (), frozenset({q}))
    return out


def _pump_component(a: Dfa, p, cycle: Word) -> Nfa:
    """Track NFA over (x, y) for pairs (uv, u·cycle·v): the run of x reaches
    ``p`` along a simple prefix u, and y repeats x delayed by the cycle.

    Phase one reads u diagonally along a simple path; at ``p`` the y-track
    reads the cycle while the x-track runs ahead, buffered; phase three drains
    the buffer.  Since the DFA is deterministic, the y-run's acceptance is
    implied by the x-run's.
    """
    moves = a.moves_from()
    n = len(cycle)
    letter = lambda x_sym, y_sym: TrackLetter(("x", "y"), (x_sym, y_sym))

    def pump_steps(x_state, j, buffer):
        """Moves out of a pump-phase state (x_state|None, j, buffer): y reads
        the cycle's j-th letter while j < n, then drains the buffer."""
        if j < n:
            y_sym, j, rest = cycle[j], j + 1, buffer
        elif buffer:
            y_sym, rest = buffer[0], buffer[1:]
        else:
            return
        if x_state is not None:
            for s, r in moves.get(x_state, []):
                yield letter(s, y_sym), ("pump", r, j, rest + (s,))
        if x_state is None or x_state in a.accepting:
            yield letter(PAD, y_sym), ("pump", None, j, rest)

    def step(state):
        if state[0] == "pump":
            yield from pump_steps(*state[1:])
        else:
            _, q, visited = state
            for s, r in moves.get(q, []):
                if r not in visited:
                    yield letter(s, s), ("walk", r, visited | {r})
            if q == p:
                yield from pump_steps(q, 0, ())

    initial = ("walk", a.start, frozenset({a.start}))
    states, transitions = explore({initial}, step)
    accepting = {s for s in states
                 if s[0] == "pump" and s[1] is None and s[2] == n and not s[3]}
    return trim(Nfa(a.symbols | {PAD}, states, {initial}, accepting, transitions,
                    ("x", "y")))


def regular_relation(a: Dfa, path_cap: int = 32, cycle_cap: int = 32) -> PartialOrderSpec:
    """Cycle-pumping successor relation of a regular language (plus reflexivity)."""
    t = a
    paths = _simple_paths(t)
    if not paths:
        raise EmptyLanguage("the language is empty")
    if len(paths) > path_cap:
        raise CapExceeded(f"{len(paths)} simple-path words exceed the cap {path_cap}")
    cycles = _simple_cycles(t)
    if len(cycles) > cycle_cap:
        raise CapExceeded(f"{len(cycles)} simple cycles exceed the cap {cycle_cap}")
    parts = [compose_sync(t, t, track_vars=("x", "y"))]
    for q, c in cycles:
        component = _pump_component(t, q, c)
        if component.accepting:
            parts.append(component)
    relation = union_all(parts)
    k = 1 + len(cycles)
    return PartialOrderSpec(tuple(paths), relation, k)


def realize_regular(a: Dfa, path_cap: int = 32, cycle_cap: int = 32,
                    det_cap: int = 64) -> Nfh:
    """∃^m ∀ ∃^k NFH for a regular language, via the cycle-pumping relation."""
    return realize_partially_ordered(regular_relation(a, path_cap, cycle_cap),
                                     det_cap)


# --- the shortlex successor ----------------------------------------------------

def _shortlex_step(order: str, s: str, t: str) -> str | None:
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


def _shortlex_tracks(tracks: tuple[Nfa, ...], names: tuple[str, ...],
                     less: tuple[tuple[int, int], ...]) -> Nfa:
    """Tightly padded track NFA over ``names`` whose track i is read by the
    base automaton ``tracks[i]`` (pads included) and, for each (i, j) in
    ``less``, holds a word shortlex-less than track j's."""
    moves = [a.moves_from() for a in tracks]

    def step(state):
        qs, orders = state
        for combo in itertools.product(*(m.get(q, ()) for m, q in zip(moves, qs))):
            symbols = tuple(s for s, _ in combo)
            if all(s == PAD for s in symbols):
                continue
            new_orders = tuple(_shortlex_step(o, symbols[i], symbols[j])
                               for o, (i, j) in zip(orders, less))
            if None not in new_orders:
                yield (TrackLetter(names, symbols),
                       (tuple(p for _, p in combo), new_orders))

    initial = {(qs, ("=",) * len(less))
               for qs in itertools.product(*(a.initial for a in tracks))}
    states, transitions = explore(initial, step)
    accepting = {(qs, orders) for qs, orders in states
                 if all(q in a.accepting for q, a in zip(qs, tracks))
                 and all(o == "<" for o in orders)}
    symbols = frozenset().union(*(a.symbols for a in tracks))
    return trim(Nfa(symbols, states, initial, accepting, transitions, names))


def shortlex_successor(a: Dfa, det_cap: int = 64) -> Nfa:
    """Tightly padded track NFA over (x, y) for the shortlex successor
    within L(a): u, v ∈ L, u < v, and no word of L lies strictly between.

    Shortlex order is automatic (Khoussainov & Nerode 1995), so the pairs
    with a word of L between them are the 3-track "w ∈ L ∧ u < w ∧ w < v"
    with w projected away.  Its x- and y-tracks read any letters: the pairs
    it is determinized against are tightly padded words of L.
    """
    padded = pad_suffix(a)
    symbols = padded.symbols
    anything = Nfa(symbols, {"any"}, {"any"}, {"any"},
                   {("any", s, "any") for s in symbols})
    less = _shortlex_tracks((padded, padded), ("x", "y"), ((0, 1),))
    between = _shortlex_tracks((anything, padded, anything), ("x", "w", "y"),
                               ((0, 1), (1, 2)))
    between = _capped(project(between, "w"), det_cap, "shortlex between relation")
    return trim(difference(less, between))


def _least_word(a: Dfa) -> Word:
    """The shortlex-least word of L(a).  Breadth first with the letters in
    order, each state is first reached by its least word."""
    moves = a.moves_from()
    access = {a.start: ()}
    frontier = [a.start]
    while frontier:
        for q in frontier:
            if q in a.accepting:
                return access[q]
        reached = []
        for q in frontier:
            for s, p in sorted(moves.get(q, ())):  # one move per letter
                if p not in access:
                    access[p] = access[q] + (s,)
                    reached.append(p)
        frontier = reached
    raise EmptyLanguage("the language is empty")


def _is_infinite(a: Nfa) -> bool:
    """True iff L(a) is infinite: the trimmed automaton has a cycle."""
    t = trim(a)
    moves = t.moves_from()
    return any(q in reachable(t, (p for _, p in moves.get(q, ())))
               for q in t.states)


def realize_shortlex(a: Dfa) -> Nfh:
    """∃∀∃ NFH for a regular language: its shortlex-least word exists, and
    every word demands its shortlex successor within L.  The successor is
    total on an infinite L, whose words it chains in order; a finite L has
    no successor for its greatest word and keeps ``realize_regular``."""
    if not _is_infinite(a):
        return realize_regular(a)
    return realize_ordered(OrderedLanguageSpec(_least_word(a),
                                               shortlex_successor(a)))
