"""NFAs and DFAs over base symbols or track letters, plus the composition calculus.

Automata are immutable after construction.  Letters are either plain symbol
strings (base alphabet, possibly including the pad marker ``#``) or track
letters, the tuples of one symbol per track of the automaton's ``vars``.

The product and subset constructions share one worklist, ``explore``: each
supplies only the moves of a state and its acceptance test, and gets back
the trimmed automaton, whose every state is reachable and reaches an
accepting one.  ``pad_suffix`` is the one trailing-pad closure, of base and
track automata, and ``relabel`` the one rewrite of letters into track letters.
"""

from __future__ import annotations

import itertools
from typing import Callable, Container, Hashable, Iterable, Sequence

from .core import PAD, as_word, closure, letter_text
from .errors import UnknownLetter, VarClash


class Nfa:
    """A nondeterministic finite automaton.

    ``vars`` is ``None`` for base-alphabet automata and a tuple of variable
    names for track-letter automata.  ``symbols`` is the set of base symbols
    that may occur (inside track letters, for track automata); it may include
    the pad marker.
    """

    __slots__ = ("symbols", "vars", "states", "initial", "accepting",
                 "transitions", "_adj", "_radj")

    def __init__(self, symbols, states, initial, accepting, transitions, vars=None):
        self.symbols = frozenset(symbols)
        self.vars = tuple(vars) if vars is not None else None
        self.states = frozenset(states)
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        self.transitions = frozenset(transitions)
        self._adj = None
        self._radj = None
        if not self.initial <= self.states or not self.accepting <= self.states:
            raise ValueError("initial/accepting states must be declared states")
        for q, letter, p in self.transitions:
            if q not in self.states or p not in self.states:
                raise ValueError(f"transition ({q},{letter},{p}) uses undeclared state")
            self._check_letter(letter)

    def _check_letter(self, letter):
        if self.vars is None:
            if not isinstance(letter, str) or letter not in self.symbols:
                raise ValueError(f"letter {letter!r} outside base alphabet")
        else:
            if not isinstance(letter, tuple) or len(letter) != len(self.vars):
                raise ValueError(f"letter {letter!r} does not match variables {self.vars}")
            for s in letter:
                if s != PAD and s not in self.symbols:
                    raise ValueError(f"symbol {s!r} outside declared alphabet")

    @property
    def is_track(self) -> bool:
        return self.vars is not None

    def letters(self) -> frozenset:
        return frozenset(letter for _, letter, _ in self.transitions)

    def adjacency(self):
        if self._adj is None:
            adj: dict = {}
            for q, letter, p in self.transitions:
                adj.setdefault((q, letter), set()).add(p)
            self._adj = adj
        return self._adj

    def moves_from(self):
        """state -> list of (letter, next state)."""
        if self._radj is None:
            out: dict = {}
            for q, letter, p in self.transitions:
                out.setdefault(q, []).append((letter, p))
            self._radj = out
        return self._radj

    def step(self, states: frozenset, letter) -> frozenset:
        adj = self.adjacency()
        nxt: set = set()
        for q in states:
            nxt |= adj.get((q, letter), set())
        return frozenset(nxt)


class Dfa(Nfa):
    """A deterministic automaton: one initial state, at most one move per letter."""

    __slots__ = ()

    def __init__(self, symbols, states, initial_state, accepting, transitions,
                 vars=None):
        super().__init__(symbols, states, {initial_state}, accepting, transitions, vars)
        seen = set()
        for q, letter, _ in self.transitions:
            if (q, letter) in seen:
                raise ValueError(f"nondeterministic moves from {q} on {letter}")
            seen.add((q, letter))

    @property
    def start(self):
        (q,) = self.initial
        return q


def _word_letters(a: Nfa, w) -> list:
    """Normalize membership input to a letter sequence, validating the alphabet."""
    letters = list(w)  # a base word's string splits into its symbols
    for letter in letters:
        try:
            a._check_letter(letter)
        except ValueError as e:
            raise UnknownLetter(str(e)) from None
    return letters


def nfa_member(a: Nfa, w) -> bool:
    """Subset-state run of ``a`` on one word (base word or track-letter sequence)."""
    current = a.initial
    for letter in _word_letters(a, w):
        current = a.step(current, letter)
        if not current:
            return False
    return bool(current & a.accepting)


def explore(initial: Iterable[Hashable],
            step: Callable[[Hashable], Iterable[tuple]],
            accepts: Callable[[Hashable], bool],
            symbols: Iterable[str], vars=None) -> Nfa:
    """The trimmed automaton of the states reachable from ``initial``, where
    ``step(state)`` yields the state's (letter, target) moves: only the
    states that reach one for which ``accepts`` holds are kept.  With none,
    it is one dead state, with no initial one."""
    initial = set(initial)
    into: dict = {}

    def targets(state):
        for letter, target in step(state):
            into.setdefault(target, []).append((state, letter))
            yield target

    accepting = {q for q in closure(initial, targets) if accepts(q)}
    # every move into a kept state comes from a kept state
    keep = closure(accepting, lambda q: (p for p, _ in into.get(q, ())))
    transitions = {(p, letter, q) for q in keep for p, letter in into.get(q, ())}
    return Nfa(symbols, keep or {"__dead__"}, initial & keep, accepting,
               transitions, vars)


def fresh_state(states: Container, tag: str) -> tuple:
    """The first ``(tag, i)``, counting i from 0, that is not in ``states``."""
    i = 0
    while (tag, i) in states:
        i += 1
    return (tag, i)


def trim(a: Nfa) -> Nfa:
    """Restrict to states that are reachable and can reach an accepting state."""
    moves = a.moves_from()
    return explore(a.initial, lambda q: moves.get(q, ()), a.accepting.__contains__,
                   a.symbols, a.vars)


def word_automaton(w, symbols=None) -> Nfa:
    """A line-shaped NFA whose language is exactly ``{w}``."""
    word = as_word(w)
    alpha = set(symbols) if symbols is not None else set(word)
    alpha = alpha or {"a"}
    states = [f"q{i}" for i in range(len(word) + 1)]
    transitions = {(states[i], word[i], states[i + 1]) for i in range(len(word))}
    return Nfa(alpha | set(word), states, {states[0]}, {states[-1]}, transitions)


def pad_suffix(a: Nfa) -> Nfa:
    """Close an NFA under trailing pads: the language times ``#*`` on a base
    automaton, times the all-pad letter's star on a track automaton."""
    pad = (PAD,) * len(a.vars) if a.is_track else PAD
    pad_state = fresh_state(a.states, "pad")
    transitions = a.transitions | {(q, pad, pad_state)
                                   for q in a.accepting | {pad_state}}
    return Nfa(a.symbols | {PAD}, a.states | {pad_state}, a.initial,
               a.accepting | {pad_state}, transitions, a.vars)


def pad_anywhere(a: Nfa) -> Nfa:
    """Allow pads in arbitrary positions: a ``#`` self-loop on every state."""
    if a.is_track:
        raise ValueError("pad_anywhere expects a base-alphabet automaton")
    transitions = set(a.transitions)
    for q in a.states:
        transitions.add((q, PAD, q))
    return Nfa(a.symbols | {PAD}, a.states, a.initial, a.accepting, transitions)


def relabel(a: Nfa, vars: tuple, f: Callable) -> Nfa:
    """``a`` as a track automaton over ``vars``: each letter l becomes the
    track letter ``f(l)``; states and alphabet stay."""
    transitions = {(q, f(letter), p) for q, letter, p in a.transitions}
    return Nfa(a.symbols, a.states, a.initial, a.accepting, transitions, vars)


def with_var(a: Nfa, var: str) -> Nfa:
    """Lift a base-alphabet NFA to a one-track automaton on variable ``var``."""
    if a.is_track:
        raise ValueError("with_var expects a base-alphabet automaton")
    return relabel(a, (var,), lambda s: (s,))


def absorb_pad(a: Nfa) -> Nfa:
    """Also accept every word whose all-pad extension is accepted.

    Marks as accepting any state from which a sequence of all-``#`` letters
    reaches an accepting state.  Constructions that route acceptance through
    trailing pad letters become exact on tightly padded word assignments.
    """
    if not a.is_track:
        raise ValueError("absorb_pad expects a track automaton")
    return Nfa(a.symbols, a.states, a.initial, pad_coreach(a, a.accepting),
               a.transitions, a.vars)


def pad_coreach(a: Nfa, targets: Iterable[Hashable]) -> set:
    """``targets`` and the states of track automaton ``a`` from which a path
    of all-pad letters reaches one of them."""
    pad_sources: dict = {}
    all_pad = (PAD,) * len(a.vars)
    for q, letter, p in a.transitions:
        if letter == all_pad:
            pad_sources.setdefault(p, []).append(q)
    return closure(targets, lambda p: pad_sources.get(p, ()))


def track_product(parts: Sequence[Nfa]) -> Nfa:
    """Raw synchronized product of track automata over disjoint variable sets.

    Every step advances all components by one letter; the joint letter is the
    concatenation of the component letters.
    """
    seen_vars: list[str] = []
    for part in parts:
        if not part.is_track:
            raise ValueError("track_product expects track automata")
        for v in part.vars:
            if v in seen_vars:
                raise VarClash(f"variable {v!r} appears in two composition operands")
            seen_vars.append(v)
    joint_vars = tuple(seen_vars)
    symbols = frozenset().union(*(p.symbols for p in parts))

    moves = [p.moves_from() for p in parts]

    def step(joint):
        options = [moves[i].get(q, []) for i, q in enumerate(joint)]
        for combo in itertools.product(*options):
            yield (tuple(s for l, _ in combo for s in l), tuple(p for _, p in combo))

    return explore(itertools.product(*(p.initial for p in parts)), step,
                   lambda joint: all(q in p.accepting for q, p in zip(joint, parts)),
                   symbols, joint_vars)


def compose_free(*parts: Nfa) -> Nfa:
    """Free composition: run all operands simultaneously, padding each with ``#``.

    Accepts a track word iff each operand accepts its own tracks once their
    trailing pads are stripped.
    """
    return track_product([pad_suffix(p) for p in parts])


def compose_sync(*parts: Nfa, track_vars: Sequence[str]) -> Nfa:
    """Synchronized composition, the diagonal of the operands' track product."""
    if len(parts) != len(track_vars):
        raise ValueError("one variable name per operand is required")
    for part in parts:
        if part.is_track:
            raise ValueError("compose_sync expects base-alphabet operands")
    product = track_product([with_var(p, v) for p, v in zip(parts, track_vars)])
    moves = product.moves_from()
    return explore(product.initial,
                   lambda q: ((l, p) for l, p in moves.get(q, ())
                              if len(set(l)) == 1),
                   product.accepting.__contains__, product.symbols, product.vars)


def union(a1: Nfa, a2: Nfa) -> Nfa:
    """Language union via disjoint state tagging."""
    if a1.vars != a2.vars:
        raise ValueError("union operands must share the variable set")
    states = {(0, q) for q in a1.states} | {(1, q) for q in a2.states}
    transitions = {((0, q), l, (0, p)) for q, l, p in a1.transitions}
    transitions |= {((1, q), l, (1, p)) for q, l, p in a2.transitions}
    return Nfa(a1.symbols | a2.symbols, states,
               {(0, q) for q in a1.initial} | {(1, q) for q in a2.initial},
               {(0, q) for q in a1.accepting} | {(1, q) for q in a2.accepting},
               transitions, a1.vars)


def union_all(parts: Sequence[Nfa]) -> Nfa:
    result = parts[0]
    for part in parts[1:]:
        result = union(result, part)
    return result


def difference(a1: Nfa, a2: Nfa) -> Nfa:
    """The words of ``a1`` that ``a2`` rejects: a product of ``a1`` with the
    subset construction of ``a2``, which runs on ``a1``'s letters only."""
    if a1.vars != a2.vars:
        raise ValueError("difference operands must share the variable set")
    moves1 = a1.moves_from()

    def step(state):
        q, subset = state
        for letter, q2 in moves1.get(q, []):
            yield letter, (q2, a2.step(subset, letter))

    return explore({(q, a2.initial) for q in a1.initial}, step,
                   lambda state: state[0] in a1.accepting
                   and a2.accepting.isdisjoint(state[1]),
                   a1.symbols | a2.symbols, a1.vars)


def determinize(a: Nfa) -> Dfa:
    """Trimmed subset construction over the letters that actually occur in
    ``a``; a DFA of its start subset alone when ``a`` accepts nothing."""
    letters = a.letters()

    def step(subset):
        for letter in letters:
            nxt = a.step(subset, letter)
            if nxt:
                yield letter, nxt

    start = frozenset(a.initial)
    d = explore({start}, step, lambda s: not a.accepting.isdisjoint(s), a.symbols,
                a.vars)
    return Dfa(d.symbols, d.states if d.initial else {start}, start, d.accepting,
               d.transitions, d.vars)


def project(a: Nfa, drop: str) -> Nfa:
    """Remove one track from every letter of a track automaton."""
    if not a.is_track or drop not in a.vars:
        raise ValueError(f"variable {drop!r} not present")
    keep = tuple(v for v in a.vars if v != drop)
    if not keep:
        raise ValueError("cannot project away the last variable")
    i = a.vars.index(drop)
    return relabel(a, keep, lambda letter: letter[:i] + letter[i + 1:])


def elim_pad(a: Nfa) -> Nfa:
    """Treat ``#`` transitions of a base automaton as epsilon and eliminate them.

    The resulting language is the pad-stripped image of the original language.
    """
    if a.is_track:
        raise ValueError("elim_pad expects a base-alphabet automaton")
    eps: dict = {}
    for q, l, p in a.transitions:
        if l == PAD:
            eps.setdefault(q, set()).add(p)
    closures = {q: closure({q}, lambda r: eps.get(r, ())) for q in a.states}
    transitions = set()
    for q in a.states:
        for mid in closures[q]:
            for l, p in a.moves_from().get(mid, []):
                if l != PAD:
                    transitions.add((q, l, p))
    accepting = {q for q in a.states if closures[q] & a.accepting}
    initial = a.initial
    return trim(Nfa(a.symbols - {PAD} or a.symbols, a.states, initial, accepting,
                    transitions))


def nfa_language(a: Nfa, max_len: int) -> set:
    """All accepted words up to ``max_len``, by breadth-first prefix expansion.

    Returns base words as symbol tuples, and track words as letter tuples.
    """
    results = set()
    frontier = [((), a.initial)]
    if a.initial & a.accepting:
        results.add(())
    moves = a.moves_from()
    for _ in range(max_len):
        nxt_frontier = []
        for prefix, stateset in frontier:
            by_letter: dict = {}
            for q in stateset:
                for letter, p in moves.get(q, []):
                    by_letter.setdefault(letter, set()).add(p)
            for letter, targets in by_letter.items():
                word = prefix + (letter,)
                targets = frozenset(targets)
                if targets & a.accepting:
                    results.add(word)
                nxt_frontier.append((word, targets))
        frontier = nxt_frontier
        if not frontier:
            break
    return results


def canonical(a: Nfa) -> dict:
    """Canonical state names: ``{state: "q<i>"}`` in a deterministic
    breadth-first order, unreached states last.  A state's moves are taken
    in the order of their ``repr``, a track letter spelled as its text."""
    moves = a.moves_from()
    spell = (lambda letter: letter_text(a.vars, letter)) if a.is_track else repr
    order: list = []
    seen = set()
    frontier = sorted(a.initial, key=repr)
    for q in frontier:
        seen.add(q)
        order.append(q)
    while frontier:
        nxt = []
        for q in frontier:
            for letter, p in sorted(moves.get(q, []),
                                    key=lambda m: f"({spell(m[0])}, {m[1]!r})"):
                if p not in seen:
                    seen.add(p)
                    order.append(p)
                    nxt.append(p)
        frontier = nxt
    for q in sorted(a.states - seen, key=repr):
        order.append(q)
    return {q: f"q{i}" for i, q in enumerate(order)}
