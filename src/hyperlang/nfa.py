"""NFAs and DFAs over base symbols or track letters, plus the composition calculus.

Automata are immutable after construction.  Letters are either plain symbol
strings (base alphabet, possibly including the pad marker ``#``) or
``TrackLetter`` values over a fixed variable tuple.

The product and subset constructions share one worklist, ``explore``: each
supplies only the moves of a state and its acceptance test.
"""

from __future__ import annotations

from typing import Callable, Container, Hashable, Iterable, Mapping, Sequence

from .core import PAD, HWord, TrackLetter, as_word, closure
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
            if not isinstance(letter, TrackLetter) or letter.vars != self.vars:
                raise ValueError(f"letter {letter!r} does not match variables {self.vars}")
            for s in letter.symbols:
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
    if not a.is_track:
        letters = list(as_word(w))
    elif isinstance(w, HWord):
        letters = list(w.letters)
    else:
        letters = list(w)
    for letter in letters:
        try:
            a._check_letter(letter)
        except ValueError as e:
            raise UnknownLetter(str(e)) from None
    return letters


def nfa_member(a: Nfa, w) -> bool:
    """Subset-state run of ``a`` on one word (base word or HWord/letter sequence)."""
    current = a.initial
    for letter in _word_letters(a, w):
        current = a.step(current, letter)
        if not current:
            return False
    return bool(current & a.accepting)


def explore(initial: Iterable[Hashable],
            step: Callable[[Hashable], Iterable[tuple]]) -> tuple[set, set]:
    """The states reachable from ``initial`` and the transitions between
    them, where ``step(state)`` yields the state's (letter, target) moves."""
    states = set(initial)
    stack = list(states)
    transitions = set()
    while stack:
        state = stack.pop()
        for letter, target in step(state):
            transitions.add((state, letter, target))
            if target not in states:
                states.add(target)
                stack.append(target)
    return states, transitions


def fresh_state(states: Container, tag: str) -> tuple:
    """The first ``(tag, i)``, counting i from 0, that is not in ``states``."""
    i = 0
    while (tag, i) in states:
        i += 1
    return (tag, i)


def reachable(a: Nfa, start: Iterable) -> frozenset:
    moves = a.moves_from()
    return frozenset(closure(start, lambda q: (p for _, p in moves.get(q, ()))))


def trim(a: Nfa) -> Nfa:
    """Restrict to states that are reachable and can reach an accepting state."""
    fwd = reachable(a, a.initial)
    back: dict = {}
    for q, _, p in a.transitions:
        if q in fwd:
            back.setdefault(p, set()).add(q)
    keep = frozenset(closure(a.accepting & fwd, lambda q: back.get(q, ())))
    return Nfa(a.symbols,
               keep or {"__dead__"},
               a.initial & keep,
               a.accepting & keep,
               {(q, l, p) for q, l, p in a.transitions if q in keep and p in keep},
               a.vars)


def word_automaton(w, symbols=None) -> Nfa:
    """A line-shaped NFA whose language is exactly ``{w}``."""
    word = as_word(w)
    alpha = set(symbols) if symbols is not None else set(word)
    alpha = alpha or {"a"}
    states = [f"q{i}" for i in range(len(word) + 1)]
    transitions = {(states[i], word[i], states[i + 1]) for i in range(len(word))}
    return Nfa(alpha | set(word), states, {states[0]}, {states[-1]}, transitions)


def pad_suffix(a: Nfa) -> Nfa:
    """Close a base-alphabet NFA under trailing pads: the language times ``#*``."""
    if a.is_track:
        raise ValueError("pad_suffix expects a base-alphabet automaton")
    pad_state = fresh_state(a.states, "pad")
    transitions = set(a.transitions)
    for q in a.accepting:
        transitions.add((q, PAD, pad_state))
    transitions.add((pad_state, PAD, pad_state))
    return Nfa(a.symbols | {PAD}, a.states | {pad_state}, a.initial,
               a.accepting | {pad_state}, transitions)


def pad_anywhere(a: Nfa) -> Nfa:
    """Allow pads in arbitrary positions: a ``#`` self-loop on every state."""
    if a.is_track:
        raise ValueError("pad_anywhere expects a base-alphabet automaton")
    transitions = set(a.transitions)
    for q in a.states:
        transitions.add((q, PAD, q))
    return Nfa(a.symbols | {PAD}, a.states, a.initial, a.accepting, transitions)


def with_var(a: Nfa, var: str) -> Nfa:
    """Lift a base-alphabet NFA to a one-track automaton on variable ``var``."""
    if a.is_track:
        raise ValueError("with_var expects a base-alphabet automaton")
    transitions = {
        (q, TrackLetter((var,), (s,)), p) for q, s, p in a.transitions
    }
    return Nfa(a.symbols, a.states, a.initial, a.accepting, transitions, (var,))


def rename_vars(a: Nfa, mapping: Mapping[str, str]) -> Nfa:
    """Rename track variables; names absent from ``mapping`` are kept."""
    if not a.is_track:
        raise ValueError("rename_vars expects a track automaton")
    new_vars = tuple(mapping.get(v, v) for v in a.vars)
    transitions = {
        (q, TrackLetter(new_vars, letter.symbols), p)
        for q, letter, p in a.transitions
    }
    return Nfa(a.symbols, a.states, a.initial, a.accepting, transitions, new_vars)


def pad_closure(a: Nfa) -> Nfa:
    """Close a track automaton under trailing all-pad letters."""
    if not a.is_track:
        raise ValueError("pad_closure expects a track automaton")
    all_pad = TrackLetter(a.vars, (PAD,) * len(a.vars))
    pad_state = fresh_state(a.states, "pad")
    transitions = set(a.transitions)
    for q in a.accepting:
        transitions.add((q, all_pad, pad_state))
    transitions.add((pad_state, all_pad, pad_state))
    return Nfa(a.symbols | {PAD}, a.states | {pad_state}, a.initial,
               a.accepting | {pad_state}, transitions, a.vars)


def absorb_pad(a: Nfa) -> Nfa:
    """Also accept every word whose all-pad extension is accepted.

    Marks as accepting any state from which a sequence of all-``#`` letters
    reaches an accepting state.  Constructions that route acceptance through
    trailing pad letters become exact on tightly padded word assignments.
    """
    if not a.is_track:
        raise ValueError("absorb_pad expects a track automaton")
    pad_sources: dict = {}
    for q, letter, p in a.transitions:
        if letter.is_all_pad():
            pad_sources.setdefault(p, set()).add(q)
    accepting = closure(a.accepting, lambda p: pad_sources.get(p, ()))
    return Nfa(a.symbols, a.states, a.initial, accepting, a.transitions, a.vars)


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
        for combo in _combos(options):
            yield (TrackLetter(joint_vars, tuple(s for l, _ in combo for s in l.symbols)),
                   tuple(p for _, p in combo))

    initial = _combos([p.initial for p in parts])
    states, transitions = explore(initial, step)
    accepting = _all_accepting(states, parts)
    return Nfa(symbols, states, initial, accepting, transitions, joint_vars)


def _all_accepting(states, parts: Sequence[Nfa]) -> set:
    """The product states whose every component accepts in its operand."""
    return {joint for joint in states
            if all(q in part.accepting for q, part in zip(joint, parts))}


def _combos(option_lists):
    combos = [()]
    for options in option_lists:
        combos = [c + (o,) for c in combos for o in options]
    return combos


def compose_free(*parts: Nfa) -> Nfa:
    """Free composition: run all operands simultaneously, padding each with ``#``.

    Accepts an HWord iff each operand accepts its own tracks once their
    trailing pads are stripped.
    """
    return trim(track_product([pad_closure(p) for p in parts]))


def compose_sync(*parts: Nfa, track_vars: Sequence[str]) -> Nfa:
    """Synchronized composition: all operands read the same word, letter by letter."""
    if len(parts) != len(track_vars):
        raise ValueError("one variable name per operand is required")
    for part in parts:
        if part.is_track:
            raise ValueError("compose_sync expects base-alphabet operands")
    joint_vars = tuple(track_vars)
    symbols = frozenset().union(*(p.symbols for p in parts))
    moves = [p.moves_from() for p in parts]

    def step(joint):
        by_letter: dict = {}
        for i, q in enumerate(joint):
            for letter, p in moves[i].get(q, []):
                by_letter.setdefault(letter, [set() for _ in parts])[i].add(p)
        for letter, targets in by_letter.items():
            if all(targets):
                joint_letter = TrackLetter(joint_vars, (letter,) * len(parts))
                for combo in _combos(targets):
                    yield joint_letter, combo

    initial = _combos([p.initial for p in parts])
    states, transitions = explore(initial, step)
    accepting = _all_accepting(states, parts)
    return Nfa(symbols, states, initial, accepting, transitions, joint_vars)


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

    initial = {(q, a2.initial) for q in a1.initial}
    states, transitions = explore(initial, step)
    accepting = {(q, subset) for q, subset in states
                 if q in a1.accepting and not subset & a2.accepting}
    return Nfa(a1.symbols | a2.symbols, states, initial, accepting, transitions,
               a1.vars)


def determinize(a: Nfa) -> Dfa:
    """Subset construction over the letters that actually occur in ``a``."""
    letters = a.letters()

    def step(subset):
        for letter in letters:
            nxt = a.step(subset, letter)
            if nxt:
                yield letter, nxt

    start = frozenset(a.initial)
    states, transitions = explore({start}, step)
    accepting = {s for s in states if s & a.accepting}
    return Dfa(a.symbols, states, start, accepting, transitions, a.vars)


def project(a: Nfa, drop: str) -> Nfa:
    """Remove one track from every letter of a track automaton."""
    if not a.is_track or drop not in a.vars:
        raise ValueError(f"variable {drop!r} not present")
    keep = tuple(v for v in a.vars if v != drop)
    if not keep:
        raise ValueError("cannot project away the last variable; use to_base")
    transitions = {
        (q, TrackLetter(keep, tuple(s for v, s in letter.items() if v != drop)), p)
        for q, letter, p in a.transitions
    }
    return Nfa(a.symbols, a.states, a.initial, a.accepting, transitions, keep)


def to_base(a: Nfa) -> Nfa:
    """Flatten a one-track automaton to a base-alphabet automaton."""
    if not a.is_track or len(a.vars) != 1:
        raise ValueError("to_base expects a one-track automaton")
    transitions = {(q, letter.symbols[0], p) for q, letter, p in a.transitions}
    return Nfa(a.symbols | {s for _, s, _ in transitions}, a.states, a.initial,
               a.accepting, transitions)


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


def canonical(a: Nfa) -> Nfa:
    """Rename states to ``q0..qn`` in a deterministic breadth-first order."""
    moves = a.moves_from()
    order: list = []
    seen = set()
    frontier = sorted(a.initial, key=repr)
    for q in frontier:
        seen.add(q)
        order.append(q)
    while frontier:
        nxt = []
        for q in frontier:
            for letter, p in sorted(moves.get(q, []), key=repr):
                if p not in seen:
                    seen.add(p)
                    order.append(p)
                    nxt.append(p)
        frontier = nxt
    for q in sorted(a.states - seen, key=repr):
        order.append(q)
    names = {q: f"q{i}" for i, q in enumerate(order)}
    return Nfa(a.symbols,
               {names[q] for q in a.states},
               {names[q] for q in a.initial},
               {names[q] for q in a.accepting},
               {(names[q], l, names[p]) for q, l, p in a.transitions},
               a.vars)
