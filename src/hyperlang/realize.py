"""Constructions that compile a described language into a singleton-exact NFH.

Each builder returns an NFH whose hyperlanguage is exactly ``{L}`` for the
described language L, under the quantifier shape the construction needs:
finite languages (∀∃), ordered languages (∃∀∃), partially ordered languages
(∃^m ∀ ∃^k), and prefix-closed / general regular languages via relations.

A general regular L has two constructions.  ``realize_shortlex`` orders an
infinite L by its shortlex successor, a synchronous relation, and realizes
it as an ordered language (∃∀∃); it realizes a finite L as the finite
language of its words (∀∃).  The successor is built directly from L's
length sets, the states with a word of each length into F, with no subset
construction: the radix successor of a rational language is a finite union
of sequential functions (Angrand & Sakarovitch, RAIRO-ITA 44, 2010).
``realize_regular`` is the paper's construction: it pumps the DFA's simple
cycles and counts each word's successors (∃^m ∀ ∃^k).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import PAD, QuantifierPrefix, Word, as_word
from .errors import CapExceeded, EmptyLanguage, NotPrefixClosed
from .nfa import (Dfa, Nfa, absorb_pad, compose_sync, difference, elim_pad,
                  explore, fresh_state, pad_coreach, pad_suffix, trim, union)
from .nfh import Nfh, accepted_assignments

DET_CAP = 64  # states of a determinization input; the shortlex lasso's sets
PATH_CAP = 32  # words of a finite L; simple-path words of the pumping route
CYCLE_CAP = 32  # simple cycles of the pumping route


# --- relations over word pairs -------------------------------------------------

def relation_pairs(relation: Nfa, max_len: int) -> set[tuple[Word, Word]]:
    """All related (x, y) pairs with both words of length ≤ max_len, by enumeration."""
    return accepted_assignments(absorb_pad(pad_suffix(relation)), max_len)


# --- specs ---------------------------------------------------------------------

@dataclass(frozen=True)
class OrderedLanguageSpec:
    """A first word plus a successor-function automaton over variables x, y."""

    first_word: Word
    successor: Nfa

    def __post_init__(self):
        if self.successor.vars != ("x", "y"):
            raise ValueError("successor automaton must be over variables (x, y)")
        if PAD in self.first_word:
            raise ValueError(f"the first word holds the pad symbol {PAD!r}")
        stray = set(self.first_word) - self.successor.symbols
        if stray:
            raise ValueError(f"symbol {min(stray)!r} of the first word is outside "
                             "the successor's alphabet")


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
    """∀∃-NFH for a finite language: every word demands the cyclically next one.
    Word i of the sorted language gets a path of [x=w_i, y=w_(i+1 mod k)], the
    shorter padded, then an all-pad letter into a final state with an all-pad
    self-loop; the path's end and that state accept.  Fixed-width tags keep
    the initial states in word order under ``repr``, in which ``render_nfa``
    names them.  ``ValueError`` if a word holds the pad or a symbol outside
    ``alphabet``, whose pad, if any, is not a symbol of the NFH."""
    language = sorted({as_word(w) for w in words})
    if not language:
        raise EmptyLanguage("cannot realize the empty language")
    used = {s for w in language for s in w}
    symbols = (set(alphabet) if alphabet is not None else set(used)) - {PAD}
    stray = used - symbols
    if stray:
        raise ValueError(f"symbol {min(stray)!r} of a word is outside the alphabet")
    symbols = symbols or {"a"}
    width = len(str(len(language) - 1))
    all_pad = (PAD, PAD)
    states, initial, accepting, transitions = set(), set(), set(), set()
    for i, (w, s) in enumerate(zip(language, language[1:] + language[:1])):
        n = max(len(w), len(s))
        path = [(f"{i:0{width}d}", j) for j in range(n + 2)]
        columns = itertools.zip_longest(w, s, fillvalue=PAD)
        transitions.update((path[j], column, path[j + 1])
                           for j, column in enumerate(columns))
        transitions |= {(path[n], all_pad, path[-1]), (path[-1], all_pad, path[-1])}
        states.update(path)
        initial.add(path[0])
        accepting |= {path[n], path[-1]}
    underlying = Nfa(symbols | {PAD}, states, initial, accepting, transitions,
                     ("x", "y"))
    return Nfh(frozenset(symbols), QuantifierPrefix((("A", "x"), ("E", "y"))),
               underlying)


def _first_word_product(words: tuple[Word, ...], a: Nfa, vars: tuple[str, ...]) -> Nfa:
    """``absorb_pad(compose_free(*lines, b))``, ``lines`` the word automata of
    ``words`` on x1..xm over a's symbols but the pad and ``b`` the track
    automaton ``a`` with its tracks named ``vars``, in one ``explore`` over
    (line state, state of a).  The line reads the words' padded columns,
    then all-pad ones: on one word, the composition's states and letters.
    The words hold no pad, so a state absorbs where the line has ended and
    a's state reaches, over all-pad letters, an accepting state or a's pad
    state."""
    columns = list(itertools.zip_longest(*words, fillvalue=PAD))
    columns += [(PAD,) * len(words)] * 2
    line = [f"q{i}" for i in range(len(columns) - 1)] + [("pad", 0)]
    line_moves = dict(zip(line, zip(columns, line[1:] + line[-1:])))
    a_pad = fresh_state(a.states, "pad")
    all_pad = (PAD,) * len(vars)
    absorbing = pad_coreach(a, a.accepting | {a_pad})
    moves = a.moves_from()
    joint_vars = tuple(f"x{i + 1}" for i in range(len(words))) + tuple(vars)

    def step(state):
        position, q = state
        column, after = line_moves[position]
        for letter, p in moves.get(q, ()):
            yield column + letter, (after, p)
        if q in a.accepting or q == a_pad:
            yield column + all_pad, (after, a_pad)

    line_symbols = ((a.symbols - {PAD}) or {"a"}) | {s for w in words for s in w}
    return explore({(line[0], q) for q in a.initial}, step,
                   lambda state: state[0] in line[-2:] and state[1] in absorbing,
                   line_symbols | a.symbols | {PAD}, joint_vars)


def realize_ordered(spec: OrderedLanguageSpec) -> Nfh:
    """∃∀∃-NFH for an ordered language: a chain reaction from the first word."""
    underlying = _first_word_product((spec.first_word,), spec.successor, ("x2", "x3"))
    if not underlying.accepting:
        raise EmptyLanguage("the successor relation is empty")
    prefix = QuantifierPrefix((("E", "x1"), ("A", "x2"), ("E", "x3")))
    return Nfh(frozenset(spec.successor.symbols - {PAD}), prefix, underlying)


# --- successor-counting automata -----------------------------------------------

def _successor_product(relation: Nfa, i: int) -> Nfa:
    """P_i, the joint automaton over (z, y1..yi): i relation copies sharing
    the z-track, accepting only when y1 < … < yi column by column on the
    padded words, the pad least.  Any i distinct successors can be listed so.

    States are (per-copy states, an "already apart" flag per adjacent pair);
    a pair ordered the wrong way is pruned at its first differing column.
    """
    closed = pad_suffix(relation)
    key = lambda s: (s != PAD, s)
    # a pair's flag after a column (s, t) where it is not yet apart; None: pruned
    after = {(s, t): key(s) < key(t) if key(s) <= key(t) else None
             for s in closed.symbols for t in closed.symbols}
    by_x: dict = {}
    for q, (x_sym, y_sym), p in closed.transitions:
        by_x.setdefault(q, {}).setdefault(x_sym, []).append((y_sym, p))
    joint_vars = ("z",) + tuple(f"y{j + 1}" for j in range(i))

    def step(state):
        copies, apart = state
        per_copy = [by_x.get(q, {}) for q in copies]
        for x_sym in set(per_copy[0]).intersection(*per_copy[1:]):
            for combo in itertools.product(*(moves[x_sym] for moves in per_copy)):
                y_syms = tuple(y for y, _ in combo)
                flags = tuple(done or after[pair]
                              for done, pair in zip(apart, zip(y_syms, y_syms[1:])))
                if None not in flags:
                    yield (x_sym,) + y_syms, (tuple(p for _, p in combo), flags)

    initial = {(combo, (False,) * (i - 1))
               for combo in itertools.product(closed.initial, repeat=i)}
    return explore(initial, step,
                   lambda state: all(state[1])
                   and all(q in closed.accepting for q in state[0]),
                   closed.symbols, joint_vars)


def successors_ge(product: Nfa) -> Nfa:
    """Base-alphabet NFA for the z-words of a successor product P_i: the words
    with at least i distinct successors: P_i read on its z-track, track 0,
    with ``#`` as ε.  An all-pad letter reads ``#`` there, so its source
    accepts where its target does, and no pad absorption is needed."""
    transitions = {(q, letter[0], p) for q, letter, p in product.transitions}
    return elim_pad(Nfa(product.symbols | {PAD}, product.states, product.initial,
                        product.accepting, transitions))


def successors_exact(at_least: Nfa, more: Nfa, i: int) -> Nfa:
    """Words with exactly i successors: those of ``at_least`` (at least i)
    not in ``more`` (at least i+1), a trim automaton to be determinized:
    ``CapExceeded`` naming the count if it has more than ``DET_CAP`` states."""
    if len(more.states) > DET_CAP:
        raise CapExceeded(f"successor count {i}: determinization input has "
                          f"{len(more.states)} states (cap {DET_CAP})")
    return difference(at_least, more)


def _successor_counts(relation: Nfa, k: int) -> Iterator[tuple[Nfa, Nfa]]:
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
        yield product, successors_exact(at_least, more, i)
        product, at_least = next_product, more


# --- partially ordered languages -----------------------------------------------

def _count_part(product: Nfa, exact: Nfa, vars: tuple[str, ...]) -> Nfa:
    """P_i with ``exact`` (padded) run on its z-track: z a word with exactly
    i successors and y1..yi those successors; letters widen to ``vars`` by
    copies of the z-symbol."""
    base = pad_suffix(exact)
    moves, moves_base = product.moves_from(), base.moves_from()
    copies = len(vars) - len(product.vars)

    def step(state):
        q, b = state
        for letter, q2 in moves.get(q, ()):
            for z, b2 in moves_base.get(b, ()):
                if z == letter[0]:
                    yield letter + (letter[0],) * copies, (q2, b2)

    return explore({(q, b) for q in product.initial for b in base.initial}, step,
                   lambda state: state[0] in product.accepting
                   and state[1] in base.accepting, product.symbols | base.symbols, vars)


def realize_partially_ordered(spec: PartialOrderSpec) -> Nfh:
    """∃^m ∀ ∃^k NFH: minimal words exist, and every word demands its
    successors.  The counts' parts are united, then read with the words."""
    k = spec.max_successors
    symbols = {s for s in spec.relation.symbols if s != PAD}
    symbols |= {s for w in spec.minimal_words for s in w}
    vars = ("z",) + tuple(f"y{i + 1}" for i in range(k))
    parts = [_count_part(product, exact, vars)
             for product, exact in _successor_counts(spec.relation, k)]
    parts = [part for part in parts if part.accepting]
    if not parts:
        raise EmptyLanguage("no word of the relation's domain has 1..k successors")
    underlying = _first_word_product(spec.minimal_words, union(*parts), vars)
    x_names = underlying.vars[:len(spec.minimal_words)]
    prefix = QuantifierPrefix(tuple(("E", x) for x in x_names) + (("A", "z"),)
                              + tuple(("E", y) for y in vars[1:]))
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
        transitions.add((q, (s, s), p))
    for q, letters in extensions.items():
        for s in letters or [PAD]:
            transitions.add((q, (PAD, s), final))
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
        transitions.add((q, (s,) * (k + 1), p))
    for q, letters in extensions.items():
        transitions.add((q, (PAD, *letters) + (PAD,) * (k - len(letters)), final))
    component = Nfa(t.symbols | {PAD}, t.states | {final}, t.initial, {final},
                    transitions, joint_vars)

    underlying = _first_word_product(((),), component, joint_vars)
    prefix = QuantifierPrefix((("E", "x1"), ("A", "z"))
                              + tuple(("E", y) for y in y_names))
    return Nfh(frozenset(t.symbols - {PAD}), prefix, underlying)


# --- general regular languages -------------------------------------------------

def _simple_paths(a: Dfa) -> list[Word]:
    """Words reaching accepting states along simple paths from the start
    state: all of L when L is finite.  Refuses an empty L, and more than
    ``PATH_CAP`` words."""
    out: list[Word] = []
    moves = a.moves_from()
    stack = [(a.start, (), frozenset({a.start}))]  # a stack, not a closure calling itself
    while stack:
        q, word, visited = stack.pop()
        if q in a.accepting:
            out.append(word)
        stack.extend((p, word + (s,), visited | {p})
                     for s, p in moves.get(q, ()) if p not in visited)
    words = sorted(set(out))
    if not words:
        raise EmptyLanguage("the language is empty")
    if len(words) > PATH_CAP:
        raise CapExceeded(f"{len(words)} simple-path words exceed the cap {PATH_CAP}")
    return words


def _simple_cycles(a: Dfa) -> list[tuple[object, Word]]:
    """(state q, word c) pairs where c is read along a simple cycle at q,
    in depth-first order over the moves sorted by ``repr``."""
    out = []
    moves = a.moves_from()
    for q in sorted(a.states, key=repr):
        stack = [(q, (), frozenset({q}))]
        while stack:
            cur, word, visited = stack.pop()
            if cur == q and word:  # back at q
                out.append((q, word))
                continue
            stack.extend((p, word + (s,), visited | {p}) for s, p in
                         reversed(sorted(moves.get(cur, ()), key=repr))
                         if p == q or p not in visited)
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
                yield (s, y_sym), ("pump", r, j, rest + (s,))
        if x_state is None or x_state in a.accepting:
            yield (PAD, y_sym), ("pump", None, j, rest)

    def step(state):
        if state[0] == "pump":
            yield from pump_steps(*state[1:])
        else:
            _, q, visited = state
            for s, r in moves.get(q, []):
                if r not in visited:
                    yield (s, s), ("walk", r, visited | {r})
            if q == p:
                yield from pump_steps(q, 0, ())

    return explore({("walk", a.start, frozenset({a.start}))}, step,
                   lambda s: s[0] == "pump" and s[1] is None and s[2] == n and not s[3],
                   a.symbols | {PAD}, ("x", "y"))


def regular_relation(a: Dfa) -> PartialOrderSpec:
    """Cycle-pumping successor relation of a regular language (plus reflexivity)."""
    paths = _simple_paths(a)
    cycles = _simple_cycles(a)
    if len(cycles) > CYCLE_CAP:
        raise CapExceeded(f"{len(cycles)} simple cycles exceed the cap {CYCLE_CAP}")
    parts = [compose_sync(a, a, track_vars=("x", "y"))]
    for q, c in cycles:
        component = _pump_component(a, q, c)
        if component.accepting:
            parts.append(component)
    relation = union(*parts)
    k = 1 + len(cycles)
    return PartialOrderSpec(tuple(paths), relation, k)


def realize_regular(a: Dfa) -> Nfh:
    """∃^m ∀ ∃^k NFH for a regular language, via the cycle-pumping relation."""
    return realize_partially_ordered(regular_relation(a))


# --- the shortlex successor ----------------------------------------------------

def _length_sets(a: Dfa) -> tuple[dict, list[frozenset], int]:
    """L's length sets on its trimmed DFA: S_0 = F, and S_{m+1} the states
    with a move into S_m, which have a word of length m + 1 into F.  The
    sequence is a lasso: returns the moves (each state's in letter order),
    the distinct sets S_0..S_{l-1}, and the index at which S_l repeats.  A
    finite L has at most |Q| + 1 sets, so ``CapExceeded``, past that many
    or ``DET_CAP`` if more, refuses only an infinite L."""
    t = trim(a)
    moves = {q: sorted(m) for q, m in t.moves_from().items()}  # one move per letter
    cap = max(DET_CAP, len(t.states) + 1)
    sets = [t.accepting]
    index = {t.accepting: 0}
    while True:
        pre = frozenset(q for q, m in moves.items() if any(p in sets[-1] for _, p in m))
        if pre in index:
            return moves, sets, index[pre]
        if len(sets) == cap:
            raise CapExceeded(f"shortlex length sets: more than {cap} distinct "
                              f"sets (cap {cap})")
        index[pre] = len(sets)
        sets.append(pre)


def shortlex_successor(a: Dfa) -> Nfa:
    """Tightly padded track NFA over (x, y) for the shortlex successor
    within L(a): u, v ∈ L, u < v, and no word of L lies strictly between.

    The radix successor of a rational language is a finite union of
    sequential functions (Angrand & Sakarovitch, RAIRO-ITA 44, 2010), read
    here off ``_length_sets``.  A track guesses the lasso index of the
    letters it has left and counts it down; only the right guess reaches 0
    as the track ends.  If |v| = |u|, they share a prefix, then split at
    letters b < c, c the least letter above b into the set of the rest;
    after that u reads the greatest letter into it and v the least.
    Otherwise u is the greatest word of its length n and v the least of the
    next length of L, n + d, where the index of n, u's first guess, fixes d.
    """
    return _successor_on_lasso(a, *_length_sets(a))


def _successor_on_lasso(a: Dfa, moves: dict, sets: list[frozenset], loop: int) -> Nfa:
    """``shortlex_successor`` of ``a``, given the lasso of ``_length_sets(a)``."""
    size = len(sets)

    def index(m):
        return m if m < size else loop + (m - loop) % (size - loop)

    pred = {i: [j for j in range(size) if index(j + 1) == i] for i in range(size)}
    gap = {i: next((d for d in range(1, size + 1) if a.start in sets[index(i + d)]),
                   None) for i in range(size)}
    symbols = a.symbols | {PAD}

    def into(q, i):
        """q's (letter, target) moves into S_i, in letter order."""
        return [(s, p) for s, p in moves.get(q, ()) if p in sets[i]]

    def step(state):
        if state[0] == "eq":  # a shared prefix with index i left on both tracks
            _, q, i = state
            for j in pred[i]:
                options = into(q, j)
                for s, p in options:
                    yield (s, s), ("eq", p, j)
                for (b, pb), (c, pc) in zip(options, options[1:]):
                    yield (b, c), ("apart", pb, j, pc, 0)
            return
        # x greatest, y least with d more letters left; qx None once x ended
        _, qx, i, qy, d = state
        for j in pred[i] if qx is not None else ():
            xs, ys = into(qx, j), into(qy, index(j + d))
            if xs and ys:
                yield (xs[-1][0], ys[0][0]), ("apart", xs[-1][1], j, ys[0][1], d)
        ys = into(qy, index(d - 1)) if i == 0 and d else ()
        if ys:
            yield (PAD, ys[0][0]), ("apart", None, 0, ys[0][1], d - 1)

    starts = [i for i in range(size) if a.start in sets[i]]
    initial = [("eq", a.start, i) for i in starts]
    initial += [("apart", a.start, i, a.start, gap[i]) for i in starts if gap[i]]
    return explore(initial, step, lambda q: q[0] == "apart" and q[2] == q[4] == 0,
                   symbols, ("x", "y"))


def _lasso_words(moves: dict, sets: list[frozenset], q, m: int) -> Iterator[Word]:
    """The words of length m < len(sets) from q into F, in letter order: each
    move into S_(m-1) of the lasso of ``_length_sets`` starts at least one."""
    if m == 0:
        yield ()
        return
    for s, p in moves.get(q, ()):
        if p in sets[m - 1]:
            yield from ((s,) + w for w in _lasso_words(moves, sets, p, m - 1))


def realize_shortlex(a: Dfa) -> Nfh:
    """NFH for a regular language.  On an infinite L, ∃∀∃: its shortlex-least
    word exists, and every word demands its shortlex successor within L,
    which is total there and chains L's words in order.  A finite L, whose
    greatest word has no successor, is ``realize_finite`` on its words (∀∃),
    counted against ``PATH_CAP`` before they are read.  L is infinite iff a
    set of the lasso's loop holds the start; its least word is the first one
    of its least length."""
    moves, sets, loop = _length_sets(a)
    lengths = [m for m, s in enumerate(sets) if a.start in s]
    if not lengths:
        raise EmptyLanguage("the language is empty")
    if lengths[-1] >= loop:
        least = next(_lasso_words(moves, sets, a.start, lengths[0]))
        return realize_ordered(OrderedLanguageSpec(
            least, _successor_on_lasso(a, moves, sets, loop)))
    counts, total = dict.fromkeys(sets[0], 1), 0  # words per state, by length
    for _ in sets:
        total += counts.get(a.start, 0)
        counts = {q: sum(counts.get(p, 0) for _, p in ms) for q, ms in moves.items()}
    if total > PATH_CAP:
        raise CapExceeded(f"{total} simple-path words exceed the cap {PATH_CAP}")
    return realize_finite([w for m in lengths
                           for w in _lasso_words(moves, sets, a.start, m)], a.symbols)
