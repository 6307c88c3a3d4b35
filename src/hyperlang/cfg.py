"""Context-free grammars over base symbols or track letters.

A rule body is a tuple mixing terminals and variable names.  Variables are
plain strings listed in ``Cfg.variables``; anything else in a body is a
terminal (a base symbol string or a ``TrackLetter``).

Membership needs no CNF: its one engine, ``derives_span``, is Earley's
method read as deduction on the grammar's binary index, built once and
cached on the ``Cfg``.  It serves ``cfg_intersect_empty``, the pad-anywhere
leaf of ``cfhg`` and ``cyk_member``: the span fixpoint on a word read as a
chain.  ``to_cnf`` serves the reference route ``bar_hillel``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Collection, Iterable

from .core import TrackLetter, closure
from .errors import AlphabetMismatch, CapExceeded
from .nfa import Nfa

# derive_bounded counts its words over all variables, and the witness
# search's cfhg.derived_assignments its track tuples per variable
DERIVATION_CAP = 10 ** 4


class Cfg:
    """An immutable context-free grammar."""

    __slots__ = ("variables", "start", "rules", "_index", "_terminals")

    def __init__(self, variables: Iterable[str], start: str, rules: Iterable[tuple]):
        self.variables = frozenset(variables)
        self.start = start
        self.rules = frozenset((v, tuple(body)) for v, body in rules)
        if start not in self.variables:
            raise ValueError(f"start symbol {start!r} is not a declared variable")
        for v, body in self.rules:
            if v not in self.variables:
                raise ValueError(f"rule head {v!r} is not a declared variable")
        self._index = self._terminals = None  # the index and terminals, built on first use

    def is_variable(self, token) -> bool:
        return isinstance(token, str) and token in self.variables

    def terminals(self) -> frozenset:
        if self._terminals is None:
            self._terminals = (frozenset(t for _, body in self.rules for t in body)
                               - self.variables)
        return self._terminals


def _productive(rules: Iterable[tuple], variables) -> set[str]:
    """Least fixpoint of the heads that derive some terminal word."""
    productive: set[str] = set()
    changed = True
    while changed:
        changed = False
        for v, body in rules:
            if v not in productive and all(t in productive or t not in variables
                                           for t in body):
                productive.add(v)
                changed = True
    return productive


def cfg_empty(g: Cfg) -> bool:
    """True iff the grammar derives no terminal word."""
    return g.start not in _productive(g.rules, g.variables)


def _reachable(start: str, rules: Iterable[tuple], variables) -> set[str]:
    succ: dict = {}
    for v, body in rules:
        succ.setdefault(v, []).extend(t for t in body if t in variables)
    return closure({start}, lambda v: succ.get(v, ()))


def cleanup(g: Cfg) -> Cfg:
    """Normalize: eliminate inner ε-rules, drop useless variables.

    The result keeps at most one ε-rule, on a start symbol that never occurs
    on a right-hand side.  The language is unchanged.
    """
    # the nullable variables: those that derive ε through variable-only bodies
    nullable = _productive([(v, body) for v, body in g.rules
                            if all(t in g.variables for t in body)], g.variables)

    # Expand each body over the nullable subsets of its variables; with no
    # nullable variable there is no ε-rule and every body stays as it is.
    rules = g.rules
    if nullable:
        rules = set()
        for v, body in g.rules:
            expansions = [()]
            for token in body:
                if token in nullable:
                    expansions = [e + (token,) for e in expansions] + expansions
                else:
                    expansions = [e + (token,) for e in expansions]
            for e in expansions:
                if e:
                    rules.add((v, e))

    start = g.start
    variables = set(g.variables)
    derives_eps = g.start in nullable
    if derives_eps:
        if any(start in body for _, body in rules):
            fresh = start
            while fresh in variables:
                fresh = fresh + "'"
            rules.add((fresh, (start,)))
            rules.add((fresh, ()))
            variables.add(fresh)
            start = fresh
        else:
            rules.add((start, ()))

    keep = _productive(rules, variables)
    if start not in keep:
        # Empty language: keep just the start symbol with no rules.
        return Cfg({start}, start, ())
    rules = [(v, body) for v, body in rules
             if v in keep and all(t in keep or t not in variables for t in body)]
    reach = _reachable(start, rules, variables)
    return Cfg(reach, start, [(v, body) for v, body in rules if v in reach])


def to_cnf(g: Cfg) -> Cfg:
    """Chomsky normal form: rules A→BC, A→a, and at most start→ε."""
    g = cleanup(g)

    variables = set(g.variables)
    counter = itertools.count()

    def fresh(base: str) -> str:
        name = next(n for n in (f"{base}_{i}" for i in counter) if n not in variables)
        variables.add(name)
        return name

    # Wrap terminals occurring in long bodies.
    term_var: dict = {}
    rules: set[tuple] = set()
    for v, body in g.rules:
        if len(body) <= 1:
            rules.add((v, body))
            continue
        wrapped = []
        for token in body:
            if g.is_variable(token):
                wrapped.append(token)
            else:
                if token not in term_var:
                    tv = fresh("T")
                    term_var[token] = tv
                    rules.add((tv, (token,)))
                wrapped.append(term_var[token])
        rules.add((v, tuple(wrapped)))

    # Break long bodies into binary chains.
    binary: set[tuple] = set()
    for v, body in rules:
        while len(body) > 2:
            link = fresh("B")
            binary.add((v, (body[0], link)))
            v, body = link, body[1:]
        binary.add((v, body))

    # Eliminate unit rules A→B by inlining the non-unit bodies of every
    # variable in A's unit closure, indexed by head.
    units: dict = {}
    non_unit: dict = {}
    for v, body in binary:
        if len(body) == 1 and body[0] in variables:
            units.setdefault(v, []).append(body[0])
        else:
            non_unit.setdefault(v, []).append(body)
    result: set[tuple] = set()
    for v in variables:
        for w in closure({v}, lambda u: units.get(u, ())):
            result.update((v, body) for body in non_unit.get(w, ()))

    # Every variable still derives what it did, so all stay productive; the
    # variables reached only through unit rules are dropped.
    reach = _reachable(g.start, result, variables)
    return Cfg(reach, g.start, [(v, body) for v, body in result if v in reach])


def _index(g: Cfg) -> tuple[dict, dict]:
    """The grammar's binary index, built once per grammar: head -> its
    bodies of at most two symbols, and stand-in -> terminal.  Longer bodies
    are split into chains through fresh links.  A link, and the stand-in that
    bodies hold for a terminal, is an ``object()``: it equals no variable or
    terminal, and hashes fast."""
    if g._index is not None:
        return g._index
    bodies: dict = {}  # head -> its bodies of at most two symbols
    leaves: dict = {}  # terminal -> the stand-in that bodies hold
    for v, body in g.rules:
        body = [t if t in g.variables else leaves.setdefault(t, object()) for t in body]
        while len(body) > 2:
            link = object()
            bodies.setdefault(link, []).append((body[-2], body[-1]))
            body[-2:] = [link]
        bodies.setdefault(v, []).append(tuple(body))
    g._index = bodies, {leaf: t for t, leaf in leaves.items()}
    return g._index


def cyk_member(g: Cfg, w) -> bool:
    """Membership of the terminal sequence ``w``, for any grammar: the span
    fixpoint on ``w`` read as a chain, letter i taking position i to i + 1."""
    word = tuple(w)
    spans: dict = {}
    for i, letter in enumerate(word):
        spans.setdefault(letter, []).append((i, i + 1))
    return derives_span(g, lambda letter: spans.get(letter, ()), (0,), (len(word),))


def bar_hillel(g: Cfg, a: Nfa) -> Cfg:
    """Grammar for L(g) ∩ L(a), with triple-indexed variables (p, V, q),
    built on the CNF of ``g``."""
    g = to_cnf(g)
    grammar_terminals = g.terminals()
    track_terms = [t for t in grammar_terminals if isinstance(t, TrackLetter)]
    if track_terms and not a.is_track:
        raise AlphabetMismatch("track grammar intersected with a base automaton")
    if not track_terms and grammar_terminals and a.is_track:
        raise AlphabetMismatch("base grammar intersected with a track automaton")

    states = sorted(a.states, key=repr)
    rules: set[tuple] = set()
    variables: set[str] = set()

    def name(p, v, q) -> str:
        return f"<{p!r},{v},{q!r}>"

    for v, body in g.rules:
        if len(body) == 1 and not g.is_variable(body[0]):
            letter = body[0]
            for q, l, p in a.transitions:
                if l == letter:
                    variables.add(name(q, v, p))
                    rules.add((name(q, v, p), (letter,)))
        elif len(body) == 2:
            b, c = body
            for p in states:
                for q in states:
                    for r in states:
                        variables.add(name(p, v, r))
                        rules.add((name(p, v, r), (name(p, b, q), name(q, c, r))))
                        variables.add(name(p, b, q))
                        variables.add(name(q, c, r))

    start = "S!"
    variables.add(start)
    for q0 in sorted(a.initial, key=repr):
        for qf in sorted(a.accepting, key=repr):
            variables.add(name(q0, g.start, qf))
            rules.add((start, (name(q0, g.start, qf),)))
    if (g.start, ()) in g.rules and a.initial & a.accepting:
        rules.add((start, ()))
    return cleanup(Cfg(variables, start, rules))


def cfg_intersect_empty(g: Cfg, a: Nfa) -> bool:
    """True iff L(g) ∩ L(a) = ∅, without materializing the Bar-Hillel
    product."""
    by_letter: dict = {}
    for q, l, p in a.transitions:
        by_letter.setdefault(l, []).append((q, p))
    return not derives_span(g, lambda letter: by_letter.get(letter, ()),
                            a.initial, a.accepting)


def _by_start(spans: Iterable[tuple]) -> dict:
    """The pairs (p, q) grouped by p: p -> [q]."""
    grouped: dict = {}
    for p, q in spans:
        grouped.setdefault(p, []).append(q)
    return grouped


def derives_span(g: Cfg, letter_spans: Callable[[object], Iterable[tuple]],
                 sources: Collection, targets: Collection) -> bool:
    """Does the grammar derive a word that takes some source to some target?
    ``letter_spans(a)`` lists the pairs (p, q) that terminal ``a`` takes p to.

    Earley's method (1970) read as deduction (Pereira & Warren, 1983): X is
    predicted at p only when an item needs it there, the start first at each
    source, and a body's leading letter is matched as it is predicted.  An
    item (key, rest, q) has read its body up to ``rest`` from the key's
    position to q; a new span advances every item that waits for the key, and
    a later waiter replays the spans found.  The start at a source is bound,
    and so is the last symbol of a bound body: its key keeps only the spans
    that end in a target (the bound end of magic sets, Bancilhon et al. 1986),
    so right recursion stays linear.  Each letter's spans are read once, when
    a derivation first reaches it.
    """
    bodies, leaves = _index(g)
    start = g.start
    moves: dict = {}    # stand-in -> p -> [q], read on first use
    ends: dict = {}     # key (X, p, bound) -> {q}: the spans found for X from p
    waiters: dict = {}  # key -> [(key, rest)]: the items that wait for it
    work: list[tuple] = []
    push = work.append
    for p in sources:
        key = start, p, True
        ends[key], waiters[key] = set(), []
        for body in bodies.get(start, ()):
            push((key, body, p))
    while work:
        key, rest, q = work.pop()
        if not rest:  # a span of the key's symbol from its position to q
            found = ends[key]
            if q not in found:
                if key[2]:
                    if q not in targets:
                        continue
                    if key[0] == start and key[1] in sources:
                        return True
                found.add(q)
                for item in waiters[key]:
                    push((*item, q))
            continue
        y, rest = rest[0], rest[1:]
        if y in leaves:
            spans = moves.get(y)
            if spans is None:
                spans = moves[y] = _by_start(letter_spans(leaves[y]))
            for r in spans.get(q, ()):
                push((key, rest, r))
            continue
        child = y, q, key[2] and not rest
        found = ends.get(child)
        if found is not None:
            waiters[child].append((key, rest))
            for r in found:
                push((key, rest, r))
            continue
        ends[child], waiters[child] = set(), [(key, rest)]
        for body in bodies.get(y, ()):
            if body and body[0] in leaves:
                spans = moves.get(body[0])
                if spans is None:
                    spans = moves[body[0]] = _by_start(letter_spans(leaves[body[0]]))
                for r in spans.get(q, ()):
                    push((child, body[1:], r))
            else:
                push((child, body, q))
    return False


def derive_bounded(g: Cfg, n: int) -> set:
    """All terminal words of length at most ``n``.

    Returned words are tuples of terminals.  Computes, per variable, the set
    of derivable words up to the bound as a monotone fixpoint; robust to unit
    and ε cycles.  More than ``DERIVATION_CAP`` words over all variables raise
    ``CapExceeded``.
    """
    if n < 0:
        return set()
    langs: dict[str, set[tuple]] = {v: set() for v in g.variables}
    total = 0
    changed = True
    while changed:
        changed = False
        for v, body in g.rules:
            combos = {()}
            for token in body:
                pieces = langs[token] if g.is_variable(token) else {(token,)}
                combos = {c + p for c in combos for p in pieces
                          if len(c) + len(p) <= n}
                if not combos:
                    break
            fresh = combos - langs[v]
            if fresh:
                langs[v] |= fresh
                total += len(fresh)
                if total > DERIVATION_CAP:
                    raise CapExceeded(f"grammar derivations: more than {DERIVATION_CAP} "
                                      f"words (cap {DERIVATION_CAP})")
                changed = True
    return langs[g.start]
