"""Context-free grammars over base symbols or track letters.

A rule body is a tuple mixing terminals and variable names.  Variables are
plain strings listed in ``Cfg.variables``; anything else in a body is a
terminal (a base symbol string or a ``TrackLetter``).
"""

from __future__ import annotations

from typing import Iterable

from .core import TrackLetter
from .errors import AlphabetMismatch, CapExceeded, NotCnf
from .nfa import Nfa


class Cfg:
    """An immutable context-free grammar."""

    __slots__ = ("variables", "start", "rules", "_by_var")

    def __init__(self, variables: Iterable[str], start: str, rules: Iterable[tuple]):
        self.variables = frozenset(variables)
        self.start = start
        self.rules = frozenset((v, tuple(body)) for v, body in rules)
        if start not in self.variables:
            raise ValueError(f"start symbol {start!r} is not a declared variable")
        for v, body in self.rules:
            if v not in self.variables:
                raise ValueError(f"rule head {v!r} is not a declared variable")
        self._by_var = None

    def bodies(self, var: str) -> list[tuple]:
        if self._by_var is None:
            by_var: dict = {}
            for v, body in self.rules:
                by_var.setdefault(v, []).append(body)
            for bodies in by_var.values():
                bodies.sort(key=repr)
            self._by_var = by_var
        return self._by_var.get(var, [])

    def is_variable(self, token) -> bool:
        return isinstance(token, str) and token in self.variables

    def terminals(self) -> frozenset:
        out = set()
        for _, body in self.rules:
            for token in body:
                if not self.is_variable(token):
                    out.add(token)
        return frozenset(out)


def productive_variables(g: Cfg) -> frozenset[str]:
    """Least fixpoint of variables that derive some terminal word."""
    productive: set[str] = set()
    changed = True
    while changed:
        changed = False
        for v, body in g.rules:
            if v in productive:
                continue
            if all(not g.is_variable(t) or t in productive for t in body):
                productive.add(v)
                changed = True
    return frozenset(productive)


def cfg_empty(g: Cfg) -> bool:
    """True iff the grammar derives no terminal word."""
    return g.start not in productive_variables(g)


def reachable_variables(g: Cfg) -> frozenset[str]:
    seen = {g.start}
    stack = [g.start]
    while stack:
        v = stack.pop()
        for body in g.bodies(v):
            for t in body:
                if g.is_variable(t) and t not in seen:
                    seen.add(t)
                    stack.append(t)
    return frozenset(seen)


def _nullable_variables(g: Cfg) -> frozenset[str]:
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for v, body in g.rules:
            if v in nullable:
                continue
            if all(g.is_variable(t) and t in nullable for t in body):
                nullable.add(v)
                changed = True
    return frozenset(nullable)


def cleanup(g: Cfg) -> Cfg:
    """Normalize: eliminate inner ε-rules, drop useless variables.

    The result keeps at most one ε-rule, on a start symbol that never occurs
    on a right-hand side.  The language is unchanged.
    """
    nullable = _nullable_variables(g)

    # Expand each body over the nullable subsets of its variables.
    rules: set[tuple] = set()
    for v, body in g.rules:
        expansions = [()]
        for token in body:
            if g.is_variable(token) and token in nullable:
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

    trimmed = Cfg(variables, start, rules)
    keep = productive_variables(trimmed)
    keep_rules = {
        (v, body) for v, body in trimmed.rules
        if (v in keep or not body) and all(not trimmed.is_variable(t) or t in keep
                                           for t in body)
    }
    if start not in keep:
        # Empty language: keep just the start symbol with no rules.
        return Cfg({start}, start, {(v, b) for v, b in keep_rules if v == start})
    trimmed = Cfg(keep | {start}, start, keep_rules)
    reach = reachable_variables(trimmed)
    return Cfg(reach, start,
               {(v, body) for v, body in trimmed.rules if v in reach})


def is_cnf(g: Cfg) -> bool:
    for v, body in g.rules:
        if not body:
            if v != g.start:
                return False
        elif len(body) == 1:
            if g.is_variable(body[0]):
                return False
        elif len(body) == 2:
            if not (g.is_variable(body[0]) and g.is_variable(body[1])):
                return False
        else:
            return False
    return True


def to_cnf(g: Cfg) -> Cfg:
    """Chomsky normal form: rules A→BC, A→a, and at most start→ε."""
    g = cleanup(g)

    variables = set(g.variables)

    def fresh(base: str) -> str:
        name = base
        i = 0
        while name in variables:
            i += 1
            name = f"{base}_{i}"
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

    # Eliminate unit rules A→B by inlining B's non-unit bodies.
    result: set[tuple] = set()
    is_var = lambda t: isinstance(t, str) and t in variables
    unit_closure: dict[str, set[str]] = {v: {v} for v in variables}
    changed = True
    unit_pairs = {(v, body[0]) for v, body in binary
                  if len(body) == 1 and is_var(body[0])}
    while changed:
        changed = False
        for v, w in unit_pairs:
            for t in list(unit_closure[w]):
                if t not in unit_closure[v]:
                    unit_closure[v].add(t)
                    changed = True
    non_unit = {(v, body) for v, body in binary
                if not (len(body) == 1 and is_var(body[0]))}
    for v in variables:
        for w in unit_closure[v]:
            for u, body in non_unit:
                if u == w:
                    result.add((v, body))

    return cleanup(Cfg(variables, g.start, result))


def cyk_member(g: Cfg, w) -> bool:
    """CYK table membership for a CNF grammar; ``w`` is a sequence of terminals."""
    if not is_cnf(g):
        raise NotCnf("cyk_member requires a grammar in Chomsky normal form")
    word = list(w.letters) if hasattr(w, "letters") else list(w)
    n = len(word)
    if n == 0:
        return (g.start, ()) in g.rules
    by_terminal: dict = {}
    pairs: list[tuple[str, str, str]] = []
    for v, body in g.rules:
        if len(body) == 1:
            by_terminal.setdefault(body[0], set()).add(v)
        elif len(body) == 2:
            pairs.append((v, body[0], body[1]))
    table = [[set() for _ in range(n)] for _ in range(n)]
    for i, letter in enumerate(word):
        table[0][i] = set(by_terminal.get(letter, set()))
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            cell = table[span - 1][i]
            for split in range(1, span):
                left = table[split - 1][i]
                right = table[span - split - 1][i + split]
                if not left or not right:
                    continue
                for v, b, c in pairs:
                    if b in left and c in right:
                        cell.add(v)
    return g.start in table[n - 1][0]


def bar_hillel(g: Cfg, a: Nfa) -> Cfg:
    """Grammar for L(g) ∩ L(a), with triple-indexed variables (p, V, q)."""
    if not is_cnf(g):
        raise NotCnf("bar_hillel requires a grammar in Chomsky normal form")
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
    """True iff L(g) ∩ L(a) = ∅, for a CNF grammar, without materializing
    the full Bar-Hillel product.

    Works on the sparse relation var → set of automaton state pairs (p, q)
    such that the variable derives some word taking p to q.
    """
    if not is_cnf(g):
        raise NotCnf("cfg_intersect_empty requires Chomsky normal form")
    by_letter: dict = {}
    for q, l, p in a.transitions:
        by_letter.setdefault(l, set()).add((q, p))
    spans: dict[str, set[tuple]] = {v: set() for v in g.variables}
    unary = [(v, body[0]) for v, body in g.rules
             if len(body) == 1 and not g.is_variable(body[0])]
    binary = [(v, body[0], body[1]) for v, body in g.rules if len(body) == 2]
    for v, letter in unary:
        spans[v] |= by_letter.get(letter, set())

    def done(v: str) -> bool:
        return any(p in a.initial and q in a.accepting for p, q in spans[v])

    if (g.start, ()) in g.rules and a.initial & a.accepting:
        return False
    changed = True
    while changed:
        changed = False
        for v, b, c in binary:
            right_by_start: dict = {}
            for p, q in spans[c]:
                right_by_start.setdefault(p, set()).add(q)
            new = set()
            for p, mid in spans[b]:
                for q in right_by_start.get(mid, set()):
                    if (p, q) not in spans[v]:
                        new.add((p, q))
            if new:
                spans[v] |= new
                changed = True
        if done(g.start):
            return False
    return not done(g.start)


def derive_bounded(g: Cfg, n: int, cap: int = 10 ** 6) -> set:
    """All terminal words of length at most ``n``.

    Returned words are tuples of terminals.  Computes, per variable, the set
    of derivable words up to the bound as a monotone fixpoint; robust to unit
    and ε cycles.
    """
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
                if total > cap:
                    raise CapExceeded("derivation enumeration exceeded the cap")
                changed = True
    return langs[g.start]
