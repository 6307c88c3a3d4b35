"""Rule graphs, left/right ranks, and the ranked-grammar (synchronicity) check.

A vertex of the rule graph is either a grammar variable (a string) or a rule
right-hand side (a tuple of terminals and variables).  The left rank of a
vertex collects the word variables that every derivation from it pads at its
left boundary (alternatives intersect); the right rank collects those that
some derivation pads at its right boundary (alternatives accumulate).  A
grammar is ranked when no rule can place a pad-producing symbol before a
letter-producing one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import TrackLetter, closure
from .cfg import Cfg


def letter_pads(token) -> frozenset[str]:
    """t(σ): the word variables a terminal letter assigns the pad marker."""
    if isinstance(token, TrackLetter):
        return token.pad_vars()
    return frozenset()


@dataclass(frozen=True)
class RuleGraph:
    """Vertices (variables and right-hand sides) with the two edge relations."""

    vertices: tuple
    left_edges: frozenset
    right_edges: frozenset


def build_rule_graph(g: Cfg) -> RuleGraph:
    """Edges: variable → its bodies; a body pointing back to its boundary variable."""
    rules = [(v, body) for v, body in g.rules if body]
    bodies = {body for _, body in rules}

    def edges(end):
        return frozenset(rules) | {(body, body[end]) for body in bodies
                                   if g.is_variable(body[end])}

    return RuleGraph(tuple(sorted(g.variables | bodies, key=repr)),
                     edges(0), edges(-1))


@dataclass(frozen=True)
class RankTable:
    """Final left and right ranks per vertex."""

    left: dict
    right: dict

    def symbol_left(self, g: Cfg, token) -> frozenset[str]:
        return self.left[token] if g.is_variable(token) else letter_pads(token)

    def symbol_right(self, g: Cfg, token) -> frozenset[str]:
        return self.right[token] if g.is_variable(token) else letter_pads(token)


def _variable_ranks(g: Cfg, end: int) -> dict:
    """The rank of every variable on one side: ``end`` is 0 for L, -1 for R.

    rank(V) combines the ranks of the boundary symbols of V's non-empty
    bodies, a letter's rank being its pad set.  Across alternatives the left
    rank is a guarantee (every derivation pads these tracks), so alternatives
    intersect, starting from all tracks; the right rank is a possibility, so
    alternatives accumulate, starting from ∅.  A variable that reaches no
    letter along boundaries (no rule, only ε rules, a letterless cycle) keeps
    ∅.  A worklist (Kildall, 1973) recomputes a variable only when one of its
    boundary variables changed, and a rank changes at most |tracks| + 1 times.
    """
    combine = frozenset.intersection if end == 0 else frozenset.union
    letters: dict = {v: [] for v in g.variables}  # V -> its boundary letters' pads
    inner: dict = {v: [] for v in g.variables}    # V -> its boundary variables
    bounded_by: dict = {}  # W -> the variables with a body bounded by W
    for v, body in g.rules:
        if body:
            token = body[end]
            if g.is_variable(token):
                inner[v].append(token)
                bounded_by.setdefault(token, []).append(v)
            else:
                letters[v].append(letter_pads(token))
    live = closure([v for v in g.variables if letters[v]],
                   lambda w: bounded_by.get(w, ()))
    # every padded track: as high as a live left rank can be
    start = (frozenset().union(*(p for pads in letters.values() for p in pads))
             if end == 0 else frozenset())
    rank = dict.fromkeys(g.variables, frozenset())
    for v in live:
        rank[v] = combine(start, *letters[v])
    queued = live
    work = list(queued)
    while work:
        v = work.pop()
        queued.discard(v)
        new = combine(rank[v], *(rank[w] for w in inner[v]))
        if new != rank[v]:
            rank[v] = new
            for u in bounded_by.get(v, ()):
                if u not in queued:
                    queued.add(u)
                    work.append(u)
    return rank


def compute_ranks(g: Cfg) -> RankTable:
    """Left and right ranks of every variable and right-hand side; a body's
    rank is the rank of its boundary symbol."""
    sides = []
    for end in (0, -1):
        rank = _variable_ranks(g, end)
        for _, body in g.rules:
            if body:
                token = body[end]
                rank[body] = rank[token] if g.is_variable(token) else letter_pads(token)
        sides.append(rank)
    return RankTable(*sides)


@dataclass(frozen=True)
class RankedVerdict:
    """Outcome of the ranked check: empty violations means the grammar is ranked."""

    violations: tuple

    @property
    def ranked(self) -> bool:
        return not self.violations


def is_ranked(g: Cfg, table: RankTable | None = None) -> RankedVerdict:
    """Check R(γ_i) ⊆ L(γ_{i+1}) for every adjacent pair of every rule body."""
    if table is None:
        table = compute_ranks(g)
    violations = []
    for v, body in g.rules:
        for i in range(len(body) - 1):
            r = table.symbol_right(g, body[i])
            l = table.symbol_left(g, body[i + 1])
            if not r <= l:
                violations.append(((v, body), i, r, l))
    # rules in text order; a rule's violations stay in position order
    violations.sort(key=lambda violation: repr(violation[0]))
    return RankedVerdict(tuple(violations))
