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

from .core import TrackLetter
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


def _coded_rule_graph(g: Cfg):
    """The rule graph over integer vertex ids: (vertices, left successors,
    right successors), where ``vertices[i]`` is vertex i and each successor
    list holds ids.  Edges: variable → its bodies; a body → its boundary
    variable."""
    vertices: list = sorted(g.variables)
    ids: dict = {v: i for i, v in enumerate(vertices)}
    left: list[list[int]] = [[] for _ in vertices]
    right: list[list[int]] = [[] for _ in vertices]
    for v, body in g.rules:
        if not body:
            continue
        b = ids.get(body)
        if b is None:
            b = ids[body] = len(vertices)
            vertices.append(body)
            left.append([ids[body[0]]] if body[0] in g.variables else [])
            right.append([ids[body[-1]]] if body[-1] in g.variables else [])
        left[ids[v]].append(b)
        right[ids[v]].append(b)
    return vertices, left, right


def build_rule_graph(g: Cfg) -> RuleGraph:
    """Edges: variable → its bodies; a body pointing back to its boundary variable."""
    vertices, left, right = _coded_rule_graph(g)

    def edges(succ):
        return frozenset((vertices[a], vertices[b])
                         for a, targets in enumerate(succ) for b in targets)

    return RuleGraph(tuple(sorted(vertices, key=repr)), edges(left), edges(right))


def _tarjan_sccs(succ: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan over vertices 0..n-1; components are emitted
    sinks-first (reverse topological)."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                sccs.append(component)
    return sccs


@dataclass(frozen=True)
class RankTable:
    """Final left and right ranks per vertex."""

    left: dict
    right: dict

    def symbol_left(self, g: Cfg, token) -> frozenset[str]:
        return self.left[token] if g.is_variable(token) else letter_pads(token)

    def symbol_right(self, g: Cfg, token) -> frozenset[str]:
        return self.right[token] if g.is_variable(token) else letter_pads(token)


def _compute_side(g: Cfg, vertices: list, succ: list[list[int]], side: str) -> dict:
    """One rank map (L or R).  ``side`` picks the boundary token and the
    combination operator: intersection for L, union for R.
    """
    combine = frozenset.intersection if side == "L" else frozenset.union
    sccs = _tarjan_sccs(succ)
    comp_of = [0] * len(vertices)
    for i, component in enumerate(sccs):
        for u in component:
            comp_of[u] = i
    rank: list = [None] * len(vertices)
    # the combined rank of each finished component, as seen from outside it
    seen_as: list[frozenset] = []
    for my_comp, component in enumerate(sccs):
        # Terminal-boundary members take the pad set of their boundary letter.
        pending = []
        for u in component:
            vertex = vertices[u]
            if isinstance(vertex, tuple):
                boundary = vertex[0] if side == "L" else vertex[-1]
                if not g.is_variable(boundary):
                    rank[u] = letter_pads(boundary)
                    continue
            pending.append(u)
        if pending:
            targets = {comp_of[w] for u in component for w in succ[u]} - {my_comp}
            # Across alternatives the left rank is a guarantee (every
            # derivation pads these tracks), so alternatives intersect; the
            # right rank is a possibility, so alternatives accumulate.
            flowed = (combine(*(seen_as[t] for t in targets)) if targets
                      else frozenset())
            closed = combine(flowed, *(rank[u] for u in component
                                       if rank[u] is not None))
            for u in pending:
                rank[u] = closed
        seen_as.append(combine(*(rank[u] for u in component)))
    return {vertices[u]: r for u, r in enumerate(rank)}


def compute_ranks(g: Cfg) -> RankTable:
    """Left and right ranks of every variable and right-hand side."""
    vertices, left, right = _coded_rule_graph(g)
    return RankTable(_compute_side(g, vertices, left, "L"),
                     _compute_side(g, vertices, right, "R"))


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
