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


def build_rule_graph(g: Cfg) -> RuleGraph:
    """Edges: variable → its bodies; a body pointing back to its boundary variable."""
    vertices: set = set(g.variables)
    left: set = set()
    right: set = set()
    for v, body in g.rules:
        if not body:
            continue
        vertices.add(body)
        left.add((v, body))
        right.add((v, body))
        if g.is_variable(body[0]):
            left.add((body, body[0]))
        if g.is_variable(body[-1]):
            right.add((body, body[-1]))
    return RuleGraph(tuple(sorted(vertices, key=repr)),
                     frozenset(left), frozenset(right))


def _tarjan_sccs(vertices, edges) -> list[list]:
    """Iterative Tarjan; components are emitted sinks-first (reverse topological)."""
    succ: dict = {v: [] for v in vertices}
    for a, b in sorted(edges, key=repr):
        succ[a].append(b)
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list[list] = []
    counter = [0]

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on_stack:
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
                    on_stack.remove(w)
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


def _compute_side(g: Cfg, vertices, edges, side: str) -> dict:
    """One rank map (L or R).  ``side`` picks the boundary token and the
    combination operators: intersection-flavored for L, union-flavored for R.
    """
    sccs = _tarjan_sccs(vertices, edges)
    comp_of: dict = {}
    for i, component in enumerate(sccs):
        for v in component:
            comp_of[v] = i
    out_edges: dict = {}
    for a, b in edges:
        out_edges.setdefault(a, set()).add(b)

    rank: dict = {}
    inner: dict = {}
    for component in sccs:
        # Terminal-boundary members take the pad set of their boundary letter.
        pending = []
        for u in component:
            if isinstance(u, tuple):
                boundary = u[0] if side == "L" else u[-1]
                if not g.is_variable(boundary):
                    rank[u] = inner[u] = letter_pads(boundary)
                    continue
            pending.append(u)
        if pending:
            my_comp = comp_of[component[0]]
            targets: set[int] = set()
            for u in component:
                for w in out_edges.get(u, set()):
                    if comp_of[w] != my_comp:
                        targets.add(comp_of[w])
            values = []
            for t in sorted(targets):
                member_ranks = [rank[u] for u in sccs[t]]
                if side == "L":
                    combined = frozenset.intersection(*member_ranks)
                else:
                    combined = frozenset().union(*member_ranks)
                values.append(combined)
            # Across alternatives the left rank is a guarantee (every
            # derivation pads these tracks), so alternatives intersect; the
            # right rank is a possibility, so alternatives accumulate.
            if not values:
                flowed = frozenset()
            elif side == "L":
                flowed = frozenset.intersection(*values)
            else:
                flowed = frozenset().union(*values)
            for u in pending:
                inner[u] = flowed
            all_inner = [inner[u] for u in component]
            if side == "L":
                closed = frozenset.intersection(*all_inner)
            else:
                closed = frozenset().union(*all_inner)
            for u in pending:
                rank[u] = closed
    return rank


def compute_ranks(g: Cfg) -> RankTable:
    """Left and right ranks of every variable and right-hand side."""
    graph = build_rule_graph(g)
    left = _compute_side(g, graph.vertices, graph.left_edges, "L")
    right = _compute_side(g, graph.vertices, graph.right_edges, "R")
    return RankTable(left, right)


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
    for v, body in sorted(g.rules, key=repr):
        for i in range(len(body) - 1):
            r = table.symbol_right(g, body[i])
            l = table.symbol_left(g, body[i + 1])
            if not r <= l:
                violations.append(((v, body), i, r, l))
    return RankedVerdict(tuple(violations))
