"""Left/right rank computation and the ranked-grammar check."""

import random

from hyperlang.cfg import Cfg, derive_bounded
from hyperlang.core import is_synchronous
from hyperlang.ranks import compute_ranks, is_ranked

from conftest import letter, pad_vars, random_ranked_grammars, tile_grammar


def test_tile_grammar_ranks():
    table = compute_ranks(tile_grammar())
    v = ("x1", "x2")
    t1 = (letter(v, "a", "b"), letter(v, "#", "a"), letter(v, "#", "a"))
    t2 = (letter(v, "a", "a"), letter(v, "b", "a"))
    t3 = (letter(v, "b", "b"), letter(v, "b", "b"), letter(v, "a", "#"))
    assert table.left[t1] == frozenset()
    assert table.right[t1] == frozenset({"x1"})
    assert table.right[t3] == frozenset({"x2"})
    assert table.right[t2] == frozenset()
    assert table.right["V0"] == frozenset({"x1", "x2"})
    assert table.left["V0"] == frozenset()


def test_pumping_grammar_ranks(pumping_grammar):
    table = compute_ranks(pumping_grammar.underlying)
    assert table.left["V2"] == frozenset({"x1"})
    assert table.right["V2"] == frozenset({"x1"})
    assert table.left["V1"] == frozenset()
    assert table.right["V1"] == frozenset()
    # the inductive formulas applied mechanically give L(V0)=∅, R(V0)={x1}:
    # V0's single body V1 V2 starts with V1 (left boundary empty) and ends
    # with V2 (right boundary {x1})
    assert table.left["V0"] == frozenset()
    assert table.right["V0"] == frozenset({"x1"})


def test_hash_free_grammar_has_empty_ranks():
    v = ("x1", "x2")
    g = Cfg(frozenset({"S"}), "S",
            frozenset({("S", (letter(v, "a", "a"), "S")),
                       ("S", (letter(v, "b", "b"),))}), v)
    table = compute_ranks(g)
    for vertex in table.left:
        assert table.left[vertex] == frozenset()
        assert table.right[vertex] == frozenset()
    assert is_ranked(g).ranked


def test_tile_grammar_not_ranked():
    g = tile_grammar()
    verdict = is_ranked(g)
    assert not verdict.ranked
    v = ("x1", "x2")
    t1 = (letter(v, "a", "b"), letter(v, "#", "a"), letter(v, "#", "a"))
    rule_heads = {(head, body) for (head, body), _, _, _ in verdict.violations}
    assert ("V0", t1 + ("V0",)) in rule_heads


def test_pumping_grammar_is_ranked(pumping_grammar):
    assert is_ranked(pumping_grammar.underlying).ranked


def test_random_ranked_grammars_derive_synchronous_words():
    for g in random_ranked_grammars(20):
        for w in derive_bounded(g, 6):
            if w:
                assert is_synchronous(w), (g.rules, w)


def test_rank_violation_reports_positions(pumping_grammar):
    v = ("x1", "x2")
    bad = Cfg(frozenset({"S"}), "S",
              frozenset({("S", (letter(v, "a", "#"), letter(v, "a", "a")))}), v)
    verdict = is_ranked(bad)
    assert not verdict.ranked
    ((rule, position, right, left),) = verdict.violations
    assert position == 0
    assert right == frozenset({"x2"})
    assert left == frozenset()


def _rank_grammar(rng):
    """A random grammar with ε bodies, rule-less variables, unit (possibly
    letterless) cycles, base terminals and track letters over up to three
    tracks."""
    tracks = ("x1", "x2", "x3")[:rng.randint(1, 3)]
    pool = [letter(tracks, *(rng.choice("ab#") for _ in tracks))
            for _ in range(rng.randint(1, 4))]
    pool = [t for t in pool if set(t) != {"#"}] + ["c"] * rng.randint(0, 1)
    variables = [f"V{i}" for i in range(rng.randint(1, 6))]
    rules = set()
    for head in variables:
        if rng.random() < 0.15:
            continue
        for _ in range(rng.randint(0, 3)):
            p_variable = 1.0 if not pool else rng.random()
            rules.add((head, tuple(rng.choice(variables)
                                   if rng.random() < p_variable
                                   else rng.choice(pool)
                                   for _ in range(rng.randint(0, 3)))))
    return Cfg(variables, "V0", rules, tracks)


def _boundaries(g, end):
    """Each variable's boundary symbols on one side (``end`` 0 or -1)."""
    return {v: [b[end] for u, b in g.rules if u == v and b] for v in g.variables}


def _reach(g, succ, v):
    """The variables reachable from ``v`` (included) along boundaries."""
    seen, stack = {v}, [v]
    while stack:
        for t in succ[stack.pop()]:
            if g.is_variable(t) and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _reference_ranks(g):
    """The ranks by their reachability definition, one search per variable.

    Along one side's boundaries, L(V) intersects the pad sets of the letters
    reachable from V, and is ∅ when some reachable variable reaches no
    letter; R(V) is the union of those pad sets.  A body takes the rank of
    its boundary symbol.
    """
    table = []
    for end, combine in ((0, frozenset.intersection), (-1, frozenset.union)):
        succ = _boundaries(g, end)

        def letters(v):
            return [pad_vars(g.vars, t) for u in _reach(g, succ, v) for t in succ[u]
                    if not g.is_variable(t)]

        rank = {}
        for v in g.variables:
            pads = letters(v)
            dead = any(not letters(u) for u in _reach(g, succ, v))
            rank[v] = (frozenset() if not pads or (end == 0 and dead)
                       else combine(*pads))
        for _, body in g.rules:
            if body:
                t = body[end]
                rank[body] = rank[t] if g.is_variable(t) else pad_vars(g.vars, t)
        table.append(rank)
    return table


def _reference_violations(g, left, right):
    """The pairs R(γ_i) ⊄ L(γ_{i+1}) on the reference ranks, a terminal's
    ranks being its pad set: rules in text order, positions in order."""
    def rank(side, t):
        return side[t] if g.is_variable(t) else pad_vars(g.vars, t)

    return tuple(((v, body), i, rank(right, body[i]), rank(left, body[i + 1]))
                 for v, body in sorted(g.rules, key=repr)
                 for i in range(len(body) - 1)
                 if not rank(right, body[i]) <= rank(left, body[i + 1]))


def test_ranks_match_their_reachability_definition():
    """The rank table and the ranked check's violations (rule, position, R
    and L, in order) against the reachability definition."""
    rng = random.Random(5)
    shapes = dict.fromkeys(("eps", "rule-less", "letterless cycle", "base"), 0)
    verdicts = set()
    for _ in range(300):
        g = _rank_grammar(rng)
        left, right = _reference_ranks(g)
        table = compute_ranks(g)
        assert table.left == left, sorted(g.rules, key=repr)
        assert table.right == right, sorted(g.rules, key=repr)
        verdict = is_ranked(g)
        assert verdict.violations == _reference_violations(g, left, right), \
            sorted(g.rules, key=repr)
        verdicts.add(verdict.ranked)
        succ = _boundaries(g, 0)
        shapes["eps"] += any(not body for _, body in g.rules)
        shapes["rule-less"] += any(not any(u == v for u, _ in g.rules)
                                   for v in g.variables)
        shapes["letterless cycle"] += any(
            any(v in _reach(g, succ, w) for w in succ[v] if g.is_variable(w))
            and all(g.is_variable(t) for u in _reach(g, succ, v) for t in succ[u])
            for v in g.variables)
        shapes["base"] += "c" in g.terminals()
    assert min(shapes.values()) >= 20, shapes
    assert verdicts == {True, False}
