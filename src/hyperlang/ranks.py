"""Left/right ranks and the ranked-grammar (synchronicity) check.

Ranks are kept per grammar variable and per rule right-hand side (a tuple of
terminals and variables).  The left rank of one collects the word variables
that every derivation from it pads at its left boundary (alternatives
intersect); the right rank collects those that some derivation pads at its
right boundary (alternatives accumulate).  A grammar is ranked when no rule
can place a pad-producing symbol before a letter-producing one.  Ranks and
the check run on bit masks, one bit per track; sets of track names are built
only for the rank table, when read, and for the violations ``is_ranked``
reports.  ``Cfhg.ranked()`` stops at the first violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_

from .core import PAD, closure
from .cfg import Cfg


@dataclass(frozen=True)
class RankTable:
    """Final ranks: ``masks`` maps every variable and terminal to its left and
    right rank masks (a terminal's are its pad mask), bit i standing for the
    i-th track of ``g.vars``.  ``left`` and ``right``, the name sets of every
    variable and right-hand side, are built when first read."""

    g: Cfg
    masks: tuple[dict, dict]

    def names(self, mask: int) -> frozenset[str]:
        return frozenset(v for i, v in enumerate(self.g.vars or ()) if mask >> i & 1)

    def _side(self, end: int) -> dict:
        """One side's name sets; a body takes its boundary symbol's."""
        masks = self.masks[end]
        rank = {v: self.names(masks[v]) for v in self.g.variables}
        for _, body in self.g.rules:
            if body:
                rank[body] = self.names(masks[body[end]])
        return rank

    left = cached_property(lambda self: self._side(0))
    right = cached_property(lambda self: self._side(-1))


def _variable_ranks(g: Cfg, end: int, pads: dict) -> dict:
    """The rank mask of every variable on one side: ``end`` is 0 for L, -1 for R.

    rank(V) combines the ranks of the boundary symbols of V's non-empty
    bodies, a letter's rank being its pad mask (``pads``).  Across
    alternatives the left rank is a guarantee (every derivation pads these
    tracks), so alternatives intersect (``&``), starting from every track a
    boundary letter pads; the right rank is a possibility, so alternatives
    accumulate (``|``), starting from 0.  A variable that reaches no letter
    along boundaries (no rule, only ε rules, a letterless cycle) keeps 0.  A
    worklist (Kildall, 1973) recomputes a variable only when one of its
    boundary variables changed, and a rank changes at most |tracks| + 1 times.
    """
    if not any(pads.values()):  # every rank combines pad masks, all 0 here
        return dict.fromkeys(g.variables, 0)
    combine = and_ if end == 0 else or_
    letters: dict = {v: [] for v in g.variables}  # V -> its boundary letters' pads
    inner: dict = {v: [] for v in g.variables}    # V -> its boundary variables
    bounded_by: dict = {}  # W -> the variables with a body bounded by W
    for v, body in g.rules:
        if body:
            token = body[end]
            pad = pads.get(token)
            if pad is None:
                inner[v].append(token)
                bounded_by.setdefault(token, []).append(v)
            else:
                letters[v].append(pad)
    live = closure([v for v in g.variables if letters[v]],
                   lambda w: bounded_by.get(w, ()))
    # every padded track: as high as a live left rank can be
    start = reduce(or_, (p for ps in letters.values() for p in ps), 0) if end == 0 else 0
    rank = dict.fromkeys(g.variables, 0)
    for v in live:
        rank[v] = reduce(combine, letters[v], start)
    queued = live
    work = list(queued)
    while work:
        v = work.pop()
        queued.discard(v)
        new = reduce(combine, (rank[w] for w in inner[v]), rank[v])
        if new != rank[v]:
            rank[v] = new
            for u in bounded_by.get(v, ()):
                if u not in queued:
                    queued.add(u)
                    work.append(u)
    return rank


def compute_ranks(g: Cfg) -> RankTable:
    """The left and right rank masks of every variable and terminal, a
    terminal's being its pad mask: bit i for a pad on the i-th track."""
    pads = {t: sum(1 << i for i, s in enumerate(t) if s == PAD)
            if isinstance(t, tuple) and PAD in t else 0 for t in g.terminals()}
    return RankTable(g, tuple({**pads, **_variable_ranks(g, end, pads)}
                              for end in (0, -1)))


@dataclass(frozen=True)
class RankedVerdict:
    """Outcome of the ranked check: empty violations means the grammar is ranked."""

    violations: tuple

    @property
    def ranked(self) -> bool:
        return not self.violations


def violations(g: Cfg, table: RankTable | None = None):
    """Each (rule, i, r, l) whose adjacent pair at positions i, i + 1 breaks
    R(γ_i) ⊆ L(γ_{i+1}), on the masks r & ~l != 0, rule by rule as
    ``g.rules`` iterates."""
    if table is None:
        table = compute_ranks(g)
    left, right = table.masks
    for rule in g.rules:
        body = rule[1]
        for i, a in enumerate(body[:-1]):
            r = right[a]  # most letters pad no track: skip the left lookup
            if r and r & ~left[body[i + 1]]:
                yield rule, i, r, left[body[i + 1]]


def is_ranked(g: Cfg, table: RankTable | None = None) -> RankedVerdict:
    """Every violation of the ranked check, its ranks as track-name sets."""
    if table is None:
        table = compute_ranks(g)
    found = [(rule, i, table.names(r), table.names(l))
             for rule, i, r, l in violations(g, table)]
    # rules in text order; a rule's violations stay in position order
    found.sort(key=lambda violation: g.rule_key(violation[0]))
    return RankedVerdict(tuple(found))
