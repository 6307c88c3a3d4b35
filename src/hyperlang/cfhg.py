"""Context-free hypergrammars and their decidable decision procedures.

A CFHG is a CFG over track letters plus a quantifier prefix.  Decision
procedures follow the decidability frontier: ∃*-emptiness and single-∀
emptiness are polynomial; ∀*/∃∀* emptiness is decidable for ranked grammars
via diagonal restriction; finite-language membership is decidable for every
prefix; everything else raises a structured ``Undecidable``.

Finite-language membership compiles the grammar to CNF once and decides
each leaf of the quantifier tree (one word per variable) with that grammar:
a ranked grammar by CYK on the synchronous padding, any other grammar (and
``force_slow``) by the span fixpoint of ``cfg.derives_span`` over the
assigned words read with pads anywhere.  A state of that reading is one
position per word; the spans of each terminal come straight from the words,
and no product automaton is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .cfg import (Cfg, cfg_empty, cfg_intersect_empty, cleanup, cyk_member,
                  derives_span, to_cnf)
from .core import (PAD, QuantifierPrefix, TrackLetter, Word, bounded_universe,
                   evaluate, finite_language, nonempty_subsets, pad_to_sync)
from .errors import NotRanked, Undecidable, WrongPrefix
from .nfa import Nfa, pad_anywhere, track_product, with_var
from .ranks import is_ranked


@dataclass(frozen=True)
class Cfhg:
    """A context-free hypergrammar."""

    symbols: frozenset[str]
    prefix: QuantifierPrefix
    underlying: Cfg

    def __post_init__(self):
        order = self.prefix.variables
        for token in self.underlying.terminals():
            if not isinstance(token, TrackLetter) or token.vars != order:
                raise ValueError(
                    f"terminal {token!r} is not a track letter over {order}")
            for s in token.symbols:
                if s != PAD and s not in self.symbols:
                    raise ValueError(f"symbol {s!r} outside the alphabet")

    @property
    def vars(self) -> tuple[str, ...]:
        return self.prefix.variables

    def ranked(self) -> bool:
        return is_ranked(self.underlying).ranked


def emptiness_route(prefix: QuantifierPrefix) -> str:
    """The emptiness route of a prefix: ``exists`` (∃* or a single
    quantifier), ``sync`` (∀* or ∃∀*), ``emptinessexistsforall`` (∃∃⁺∀⁺) or
    ``forallexists`` (a ∀ before an ∃)."""
    qs = "".join(prefix.quantifiers)
    if "A" not in qs or len(qs) == 1:
        return "exists"
    if "AE" in qs:
        return "forallexists"
    return "sync" if "E" not in qs[1:] else "emptinessexistsforall"


def exists_empty(g: Cfhg) -> bool:
    """Emptiness for ∃* prefixes (and a single ∀): reduces to CFG emptiness."""
    if emptiness_route(g.prefix) != "exists":
        raise WrongPrefix("exists_empty handles ∃* and single-quantifier prefixes")
    return cfg_empty(g.underlying)


def exists_regular_member(g: Cfhg, a: Nfa) -> bool:
    """Is L(a) in the hyperlanguage of an ∃^k grammar?

    True iff some k-tuple of #-padded words of L(a) is derived, i.e. the
    underlying grammar meets the k-fold free product of pad-closed copies
    of the automaton.
    """
    if any(q != "E" for q in g.prefix.quantifiers):
        raise WrongPrefix("regular membership is only decidable for ∃* prefixes")
    padded = pad_anywhere(a)
    joint = track_product([with_var(padded, v) for v in g.vars])
    return not cfg_intersect_empty(to_cnf(g.underlying), joint)


def _word_spans(assignment: tuple[Word, ...], letter: TrackLetter) -> list[tuple]:
    """The moves of ``letter`` between states of the pad-anywhere reading of
    the assigned words, without building that product automaton.

    A state is one position per word, coded as a mixed-radix int (word j has
    weight w_j = ∏_{i<j} (|word_i| + 1)); a pad track stays put, a symbol
    track advances by one where its word has that symbol.  Returns the pairs
    (p, q) with q = p + Σ of the advancing tracks' weights.
    """
    starts = [0]
    step = 0
    weight = 1
    for word, symbol in zip(assignment, letter.symbols):
        if symbol == PAD:
            offsets = [i * weight for i in range(len(word) + 1)]
        else:
            offsets = [i * weight for i, s in enumerate(word) if s == symbol]
            step += weight
        starts = [p + o for p in starts for o in offsets]
        weight *= len(word) + 1
    return [(p, p + step) for p in starts]


def _membership_leaf(g: Cfhg, force_slow: bool) -> Callable[[tuple[Word, ...]], bool]:
    """The memoised leaf of the quantifier tree: is some #-padding of the
    assignment derived?  Compiles the grammar once, for any number of trees."""
    cnf = to_cnf(g.underlying)
    order = g.vars
    if not force_slow and g.ranked():
        def leaf(assignment: tuple[Word, ...]) -> bool:
            return cyk_member(cnf, pad_to_sync(dict(zip(order, assignment)), order))
    else:
        def leaf(assignment: tuple[Word, ...]) -> bool:
            # the start state (code 0) has every word at position 0; the end
            # state has every word read through, the highest code
            end = math.prod(len(w) + 1 for w in assignment) - 1
            return derives_span(cnf, lambda letter: _word_spans(assignment, letter),
                                (0,), (end,))
    return functools.cache(leaf)


def finite_member(g: Cfhg, language, force_slow: bool = False) -> bool:
    """Is the finite language a member of the grammar's hyperlanguage?

    Walks the quantifier decision tree over word assignments.  A leaf asks
    whether some #-padding of the assignment is derived: for ranked grammars
    the synchronous padding is the only one, so a CYK check suffices; in
    general (and with ``force_slow``) the leaf runs the span fixpoint of
    ``derives_span`` over the pad-anywhere readings of the assigned words.
    """
    words = finite_language(language, g.symbols)
    return evaluate(g.prefix.quantifiers, words, _membership_leaf(g, force_slow))


def diagonal_restriction(g: Cfhg) -> Cfg:
    """Drop every rule whose letters assign the variables different symbols
    (or a pad); what remains derives exactly the all-identical assignments."""

    def diagonal(body) -> bool:
        for token in body:
            if isinstance(token, TrackLetter):
                if PAD in token.symbols or len(set(token.symbols)) != 1:
                    return False
        return True

    rules = {(v, body) for v, body in g.underlying.rules if diagonal(body)}
    return cleanup(Cfg(g.underlying.variables, g.underlying.start, rules))


def sync_forall_empty(g: Cfhg) -> bool:
    """Emptiness of a ranked ∀*/∃∀* grammar: a language exists iff a singleton
    does, so it suffices to check the diagonal restriction for emptiness."""
    # a single quantifier routes to exists_empty but is also a ∀* prefix
    if len(g.prefix.entries) > 1 and emptiness_route(g.prefix) != "sync":
        raise WrongPrefix("sync_forall_empty handles ∀* and ∃∀* prefixes")
    if not g.ranked():
        raise NotRanked("the diagonal reduction is only sound for ranked grammars")
    return cfg_empty(diagonal_restriction(g))


def cfhg_empty(g: Cfhg) -> bool:
    """Emptiness with routing to the applicable decision procedure.

    Raises ``Undecidable`` (naming the relevant result) for the prefix
    classes where no procedure exists.
    """
    route = emptiness_route(g.prefix)
    if route == "exists":
        return exists_empty(g)
    if route == "sync":
        try:
            return sync_forall_empty(g)
        except NotRanked:
            raise Undecidable(
                "undecforall",
                "emptiness of ∀*/∃∀*-CFHG is undecidable for non-ranked grammars"
            ) from None
    if route == "emptinessexistsforall":
        raise Undecidable(
            route, "emptiness of ∃*∀*-CFHG is undecidable even for ranked grammars")
    raise Undecidable(
        route,
        "emptiness of prefixes with ∀ before ∃ is undecidable already for NFH")


def regular_member(g: Cfhg, a: Nfa) -> bool:
    """Regular-language membership, defined only for ∃* prefixes."""
    try:
        return exists_regular_member(g, a)
    except WrongPrefix:
        raise Undecidable(
            "forallsyncundec",
            "regular membership for grammars with a ∀ quantifier is undecidable"
        ) from None


def bounded_nonempty_witness(g: Cfhg, max_len: int,
                             universe_cap: int = 20):
    """Search for a member language over Σ^{≤max_len}; None if none is found.

    Evidence only — a miss does not decide emptiness.  One memoised leaf
    serves every subset, since a leaf's verdict does not depend on it.  Under
    an ∃^m∀* prefix the ∃ choices of a member S form a member within S (each
    ∀ then ranges over fewer words), and for m = 0 so does S's lowest word;
    so the first member in mask order has at most max(1, m) words, and only
    those subsets are tried.  A prefix with ∀ before ∃ tries every subset.
    """
    universe = bounded_universe(g.symbols, max_len, universe_cap, "witness-search")
    leaf = _membership_leaf(g, False)
    quantifiers = "".join(g.prefix.quantifiers)
    most = None if "AE" in quantifiers else max(1, quantifiers.count("E"))
    for words in nonempty_subsets(universe, most):
        if evaluate(quantifiers, words, leaf):
            return frozenset(words)
    return None
