"""Context-free hypergrammars and their decidable decision procedures.

A CFHG is a CFG over track letters plus a quantifier prefix, whose
variables name the tracks.  Decision procedures follow the decidability
frontier: ∃*-emptiness and single-∀ emptiness are polynomial; ∀*/∃∀*
emptiness is decidable for ranked grammars via diagonal restriction;
finite-language membership is decidable for every prefix; everything else
raises a structured ``Undecidable``.

Finite-language membership decides each leaf of the quantifier tree (one
word per variable) by ``cfg.derives_span``, Earley's method read as
deduction on the grammar's binary index, which ``cfg`` builds once per
grammar with no CNF: a ranked grammar on the synchronous padding read as a
chain, any other grammar (and ``force_slow``) over the assigned words read
with pads anywhere.  The ranked leaf rejects a column of the padding that
is none of the grammar's letters.  A state of the pad-anywhere reading is
one position per word; a terminal's spans come straight from the words,
once a derivation reaches it: no product is built.

The undecidable routes get a bounded witness search over Σ^{≤N}, which
derives the grammar's track tuples once at N and decides the quantifier
tree over them by ``core.members`` (``bounded_nonempty_witness``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import zip_longest
from operator import add
from typing import Callable

from .cfg import (DERIVATION_CAP, Cfg, cfg_empty, cfg_intersect_empty, cleanup,
                  cyk_member, derives_span, reachable)
from .core import (PAD, QuantifierPrefix, Word, bounded_universe, evaluate,
                   finite_language, members, nonempty_subsets, viable_words)
from .errors import CapExceeded, Undecidable
from .nfa import Nfa, pad_anywhere, track_product, with_var
from .ranks import violations


@dataclass(frozen=True)
class Cfhg:
    """A context-free hypergrammar."""

    symbols: frozenset[str]
    prefix: QuantifierPrefix
    underlying: Cfg

    def __post_init__(self):
        grammar = self.underlying
        try:
            self._check_terminals(grammar.terminals())
        except ValueError:  # set order varies with the hash seed: use text order
            self._check_terminals(sorted(grammar.terminals(), key=grammar.spell))

    def _check_terminals(self, terminals):
        order, grammar = self.prefix.variables, self.underlying
        for token in terminals:
            if (not isinstance(token, tuple) or grammar.vars != order
                    or len(token) != len(order)):
                raise ValueError(f"terminal {grammar.spell(token)} is not a "
                                 f"track letter over {order}")
            for s in token:
                if s != PAD and s not in self.symbols:
                    raise ValueError(f"symbol {s!r} outside the alphabet")

    @property
    def vars(self) -> tuple[str, ...]:
        return self.prefix.variables

    def ranked(self) -> bool:
        """Is the underlying grammar ranked?  Computed once per grammar, up to
        its first violation."""
        if "_ranked" not in self.__dict__:
            object.__setattr__(self, "_ranked", not any(violations(self.underlying)))
        return self._ranked


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


def _word_spans(assignment: tuple[Word, ...], letter: tuple[str, ...]) -> list[tuple]:
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
    for word, symbol in zip(assignment, letter):
        if symbol == PAD:
            offsets = [i * weight for i in range(len(word) + 1)]
        else:
            offsets = [i * weight for i, s in enumerate(word) if s == symbol]
            step += weight
        starts = [p + o for p in starts for o in offsets]
        weight *= len(word) + 1
    return [(p, p + step) for p in starts]


def _without_all_pad(g: Cfhg, grammar: Cfg) -> Cfg:
    """``grammar`` with g's all-pad letter erased: if ranked, its synchronous paddings."""
    pad = (PAD,) * len(g.vars)
    if pad not in grammar.terminals():
        return grammar
    return Cfg(grammar.variables, grammar.start,
               {(v, tuple(t for t in body if t != pad)) for v, body in grammar.rules},
               grammar.vars)


def _membership_leaf(g: Cfhg, force_slow: bool) -> Callable[[tuple[Word, ...]], bool]:
    """The leaf of the quantifier tree: is some #-padding of the assignment
    derived?  A ranked leaf reads the columns of the synchronous
    padding, and is False at once if one is none of the grammar's letters."""
    grammar = g.underlying
    if not force_slow and g.ranked():
        grammar = _without_all_pad(g, grammar)
        letters = grammar.terminals()

        def leaf(assignment: tuple[Word, ...]) -> bool:
            word = list(zip_longest(*assignment, fillvalue=PAD))
            return letters.issuperset(word) and cyk_member(grammar, word)
    else:
        def leaf(assignment: tuple[Word, ...]) -> bool:
            # the start state (code 0) has every word at position 0; the end
            # state has every word read through, the highest code
            end = math.prod(len(w) + 1 for w in assignment) - 1
            return derives_span(grammar, lambda letter: _word_spans(assignment, letter),
                                (0,), (end,))
    return leaf


def finite_member(g: Cfhg, language, force_slow: bool = False) -> bool:
    """Is the finite language a member of the grammar's hyperlanguage?
    Walks the quantifier tree over word assignments; a leaf asks whether
    some #-padding of the assignment is derived (module docstring)."""
    words = finite_language(language, g.symbols)
    return evaluate(g.prefix.quantifiers, words, _membership_leaf(g, force_slow))


def _restriction(g: Cfhg, keep: Callable[[tuple[str, ...]], bool]) -> Cfg:
    """The cleaned grammar without the rules that hold a letter whose
    symbols ``keep`` rejects."""
    rules = {(v, body) for v, body in g.underlying.rules
             if all(keep(t) for t in body if isinstance(t, tuple))}
    return cleanup(Cfg(g.underlying.variables, g.underlying.start, rules, g.vars))


def diagonal_restriction(g: Cfhg) -> Cfg:
    """Keep the rules whose letters are all one symbol or all pad; what
    remains derives exactly the all-identical assignments."""
    return _restriction(g, lambda s: len(set(s)) == 1)


def cfhg_empty(g: Cfhg) -> bool:
    """Emptiness, decided on the prefix's ``emptiness_route``.

    An ∃* prefix or a single quantifier reduces to CFG emptiness.  A ranked
    ∀*/∃∀* grammar has a member iff it has a singleton member, so its
    diagonal restriction decides.  Every other case raises ``Undecidable``
    naming the result that applies.
    """
    route = emptiness_route(g.prefix)
    if route == "exists":
        return cfg_empty(g.underlying)
    if route == "sync":
        if not g.ranked():
            raise Undecidable(
                "undecforall",
                "emptiness of ∀*/∃∀*-CFHG is undecidable for non-ranked grammars")
        return cfg_empty(diagonal_restriction(g))
    if route == "emptinessexistsforall":
        raise Undecidable(
            route, "emptiness of ∃*∀*-CFHG is undecidable even for ranked grammars")
    raise Undecidable(
        route,
        "emptiness of prefixes with ∀ before ∃ is undecidable already for NFH")


def regular_member(g: Cfhg, a: Nfa) -> bool:
    """Is L(a) in the hyperlanguage?  Decided for ∃^k prefixes only.

    True iff some k-tuple of #-padded words of L(a) is derived, i.e. the
    underlying grammar meets the k-fold free product of pad-closed copies
    of the automaton.
    """
    if "A" in g.prefix.quantifiers:
        raise Undecidable(
            "forallsyncundec",
            "regular membership for grammars with a ∀ quantifier is undecidable")
    padded = pad_anywhere(a)
    joint = track_product([with_var(padded, v) for v in g.vars])
    return not cfg_intersect_empty(g.underlying, joint)


def derived_assignments(g: Cfhg, n: int) -> dict[str, set]:
    """Per variable that the start reaches, the tuples of stripped tracks, at
    most ``n`` symbols each, that it derives: the least fixpoint of
    componentwise concatenation over its rules.  Past ``cfg.DERIVATION_CAP``
    tuples of one of them, ``CapExceeded``.  Semi-naive (Bancilhon &
    Ramakrishnan 1986): after a pass over whole sets, a rule is joined at
    each variable with new tuples, with whole sets elsewhere."""
    grammar = g.underlying
    sets = {v: set() for v in reachable(grammar.start, grammar.rules, grammar.variables)}
    rules = [(v, body) for v, body in grammar.rules if v in sets]
    empty = ((),) * len(g.vars)
    pieces = {t: {tuple(() if s == PAD else (s,) for s in t)}
              for t in grammar.terminals()}
    delta = None  # None: the first pass joins every rule over whole sets
    while delta is None or any(delta.values()):
        new: dict[str, set] = {v: set() for v in sets}
        for v, body in rules:
            for i in ([None] if delta is None else
                      [i for i, t in enumerate(body) if t in sets and delta[t]]):
                combos = {empty}
                for j, token in enumerate(body):
                    parts = ((delta if j == i else sets)[token]
                             if token in sets else pieces[token])
                    combos = {t for c in combos for p in parts
                              for t in (tuple(map(add, c, p)),)
                              if max(map(len, t), default=0) <= n}
                new[v] |= combos - sets[v]
                if len(sets[v]) + len(new[v]) > DERIVATION_CAP:
                    raise CapExceeded(
                        f"witness-search: over {DERIVATION_CAP} derived tuples")
        for v, tuples in new.items():
            sets[v] |= tuples
        delta = new
    return sets


def bounded_nonempty_witness(g: Cfhg, max_len: int):
    """Search for a member language over Σ^{≤max_len}; None if none is found.

    Evidence only — a miss does not decide emptiness.  Returns the first
    member in the bit-mask order of ``nonempty_subsets`` over
    ``bounded_universe``: ``core.members`` decides over the derived tuples.

    Under an ∃^m∀* prefix that member is set(x̄) for its own ∃ choices x̄:
    set(x̄) is a member within it (each ∀ then ranges over fewer words; for
    m = 0 its lowest word is), and no larger in mask order.  Its tuple
    (x̄, x₁, …, x₁) is derived, so the sets of the first max(1, m) tracks of
    the derived tuples whose ∀ tracks all equal the first hold the first
    member; they are tested in mask order and no universe is built.  A ∀
    before an ∃ tries every subset of the universe's ``core.viable_words``,
    which hold every member in mask order.

    Past ``cfg.DERIVATION_CAP`` tuples one memoised leaf serves all.  A
    ranked grammar pads (x̄, x₁, …, x₁) synchronously, each letter giving
    every ∀ track x₁'s symbol, so the ∃^m∀* candidates are read off the
    grammar restricted to such letters.  Past the cap again, or unranked,
    they are the subsets of at most max(1, m) words of the universe (of
    ``core.UNIVERSE_CAP`` words at most), as are all its subsets after a ∀.
    """
    if max_len < 0:
        raise ValueError(f"the length bound must be at least 0, not {max_len}")
    quantifiers = g.prefix.quantifiers
    foralls = [j for j, q in enumerate(quantifiers) if q == "A"]
    most = max(1, len(g.vars) - len(foralls))

    def in_mask_order(derived: set) -> list:
        # masks compared by the words' shortlex keys, greatest first: no 2^i bits
        return sorted(
            {frozenset(t[:most]) for t in derived if all(t[j] == t[0] for j in foralls)},
            key=lambda words: sorted(((len(w), w) for w in words), reverse=True))

    def past_cap(candidates):  # one memoised leaf decides each assignment
        leaf = functools.cache(_membership_leaf(g, False))
        return next((frozenset(words) for words in candidates
                     if evaluate(quantifiers, words, leaf)), None)

    if emptiness_route(g.prefix) == "forallexists":
        # built first: too large, it is refused before any derivation
        universe = bounded_universe(g.symbols, max_len, "witness-search")
        try:
            derived = derived_assignments(g, max_len)[g.underlying.start]
        except CapExceeded:  # too many tuples: every subset of the universe
            return past_cap(nonempty_subsets(universe))
        candidates = nonempty_subsets(viable_words(universe, derived, foralls))
        return next((frozenset(words) for words in
                     members(quantifiers, derived, candidates)), None)
    try:
        derived = derived_assignments(g, max_len)[g.underlying.start]
        return next((frozenset(words) for words in
                     members(quantifiers, derived, in_mask_order(derived))), None)
    except CapExceeded:  # too many tuples: the ranked copies, then the universe
        pass
    if g.ranked():
        copies = Cfhg(g.symbols, g.prefix,
                      _restriction(g, lambda s: all(s[j] == s[0] for j in foralls)))
        try:
            derived = derived_assignments(copies, max_len)[copies.underlying.start]
            return past_cap(in_mask_order(derived))
        except CapExceeded:
            pass
    return past_cap(nonempty_subsets(bounded_universe(g.symbols, max_len, "witness-search"),
                                     most))
