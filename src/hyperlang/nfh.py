"""Hyperautomata: an NFA over track letters plus a quantifier prefix.

An NFH accepts *languages*, not words: the quantifier prefix ranges over the
words of a candidate language, and the underlying automaton checks the joint
padded word assignment.  Implemented here: membership of a finite language,
and the probe, which lists every accepted language of words up to a length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable

from .core import (PAD, QuantifierPrefix, Word, bounded_universe, evaluate,
                   finite_language, members, nonempty_subsets, viable_words)
from .nfa import Nfa, nfa_member


@dataclass(frozen=True)
class Nfh:
    """A nondeterministic finite hyperautomaton."""

    symbols: frozenset[str]
    prefix: QuantifierPrefix
    underlying: Nfa

    def __post_init__(self):
        if PAD in self.symbols:
            raise ValueError(f"the pad marker {PAD!r} is no symbol of an NFH")
        if self.underlying.vars != self.prefix.variables:
            raise ValueError("quantifier prefix must cover the underlying variables"
                             f" {self.underlying.vars} in order")


def nfh_accepts(n: Nfh, language: Iterable) -> bool:
    """Finite-language membership per the quantifier semantics.

    ``language`` is a finite, non-empty collection of words over the NFH's
    alphabet.  Each quantifier binds its variable to a word of the language;
    a fully bound assignment is checked by right-padding all words to equal
    length and running the underlying automaton.  A column of the padding
    that is none of the automaton's letters rejects the leaf before the run.
    """
    words = finite_language(language, n.symbols)
    letters = n.underlying.letters()

    def leaf(assignment: tuple[Word, ...]) -> bool:
        word = list(zip_longest(*assignment, fillvalue=PAD))
        return letters.issuperset(word) and nfa_member(n.underlying, word)

    return evaluate(n.prefix.quantifiers, words, leaf)


def accepted_assignments(underlying: Nfa, max_len: int) -> set[tuple[Word, ...]]:
    """The stripped tracks of every accepted well-padded track word of at most
    ``max_len`` letters: each track pads only at its end, and no letter is
    all pad.

    A breadth-first walk over (stripped tracks → state set): at depth d a
    track whose word is shorter than d has ended.  A letter is taken only if
    it gives a symbol to some track and to no ended one, both read as bit
    masks over the tracks.  The depth and the stripped tracks fix the padded
    prefix, so no two prefixes share an entry.
    """
    def accepted(frontier: dict) -> set[tuple[Word, ...]]:
        return {t for t, states in frontier.items() if states & underlying.accepting}

    moves = underlying.moves_from()
    reads = {l: sum(1 << i for i, s in enumerate(l) if s != PAD)
             for l in underlying.letters()}
    frontier = {((),) * len(underlying.vars): underlying.initial}
    found = accepted(frontier)
    for depth in range(max_len):
        step: dict[tuple[Word, ...], set] = {}
        for tracks, states in frontier.items():
            ended = sum(1 << i for i, t in enumerate(tracks) if len(t) < depth)
            for q in states:
                for letter, p in moves.get(q, ()):
                    if reads[letter] and not reads[letter] & ended:
                        read = tuple(t if s == PAD else t + (s,)
                                     for s, t in zip(letter, tracks))
                        step.setdefault(read, set()).add(p)
        frontier = step
        found |= accepted(frontier)
    return found


def nfh_hyperlanguage_probe(n: Nfh, max_len: int) -> frozenset[frozenset[Word]]:
    """All non-empty sublanguages of Σ^{≤max_len} the NFH accepts.

    Each word of an accepted language fills every ∀ position of an accepted
    assignment over that language, so only subsets of the greatest word set
    with this property (``core.viable_words``) are walked, by ``core.members``
    over the accepted assignments.  Σ^{≤max_len} may hold at most
    ``core.UNIVERSE_CAP`` words.
    """
    universe = bounded_universe(n.symbols, max_len, "probe")
    assignments = accepted_assignments(n.underlying, max_len)
    quantifiers = n.prefix.quantifiers
    viable = viable_words(universe, assignments,
                          [j for j, q in enumerate(quantifiers) if q == "A"])
    return frozenset(frozenset(words) for words in
                     members(quantifiers, assignments, nonempty_subsets(viable)))
