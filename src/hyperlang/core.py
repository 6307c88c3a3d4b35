"""Words, track letters, word assignments, and the quantifier layer.

A k-variable word assignment is read as a track word: a plain tuple of
track letters.  A track letter is the tuple of its k symbols, each a base
symbol or the pad marker ``#``, in the variable order of its automaton or
grammar, which alone names the tracks.  Shorter words are padded at the
end with ``#`` so that all tracks have equal length: a track that has read
``#`` reads only ``#`` after it, and no letter is all pad.

NFH and CFHG membership share one semantics: the quantifier prefix binds each
variable to a word of a finite language and a full assignment decides.
``evaluate`` walks that tree with an engine (``leaf``) at each assignment;
``members`` walks it over a finite set of accepted tuples, for each of a
series of candidate languages.  ``finite_language``, ``bounded_universe`` and
``nonempty_subsets`` supply the languages, and ``viable_words`` prunes a
subset walk to the words a member can hold.
``closure`` is the one unlabelled graph search, shared by the automaton and
grammar reachability walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import EmptyLanguage, UniverseTooLarge, UnknownLetter

PAD = "#"

UNIVERSE_CAP = 20  # words a bounded universe may hold

Word = tuple[str, ...]


def as_word(w: str | Sequence[str]) -> Word:
    """Normalize a word to a tuple of symbols.

    Strings are split into single-character symbols; any other sequence is
    taken as a sequence of (possibly multi-character) symbol tokens.
    """
    return tuple(w)


def render_word(w: Word) -> str:
    """``eps``, the symbols joined, or spaced when one has several characters
    or the joined text would read ``eps``."""
    if not w:
        return "eps"
    if all(len(s) == 1 for s in w) and "".join(w) != "eps":
        return "".join(w)
    return " ".join(w)


def letter_text(vars: Sequence[str], letter: Sequence[str]) -> str:
    """A track letter as the text formats write it, ``[x=a,y=#]``: each
    variable of ``vars`` with the symbol at its position."""
    return "[" + ",".join(f"{v}={s}" for v, s in zip(vars, letter)) + "]"


@dataclass(frozen=True)
class QuantifierPrefix:
    """A quantifier per word variable, in variable order.  'E' = exists, 'A' = forall."""

    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        names = [v for _, v in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("each variable must be quantified exactly once")
        for q, _ in self.entries:
            if q not in ("E", "A"):
                raise ValueError(f"unknown quantifier {q!r}")

    @classmethod
    def parse(cls, text: str) -> "QuantifierPrefix":
        toks = text.split()
        if len(toks) % 2 != 0 or not toks:
            raise ValueError(f"bad quantifier prefix {text!r}")
        return cls(tuple((toks[i], toks[i + 1]) for i in range(0, len(toks), 2)))

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for _, v in self.entries)

    @property
    def quantifiers(self) -> tuple[str, ...]:
        return tuple(q for q, _ in self.entries)

    def render(self) -> str:
        return " ".join(f"{q} {v}" for q, v in self.entries)


def strip_hash(w: str | Sequence[str]) -> Word:
    """Remove every pad marker from a padded word."""
    return tuple(s for s in as_word(w) if s != PAD)


def is_synchronous(letters: Sequence[tuple[str, ...]]) -> bool:
    """True iff every track of the letter sequence has its pad markers only
    as a suffix."""
    return all(set(track[track.index(PAD):]) == {PAD}
               for track in zip(*letters) if PAD in track)


def pad_to_sync(assignment: Mapping[str, str | Sequence[str]],
                var_order: Sequence[str] | None = None) -> tuple[tuple[str, ...], ...]:
    """Right-pad the assigned words, in ``var_order``, with ``#`` to equal
    length and zip them into the track word's letters."""
    order = var_order if var_order is not None else assignment
    return tuple(zip_longest(*(as_word(assignment[v]) for v in order), fillvalue=PAD))


def finite_language(language: Iterable, symbols: frozenset[str]) -> list[Word]:
    """The sorted, duplicate-free words of a non-empty language over ``symbols``."""
    words = sorted({as_word(w) for w in language})
    if not words:
        raise EmptyLanguage("membership is defined for non-empty languages")
    for w in words:
        for s in w:
            if s not in symbols:
                raise UnknownLetter(f"word symbol {s!r} outside the alphabet")
    return words


def evaluate(quantifiers: Sequence[str], words: Sequence[Word],
             leaf: Callable[[tuple[Word, ...]], bool]) -> bool:
    """Decide the quantifier tree: 'E' binds its variable to some word, 'A' to
    every word, and ``leaf`` decides each full assignment."""
    return _walk(quantifiers, words, leaf, ())


def _walk(quantifiers: Sequence[str], words: Sequence[Word],
          leaf: Callable[[tuple[Word, ...]], bool], bound: tuple[Word, ...]) -> bool:
    """``evaluate`` below the ``bound`` words.  Not a closure calling itself:
    that is a reference cycle, and the leaf would wait for the collector."""
    if len(bound) == len(quantifiers):
        return leaf(bound)
    branches = (_walk(quantifiers, words, leaf, bound + (w,)) for w in words)
    return any(branches) if quantifiers[len(bound)] == "E" else all(branches)


def members(quantifiers: Sequence[str], tuples: set[tuple[Word, ...]],
            candidates: Iterable[Sequence[Word]]) -> Iterator[Sequence[Word]]:
    """The candidate languages, in their order, over which the quantifier
    tree holds when a full assignment holds iff it is one of ``tuples``.
    The tuples are read into a trie, one level per variable; with none, no
    candidate is read."""
    if not tuples:
        return
    root: dict[Word, dict] = {}
    for t in tuples:
        node = root
        for w in t:
            node = node.setdefault(w, {})
    yield from (words for words in candidates if _trie_walk(quantifiers, root, 0, words))


# A trie, not ``evaluate`` with a set-lookup leaf: 1.6x faster on an unpruned ∃∃
# probe of {a,b}^{≤3} accepting few pairs (186 vs 303 ms), as fast accepting all.
def _trie_walk(quantifiers: Sequence[str], node: dict, depth: int,
               words: Sequence[Word]) -> bool:
    """Does the trie below ``node`` hold, over ``words``, the assignments the
    quantifiers from ``depth`` on ask for?  Module-level, like ``_walk``."""
    if depth == len(quantifiers):  # each node at depth k ends an assignment
        return True
    branches = (w in node and _trie_walk(quantifiers, node[w], depth + 1, words)
                for w in words)
    return any(branches) if quantifiers[depth] == "E" else all(branches)


def bounded_universe(symbols: Iterable[str], max_len: int, stage: str) -> list[Word]:
    """All words of length ≤ ``max_len``, shortest first, in sorted symbol
    order; more than ``UNIVERSE_CAP`` of them raise ``UniverseTooLarge``,
    whose message names the search (``stage``) that asked and counts the
    words, or bounds their count by k^max_len where it would be long."""
    if max_len < 0:
        raise ValueError(f"the length bound must be at least 0, not {max_len}")
    ordered = sorted(symbols)
    k = len(ordered)
    if k > 1 and max_len > 64:  # 2^64 words and more: the count is not written out
        raise UniverseTooLarge(f"{stage} universe has over {k}^{max_len} words; "
                               f"cap is {UNIVERSE_CAP}")
    size = k * max_len + 1 if k < 2 else (k ** (max_len + 1) - 1) // (k - 1)
    if size > UNIVERSE_CAP:
        raise UniverseTooLarge(
            f"{stage} universe has {size} words; cap is {UNIVERSE_CAP}")
    universe: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(max_len if ordered else 0):
        frontier = [w + (s,) for w in frontier for s in ordered]
        universe.extend(frontier)
    return universe


def nonempty_subsets(universe: Sequence[Word],
                     most: int | None = None) -> Iterator[tuple[Word, ...]]:
    """Every non-empty subset of ``universe`` of at most ``most`` words (any
    size if None), by increasing bit mask.  From a mask of ``most`` bits the
    next one adds its lowest bit, skipping only masks with more bits."""
    most = len(universe) if most is None else most
    mask = 1
    while mask < 1 << len(universe):
        yield tuple(w for i, w in enumerate(universe) if mask >> i & 1)
        mask += 1 if mask.bit_count() < most else mask & -mask


def viable_words(universe: Sequence[Word], assignments: set[tuple[Word, ...]],
                 foralls: Sequence[int]) -> list[Word]:
    """The greatest subset T of ``universe`` whose every word fills every ∀
    position in ``foralls`` of some assignment over T, in universe order: it
    holds every member whose leaf holds exactly on ``assignments``."""
    viable = set(universe)
    while foralls:
        live = [a for a in assignments if viable.issuperset(a)]
        kept = viable.intersection(*({a[j] for a in live} for j in foralls))
        if kept == viable:
            break
        viable = kept
    return [w for w in universe if w in viable]


def closure(start: Iterable[Hashable],
            successors: Callable[[Hashable], Iterable[Hashable]]) -> set:
    """Every node reachable from ``start`` (included) through ``successors``,
    by depth-first search."""
    seen = set(start)
    stack = list(seen)
    while stack:
        for node in successors(stack.pop()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen
