"""Words, track letters, word assignments, and the quantifier layer.

A k-variable word assignment is stored as an ``HWord``: a sequence of
``TrackLetter`` values, each mapping every word variable to a base symbol or
to the pad marker ``#``.  Shorter words are padded at the end with ``#`` so
that all tracks have equal length.

NFH and CFHG membership share one semantics: the quantifier prefix binds each
variable to a word of a finite language and an engine (``leaf``) decides every
full assignment.  ``evaluate`` walks that tree; ``finite_language``,
``bounded_universe`` and ``nonempty_subsets`` supply its languages.
``closure`` is the one unlabelled graph search, shared by the automaton and
grammar reachability walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import EmptyLanguage, UniverseTooLarge, UnknownLetter

PAD = "#"

Word = tuple[str, ...]


def as_word(w: str | Sequence[str]) -> Word:
    """Normalize a word to a tuple of symbols.

    Strings are split into single-character symbols; any other sequence is
    taken as a sequence of (possibly multi-character) symbol tokens.
    """
    return tuple(w)


def render_word(w: Word) -> str:
    if not w:
        return "eps"
    if all(len(s) == 1 for s in w):
        return "".join(w)
    return " ".join(w)


@dataclass(frozen=True)
class TrackLetter:
    """A single letter of the joint alphabet: one symbol (or ``#``) per variable.

    Letters are hashed in every engine loop, their text is the sort key of
    rules and transitions and their pad set feeds the rank analysis, so each
    is computed at most once per letter."""

    vars: tuple[str, ...]
    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.vars) != len(self.symbols):
            raise ValueError("track letter must assign every variable")
        object.__setattr__(self, "_hash", hash((self.vars, self.symbols)))

    def __hash__(self) -> int:
        return self._hash

    def __getitem__(self, var: str) -> str:
        return self.symbols[self.vars.index(var)]

    def items(self):
        return tuple(zip(self.vars, self.symbols))

    def pad_vars(self) -> frozenset[str]:
        """Variables assigned the pad marker in this letter."""
        pads = self.__dict__.get("_pads")
        if pads is None:
            pads = frozenset(v for v, s in self.items() if s == PAD)
            object.__setattr__(self, "_pads", pads)
        return pads

    def is_all_pad(self) -> bool:
        return all(s == PAD for s in self.symbols)

    def render(self) -> str:
        text = self.__dict__.get("_text")
        if text is None:
            text = "[" + ",".join(f"{v}={s}" for v, s in self.items()) + "]"
            object.__setattr__(self, "_text", text)
        return text

    __repr__ = render


@dataclass(frozen=True)
class HWord:
    """A finite sequence of track letters, all over the same variables."""

    vars: tuple[str, ...]
    letters: tuple[TrackLetter, ...]

    def __post_init__(self):
        for letter in self.letters:
            if letter.vars != self.vars:
                raise ValueError("all letters of an HWord must share one variable set")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def render(self) -> str:
        return "".join(letter.render() for letter in self.letters) or "eps"


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


def tracks_of(h: HWord) -> dict[str, Word]:
    """Split an HWord back into its per-variable padded tracks."""
    return {
        v: tuple(letter[v] for letter in h.letters) for v in h.vars
    }


def is_synchronous(h: HWord) -> bool:
    """True iff every track has its pad markers only as a suffix."""
    for w in tracks_of(h).values():
        seen_pad = False
        for s in w:
            if s == PAD:
                seen_pad = True
            elif seen_pad:
                return False
    return True


def pad_to_sync(assignment: Mapping[str, str | Sequence[str]],
                var_order: Sequence[str] | None = None) -> HWord:
    """Right-pad the assigned words with ``#`` to equal length and zip them."""
    order = tuple(var_order) if var_order is not None else tuple(assignment)
    columns = zip_longest(*(as_word(assignment[v]) for v in order), fillvalue=PAD)
    return HWord(order, tuple(TrackLetter(order, c) for c in columns))


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

    def walk(bound: tuple[Word, ...]) -> bool:
        if len(bound) == len(quantifiers):
            return leaf(bound)
        branches = (walk(bound + (w,)) for w in words)
        return any(branches) if quantifiers[len(bound)] == "E" else all(branches)

    return walk(())


def bounded_universe(symbols: Iterable[str], max_len: int, universe_cap: int,
                     stage: str) -> list[Word]:
    """All words of length ≤ ``max_len``, shortest first, in sorted symbol
    order; more than ``universe_cap`` of them raise ``UniverseTooLarge``,
    whose message names the search (``stage``) that asked."""
    if max_len < 0:
        raise ValueError(f"the length bound must be at least 0, not {max_len}")
    ordered = sorted(symbols)
    size = sum(len(ordered) ** i for i in range(max_len + 1))
    if size > universe_cap:
        raise UniverseTooLarge(
            f"{stage} universe has {size} words; cap is {universe_cap}")
    universe: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(max_len):
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
