"""Post-correspondence-problem encoders into hypergrammars.

These reductions turn a PCP tile list into a CFHG whose emptiness answer
mirrors the solvability of the instance; they double as fixture generators
for exercising the undecidability guardrails.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfg import Cfg
from .core import QuantifierPrefix, Word, as_word, pad_to_sync
from .cfhg import Cfhg


@dataclass(frozen=True)
class PcpInstance:
    """An ordered list of tile pairs over {a, b}."""

    tiles: tuple[tuple[Word, Word], ...]

    def __post_init__(self):
        if not self.tiles:
            raise ValueError("a PCP instance needs at least one tile")

    @classmethod
    def of(cls, *tiles) -> "PcpInstance":
        return cls(tuple((as_word(a), as_word(b)) for a, b in tiles))

    def symbols(self) -> set[str]:
        return {s for a, b in self.tiles for s in a + b}

    def apply(self, indices) -> tuple[Word, Word]:
        """Concatenate the top and bottom tile words along an index sequence."""
        top: Word = ()
        bottom: Word = ()
        for i in indices:
            a, b = self.tiles[i - 1]
            top += a
            bottom += b
        return top, bottom

    def is_solution(self, indices) -> bool:
        top, bottom = self.apply(indices)
        return bool(indices) and top == bottom


def pcp_encode_forall(instance: PcpInstance) -> Cfhg:
    """∀∀-CFHG whose members are sets of solution words of the instance.

    Each tile becomes a two-track chunk ⟨A_i, B_i⟩ with the shorter side
    padded; the single variable loops over chunks, so a word assigned to both
    tracks at once spells a solution.
    """
    vars = ("x1", "x2")
    rules = set()
    for a, b in instance.tiles:
        chunk = pad_to_sync({"x1": a, "x2": b}, vars)
        rules.add(("V0", chunk + ("V0",)))
        rules.add(("V0", chunk))
    grammar = Cfg({"V0"}, "V0", rules, vars)
    prefix = QuantifierPrefix((("A", "x1"), ("A", "x2")))
    return Cfhg(frozenset(instance.symbols()), prefix, grammar)


def pcp_encode_exists_forall(instance: PcpInstance) -> Cfhg:
    """∃∃∀-CFHG over {a,b,c} ∪ indices that is ranked (pad-free) by design.

    The V1 branch derives a candidate solution word followed by its reversed
    index sequence on tracks 1 and 3, with a c-block of the same length on
    track 2; the V2 branch derives the bottom words with all-c companions.
    A solution with indices i_1..i_m yields the member language
    {top·reverse(indices), c^(|top|+m)}.
    """
    vars = ("x1", "x2", "x3")
    index_symbols = tuple(str(i + 1) for i in range(len(instance.tiles)))
    rules = set()
    rules.add(("V0", ("V1",)))
    rules.add(("V0", ("V2",)))
    for i, (a, b) in enumerate(instance.tiles):
        idx = index_symbols[i]
        a_chunk = pad_to_sync({"x1": a, "x2": ("c",) * len(a), "x3": a}, vars)
        a_idx = ((idx, "c", idx),)
        rules.add(("V1", a_chunk + ("V1",) + a_idx))
        rules.add(("V1", a_chunk + a_idx))
        cs = ("c",) * len(b)
        b_chunk = pad_to_sync({"x1": b, "x2": cs, "x3": cs}, vars)
        b_idx = ((idx, "c", "c"),)
        rules.add(("V2", b_chunk + ("V2",) + b_idx))
        rules.add(("V2", b_chunk + b_idx))
    grammar = Cfg({"V0", "V1", "V2"}, "V0", rules, vars)
    prefix = QuantifierPrefix((("E", "x1"), ("E", "x2"), ("A", "x3")))
    symbols = instance.symbols() | {"c"} | set(index_symbols)
    return Cfhg(frozenset(symbols), prefix, grammar)


def solution_language(instance: PcpInstance, indices) -> frozenset[Word]:
    """The two-word language the ∃∃∀ encoding accepts for a PCP solution."""
    if not instance.is_solution(indices):
        raise ValueError("the index sequence is not a solution of the instance")
    top, _ = instance.apply(indices)
    suffix = tuple(str(i) for i in reversed(list(indices)))
    word = top + suffix
    return frozenset({word, ("c",) * len(word)})
