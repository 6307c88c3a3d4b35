"""Independent answers for every benchmark query.

Nothing here imports the package under test.  The answers come from the
definitions: PCP index sequences for the grammar encodings, and a direct
reading of the NFH text format for realized hyperautomata.
"""

from __future__ import annotations

import itertools

PAD = "#"


def render_word(word: str) -> str:
    return word or "eps"


def render_language(words) -> str:
    """The CLI's rendering of a finite language: ``{eps,a,ab}``."""
    return "{" + ",".join(render_word(w) for w in sorted(words)) + "}"


def bounded_universe(symbols, max_len: int) -> list[str]:
    """Words up to ``max_len`` by length, then in lexicographic order."""
    universe = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + s for w in frontier for s in sorted(symbols)]
        universe.extend(frontier)
    return universe


def subsets_in_mask_order(universe):
    for mask in range(1, 1 << len(universe)):
        yield [universe[i] for i in range(len(universe)) if mask >> i & 1]


# --- PCP ------------------------------------------------------------------------

def pcp_related(tiles, top: str, bottom: str) -> bool:
    """Is there a non-empty index sequence spelling ``top`` above and
    ``bottom`` below?  Depth-first over the consumed lengths of both words."""
    seen = set()
    stack = [(0, 0)]
    while stack:
        i, j = stack.pop()
        for a, b in tiles:
            if top.startswith(a, i) and bottom.startswith(b, j):
                nxt = (i + len(a), j + len(b))
                if nxt == (len(top), len(bottom)):
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return False


def pcp_apply(tiles, indices) -> tuple[str, str]:
    """Top and bottom words along a 1-based index sequence."""
    return ("".join(tiles[i - 1][0] for i in indices),
            "".join(tiles[i - 1][1] for i in indices))


def pcp_solutions(tiles, max_tiles: int):
    """Every solution with at most ``max_tiles`` indices, shortest first."""
    for n in range(1, max_tiles + 1):
        for indices in itertools.product(range(1, len(tiles) + 1), repeat=n):
            top, bottom = pcp_apply(tiles, indices)
            if top == bottom:
                yield indices


def forall_member(tiles, language) -> bool:
    """Membership in the ∀∀ encoding: every ordered pair of words is the
    top and bottom of one index sequence."""
    return all(pcp_related(tiles, u, v) for u in language for v in language)


def forall_empty_equal_length(tiles) -> bool:
    """Emptiness of the ∀∀ encoding when every tile has equal-length sides.

    A solution's first tile then covers the same prefix above and below, so
    some tile has identical sides; conversely one such tile is a solution.
    """
    if any(len(a) != len(b) for a, b in tiles):
        raise ValueError("the tiles have sides of different lengths")
    return not any(a == b for a, b in tiles)


def ea_derived(tiles, x1: str, x2: str, x3: str) -> bool:
    """Is the synchronous triple derived by the ∃∃∀ encoding?

    Track 1 spells top (or bottom) words followed by the reversed index
    sequence, track 2 is all ``c``, and track 3 repeats track 1 on the top
    branch and is all ``c`` on the bottom branch.
    """
    n = len(x1)
    if n == 0 or len(x2) != n or len(x3) != n or x2 != "c" * n:
        return False
    digits = len(x1) - len(x1.rstrip("123456789"))
    if digits == 0:
        return False
    letters, suffix = x1[:n - digits], x1[n - digits:]
    indices = [int(d) for d in reversed(suffix)]
    if any(i > len(tiles) for i in indices):
        return False
    top, bottom = pcp_apply(tiles, indices)
    if x3 == x1:
        return letters == top
    return x3 == "c" * n and letters == bottom


def ea_member(tiles, language) -> bool:
    """∃x1 ∃x2 ∀x3 over the language, with ``ea_derived`` at the leaves."""
    words = sorted(set(language))
    return any(all(ea_derived(tiles, x1, x2, x3) for x3 in words)
               for x1 in words for x2 in words)


def ea_symbols(tiles) -> set[str]:
    return ({s for a, b in tiles for s in a + b} | {"c"}
            | {str(i + 1) for i in range(len(tiles))})


def first_witness(member, symbols, max_len: int):
    """The first subset in mask order that ``member`` accepts, or None."""
    for words in subsets_in_mask_order(bounded_universe(symbols, max_len)):
        if member(words):
            return render_language(words)
    return None


# --- DFAs -----------------------------------------------------------------------

def dfa_language(dfa, max_len: int) -> set[str]:
    """Accepted words up to ``max_len``; ``dfa`` is (start, accepting, delta)."""
    start, accepting, delta = dfa
    out = set()
    frontier = [("", start)]
    for length in range(max_len + 1):
        nxt = []
        for word, q in frontier:
            if q in accepting:
                out.add(word)
            if length < max_len:
                for s in "ab":
                    if (q, s) in delta:
                        nxt.append((word + s, delta[q, s]))
        frontier = nxt
    return out


# --- NFH text format ------------------------------------------------------------

class NfhText:
    """An NFH read straight from its text form: quantifier prefix, variable
    order and a transition relation over letters (one symbol per track)."""

    def __init__(self, text: str):
        self.prefix: list[tuple[str, str]] = []
        self.vars: tuple[str, ...] = ()
        self.alphabet: list[str] = []
        self.initial: frozenset = frozenset()
        self.accepting: frozenset = frozenset()
        self.delta: dict = {}
        transitions = []
        for raw in text.splitlines():
            line = raw.split("#!", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if key == "quantifiers":
                toks = value.split()
                self.prefix = [(toks[i], toks[i + 1]) for i in range(0, len(toks), 2)]
            elif key == "vars":
                self.vars = tuple(value.split())
            elif key == "alphabet":
                self.alphabet = value.split()
            elif key == "initial":
                self.initial = frozenset(value.split())
            elif key == "accepting":
                self.accepting = frozenset(value.split())
            elif key == "trans":
                transitions.append(value.split())
        if [v for _, v in self.prefix] != list(self.vars):
            raise ValueError("the quantifier prefix does not match the variables")
        for q, letter, p in transitions:
            self.delta.setdefault((q, self._letter(letter)), set()).add(p)

    def _letter(self, token: str) -> tuple[str, ...]:
        parts = dict(part.split("=", 1) for part in token[1:-1].split(","))
        return tuple(parts[v] for v in self.vars)

    def accepted_tuples(self, words) -> set[tuple[str, ...]]:
        """Every assignment of words of the language to the variables that
        the automaton accepts, right-padded to equal length.

        Explores the automaton breadth-first over tuples of track prefixes,
        keeping only prefixes of padded words of the language.
        """
        longest = max(len(w) for w in words)
        valid = {(w + PAD * longest)[:m] for w in words for m in range(longest + 1)}
        complete = set(words)
        moves: dict = {}
        for (q, letter), targets in self.delta.items():
            moves.setdefault(q, []).append((letter, targets))
        accepted = set()
        frontier = {("",) * len(self.vars): set(self.initial)}
        for length in range(longest + 1):
            nxt: dict = {}
            for prefixes, states in frontier.items():
                stripped = tuple(p.rstrip(PAD) for p in prefixes)
                if (states & self.accepting and all(w in complete for w in stripped)
                        and (length == 0 or any(p[-1] != PAD for p in prefixes))):
                    accepted.add(stripped)
                if length == longest:
                    continue
                for q in states:
                    for letter, targets in moves.get(q, ()):
                        extended = tuple(p + s for p, s in zip(prefixes, letter))
                        if all(p in valid for p in extended):
                            nxt.setdefault(extended, set()).update(targets)
            frontier = nxt
        return accepted

    def accepts(self, language) -> bool:
        """Quantifier-tree evaluation over a finite, non-empty language."""
        words = sorted(set(language))
        trie: dict = {}
        for assignment in self.accepted_tuples(words):
            node = trie
            for w in assignment:
                node = node.setdefault(w, {})

        def evaluate(node: dict, depth: int) -> bool:
            if depth == len(self.prefix):
                return True
            if self.prefix[depth][0] == "E":
                return any(evaluate(node[w], depth + 1) for w in words if w in node)
            return all(w in node and evaluate(node[w], depth + 1) for w in words)

        return evaluate(trie, 0)


def realized_exactly(text: str, target, finite: bool) -> str | None:
    """Check an NFH meant to accept exactly ``{L}``; None if it passes.

    ``target`` is L itself when L is finite, else the words of L up to a
    small length.  A finite L must be accepted, and so must no language one
    word away from it.  An infinite L admits no finite member, so each
    length-bounded slice of it must be rejected.
    """
    try:
        nfh = NfhText(text)
    except (ValueError, KeyError, IndexError) as exc:
        return f"cannot be read: {exc!r}"
    target = sorted(set(target))
    if finite:
        if not nfh.accepts(target):
            return f"rejects L = {render_language(target)}"
        nearby = [[w for w in target if w != drop] for drop in target[:3]]
        extra = [w for w in bounded_universe(nfh.alphabet, 3) if w not in target][:2]
        nearby += [target + [w] for w in extra]
        for language in nearby:
            if language and nfh.accepts(language):
                return f"accepts {render_language(language)} besides L"
        return None
    for n in range(1, 4):
        piece = [w for w in target if len(w) <= n]
        if piece and nfh.accepts(piece):
            return f"accepts the finite slice {render_language(piece)} of infinite L"
    return None
