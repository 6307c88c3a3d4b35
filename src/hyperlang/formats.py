"""Text formats for automata, hyperautomata, grammars, languages, and tiles.

All formats are line-based; blank lines and ``#!`` comments are ignored
(a bare ``#`` is the pad symbol, so it cannot introduce comments).
"""

from __future__ import annotations

from .cfg import Cfg
from .cfhg import Cfhg
from .core import PAD, QuantifierPrefix, Word, as_word, letter_text, render_word
from .errors import ParseError
from .nfa import Dfa, Nfa, canonical
from .nfh import Nfh
from .pcp import PcpInstance
from .ranks import compute_ranks, is_ranked


def _lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#!", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _fields(text: str, kind: str, keys) -> dict[str, list[str]]:
    """Each key's values in line order.  A line with no colon, then the first
    key outside ``keys``, raises ``ParseError``."""
    fields = {key: [] for key in keys}
    unknown = []
    for line in _lines(text):
        if ":" not in line:
            raise ParseError(f"expected 'key: value', got {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if key in fields:
            fields[key].append(value.strip())
        else:
            unknown.append(key)
    if unknown:
        raise ParseError(f"unknown {kind} field {unknown[0]!r}")
    return fields


def _prefix(fields: dict[str, list[str]]) -> QuantifierPrefix | None:
    """The last ``quantifiers:`` value, or None; every value must parse."""
    try:
        prefixes = [QuantifierPrefix.parse(v) for v in fields["quantifiers"]]
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return prefixes[-1] if prefixes else None


def parse_track_letter(token: str, var_order) -> tuple[str, ...]:
    """The symbols of a letter ``[x=a,y=#]``, in the order of ``var_order``
    (the letter's own order if None)."""
    body = token[1:-1]
    if token[:1] != "[" or token[-1:] != "]" or "[" in body or "]" in body:
        raise ParseError(f"expected a track letter like [x=a,y=#], got {token!r}")
    names, symbols = [], []
    for entry in body.split(",") if body else ():
        name, eq, symbol = entry.partition("=")
        if not eq:
            raise ParseError(f"bad track-letter entry {entry!r} in {token!r}")
        names.append(name.strip())
        symbols.append(symbol.strip())
    names = tuple(names)
    # as every writer spells a letter: its names in order, each once
    if (var_order is None or names == var_order) and len(set(names)) == len(names):
        return tuple(symbols)
    assignment = dict(zip(names, symbols))  # a repeated name takes its last symbol
    if var_order is None:
        var_order = tuple(assignment)
    missing = [v for v in var_order if v not in assignment]
    extra = [v for v in assignment if v not in var_order]
    if missing or extra:
        raise ParseError(f"letter {token!r} does not cover variables {var_order}")
    return tuple(assignment[v] for v in var_order)


_AUTOMATON_KEYS = ("type", "alphabet", "vars", "states", "initial", "accepting", "trans")


def parse_nfa(text: str) -> Nfa:
    """Parse the NFA/DFA text format."""
    return _automaton(_fields(text, "automaton", _AUTOMATON_KEYS))


def _automaton(fields: dict[str, list[str]]) -> Nfa:
    transitions = []
    for value in fields["trans"]:
        parts = value.split()
        if len(parts) != 3:
            raise ParseError(f"bad transition line {value!r}")
        transitions.append(parts)
    last = {key: values[-1] for key, values in fields.items() if values}
    kind = last.get("type")
    alphabet = last.get("alphabet", "").split()
    states = last.get("states", "").split()
    initial = last.get("initial", "").split()
    accepting = last.get("accepting", "").split()
    vars_ = tuple(last["vars"].split()) if "vars" in last else None
    if kind not in ("nfa", "dfa"):
        raise ParseError(f"missing or bad 'type:' line (got {kind!r})")
    if not alphabet:
        raise ParseError("missing 'alphabet:' line")
    if vars_ is None and PAD in alphabet:
        raise ParseError(f"the pad symbol {PAD!r} is not a letter of a base automaton")
    try:
        if vars_ is None:
            trans = set(map(tuple, transitions))
        else:
            trans = {(q, parse_track_letter(letter, vars_), p)
                     for q, letter, p in transitions}
        symbols = set(alphabet) | ({PAD} if vars_ is not None else set())
        if kind == "dfa":
            if len(initial) != 1:
                raise ParseError("a DFA needs exactly one initial state")
            return Dfa(symbols, states, initial[0], accepting, trans, vars_)
        return Nfa(symbols, states, initial, accepting, trans, vars_)
    except (ValueError, KeyError) as exc:
        raise ParseError(str(exc)) from exc


def render_nfa(a: Nfa) -> str:
    kind = "dfa" if isinstance(a, Dfa) else "nfa"
    names = canonical(a)
    lines = [f"type: {kind}",
             "alphabet: " + " ".join(sorted(s for s in a.symbols if s != PAD))]
    if a.is_track:
        lines.append("vars: " + " ".join(a.vars))
    lines.append("states: " + " ".join(names.values()))
    lines.append("initial: " + " ".join(n for q, n in names.items() if q in a.initial))
    lines.append("accepting: " + " ".join(n for q, n in names.items()
                                          if q in a.accepting))
    rows = [(names[q], letter_text(a.vars, letter) if a.is_track else letter, names[p])
            for q, letter, p in a.transitions]
    # in the order of repr(transition), a track letter spelled as its text
    key = (lambda row: f"({row[0]!r}, {row[1]}, {row[2]!r})") if a.is_track else repr
    lines.extend("trans: " + " ".join(row) for row in sorted(rows, key=key))
    return "\n".join(lines) + "\n"


def parse_nfh(text: str) -> Nfh:
    """NFH file: the NFA format plus a ``quantifiers:`` line."""
    fields = _fields(text, "automaton", ("quantifiers", *_AUTOMATON_KEYS))
    prefix = _prefix(fields)
    if prefix is None:
        raise ParseError("missing 'quantifiers:' line")
    underlying = _automaton(fields)
    if underlying.vars is None:
        raise ParseError("an NFH underlying automaton needs a 'vars:' line")
    try:
        return Nfh(frozenset(s for s in underlying.symbols if s != PAD),
                   prefix, underlying)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def render_nfh(n: Nfh) -> str:
    return f"quantifiers: {n.prefix.render()}\n" + render_nfa(n.underlying)


def parse_cfg_text(text: str):
    """Parse the grammar format; returns (Cfg, quantifier prefix or None,
    declared alphabet or None)."""
    fields = _fields(text, "grammar",
                     ("start", "quantifiers", "alphabet", "vars", "rule"))
    prefix = _prefix(fields)
    raw_rules = []
    for value in fields["rule"]:
        if "->" not in value:
            raise ParseError(f"bad rule line {value!r}")
        head, body = value.split("->", 1)
        raw_rules.append((head.strip(), body.split()))
    last = {key: values[-1] for key, values in fields.items() if values}
    start = last.get("start")
    if start is None:
        raise ParseError("missing 'start:' line")
    alphabet = last["alphabet"].split() if "alphabet" in last else None
    vars_ = tuple(last["vars"].split()) if "vars" in last else None
    if vars_ is None and prefix is not None:
        vars_ = prefix.variables
    heads = {h for h, _ in raw_rules} | {start}
    # each distinct token once: a bracketed one is a track letter; any other
    # is a variable or a bare base-alphabet terminal, told apart by the heads
    table = {token: parse_track_letter(token, vars_) if token.startswith("[") else token
             for token in dict.fromkeys(t for _, tokens in raw_rules for t in tokens)}
    rules = {(head, () if tokens == ["eps"] else tuple(map(table.__getitem__, tokens)))
             for head, tokens in raw_rules}
    try:
        grammar = Cfg(heads, start, rules, vars_)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return grammar, prefix, alphabet


def parse_cfhg(text: str) -> Cfhg:
    grammar, prefix, alphabet = parse_cfg_text(text)
    if prefix is None:
        raise ParseError("missing 'quantifiers:' line")
    if alphabet is not None and PAD in alphabet:
        raise ParseError(f"the pad symbol {PAD!r} is not a letter of a "
                         "hypergrammar's alphabet")
    if alphabet is None:  # Cfhg refuses a terminal that is not a track letter
        alphabet = {s for t in grammar.terminals() if isinstance(t, tuple)
                    for s in t} - {PAD}
    try:
        return Cfhg(frozenset(alphabet), prefix, grammar)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def render_cfhg(g: Cfhg) -> str:
    lines = [f"quantifiers: {g.prefix.render()}",
             "alphabet: " + " ".join(sorted(g.symbols)),
             "vars: " + " ".join(g.vars),
             f"start: {g.underlying.start}"]
    for v, body in sorted(g.underlying.rules, key=g.underlying.rule_key):
        lines.append(f"rule: {v} -> {_vertex_label(g.vars, body)}")
    return "\n".join(lines) + "\n"


def _parse_word(text: str) -> Word:
    """A word as ``render_word`` writes it: symbol tokens, or one character per symbol."""
    tokens = text.split()
    return tuple(tokens) if len(tokens) > 1 else as_word("".join(tokens))


def parse_word(line: str) -> Word:
    """A word as a language file's line holds it: ``eps`` is the empty word."""
    return () if line == "eps" else _parse_word(line)


def parse_language(text: str) -> list[Word]:
    """One word per line; ``eps`` denotes the empty word.  The pad symbol
    ``#`` is not a word symbol."""
    words = []
    for line in _lines(text):
        if PAD in line:
            raise ParseError(f"word {line!r} holds the pad symbol {PAD!r}")
        words.append(parse_word(line))
    if not words:
        raise ParseError("the language file lists no words")
    return words


def render_language(words) -> str:
    """The words one to a line, sorted and without repeats, as
    ``parse_language`` reads them back.  A word that no line carries (one
    symbol of several characters, a space, ``#``) raises ``ValueError``."""
    lines = []
    for w in sorted(set(map(as_word, words))):
        line = render_word(w)
        if (_lines(line) != [line] or PAD in line
                or parse_word(line) != w):
            raise ValueError(f"no line of a language file carries the word {w!r}")
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_pcp(text: str) -> PcpInstance:
    """One tile per line: ``top | bottom``."""
    tiles = []
    for line in _lines(text):
        if "|" not in line:
            raise ParseError(f"expected 'top | bottom', got {line!r}")
        top, bottom = line.split("|", 1)
        tiles.append((_parse_word(top), _parse_word(bottom)))
    if not tiles:
        raise ParseError("the tile file lists no tiles")
    try:
        return PcpInstance(tuple(tiles))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _vertex_label(vars, vertex) -> str:
    """A variable, or a rule body as its text: its letters spelled over
    ``vars``, ``eps`` if empty."""
    if isinstance(vertex, str):
        return vertex
    return " ".join(letter_text(vars, t) if isinstance(t, tuple) else t
                    for t in vertex) or "eps"


def _rank_set(s) -> str:
    return "{" + ",".join(sorted(s)) + "}"


def render_violation(vars, violation, with_ranks: bool) -> str:
    """One ranked-check violation of a grammar over ``vars``: the rule and
    position, and optionally the rank sets R and L that fail the inclusion."""
    (head, body), i, r, l = violation
    line = f"violation: {head} -> {_vertex_label(vars, body)} @ position {i}"
    if with_ranks:
        line += f": R={_rank_set(r)} ⊄ L={_rank_set(l)}"
    return line


def rank_report(g: Cfhg) -> str:
    """Human-readable rank table plus any ranked-check violations."""
    table = compute_ranks(g.underlying)
    verdict = is_ranked(g.underlying, table)
    lines = ["vertex | L | R"]
    label = lambda vertex: _vertex_label(g.vars, vertex)
    for vertex in sorted(table.left, key=label):
        lines.append(f"{label(vertex)} | {_rank_set(table.left[vertex])}"
                     f" | {_rank_set(table.right[vertex])}")
    lines.extend(render_violation(g.vars, v, with_ranks=False)
                 for v in verdict.violations)
    return "\n".join(lines) + "\n"
