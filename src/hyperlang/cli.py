"""Command-line front end.

Exit codes: 0 = TRUE/success, 1 = FALSE, 2 = undecidable or cap exceeded,
64 = usage error, 65 = parse error.  ``--json`` switches the output to a
machine-readable document with a versioned schema.

An argv ``[--json] GROUP VERB ...`` with a known verb is parsed by that
verb's parser alone, the one that reads it inside the full parser too, so
usage errors stay the same; any other argv (help above a verb, ``--js``, an
unknown group or verb) needs the full parser, which lists the choices.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys

from .cfhg import (bounded_nonempty_witness, cfhg_empty, finite_member,
                   regular_member)
from .core import render_word
from .errors import CapExceeded, HyperlangError, ParseError, Undecidable
from .formats import (parse_cfhg, parse_language, parse_nfa, parse_nfh,
                      parse_pcp, parse_word, rank_report, render_cfhg,
                      render_nfh, render_violation)
from .nfa import Dfa, Nfa, determinize, trim
from .nfh import nfh_accepts, nfh_hyperlanguage_probe
from .pcp import pcp_encode_exists_forall, pcp_encode_forall
from .ranks import is_ranked
from .realize import (OrderedLanguageSpec, prefix_closed_relation,
                      realize_finite, realize_ordered,
                      realize_partially_ordered, realize_prefix_closed_fast,
                      realize_shortlex)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNDECIDABLE = 2
EXIT_USAGE = 64
EXIT_PARSE = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> tuple[_Parser, dict[tuple[str, str], _Parser]]:
    parser = _Parser(prog="hyperlang",
                     description="Regular and context-free hyperlanguage toolkit")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {group: sub.add_parser(group).add_subparsers(dest="verb", required=True)
              for group in ("nfh", "realize", "cfhg", "pcp")}
    verbs = {}

    def verb(group: str, name: str) -> _Parser:
        verbs[group, name] = groups[group].add_parser(name)
        return verbs[group, name]

    member = verb("nfh", "member")
    member.add_argument("nfh_file")
    member.add_argument("lang_file")
    probe = verb("nfh", "probe")
    probe.add_argument("nfh_file")
    probe.add_argument("--max-len", type=int, required=True)

    finite = verb("realize", "finite")
    finite.add_argument("lang_file")
    finite.add_argument("-o", "--output", required=True)
    ordered = verb("realize", "ordered")
    ordered.add_argument("first_word", help="the minimal word, as a language "
                         "file line ('eps' for empty, 'ab c' for symbols ab, c)")
    ordered.add_argument("successor_file", help="NFA over vars x y computing f")
    ordered.add_argument("-o", "--output", required=True)
    prefix_closed = verb("realize", "prefix-closed")
    prefix_closed.add_argument("dfa_file")
    prefix_closed.add_argument("--route", choices=["fast", "relation"],
                               default="fast")
    prefix_closed.add_argument("-o", "--output", required=True)
    regular = verb("realize", "regular")
    regular.add_argument("dfa_file")
    regular.add_argument("-o", "--output", required=True)

    empty = verb("cfhg", "empty")
    empty.add_argument("cfhg_file")
    empty.add_argument("--bounded", type=int, default=None,
                       help="also search for a member language up to this length")
    mf = verb("cfhg", "member-finite")
    mf.add_argument("cfhg_file")
    mf.add_argument("lang_file")
    mr = verb("cfhg", "member-regular")
    mr.add_argument("cfhg_file")
    mr.add_argument("nfa_file")
    ranks = verb("cfhg", "ranks")
    ranks.add_argument("cfhg_file")
    ir = verb("cfhg", "is-ranked")
    ir.add_argument("cfhg_file")

    ef = verb("pcp", "encode-forall")
    ef.add_argument("pcp_file")
    ef.add_argument("-o", "--output", required=True)
    ea = verb("pcp", "encode-ea")
    ea.add_argument("pcp_file")
    ea.add_argument("-o", "--output", required=True)
    return parser, verbs


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _write(path: str, text: str):
    """Write over ``path`` from its start, then cut a regular file to length:
    not atomic, but it spares the costly truncate-to-zero of a full file."""
    try:
        with open(path, "w", encoding="utf-8",
                  opener=lambda p, f: os.open(p, f & ~os.O_TRUNC, 0o666)) as handle:
            handle.write(text)
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                handle.truncate()
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _read_base_automaton(path: str) -> Nfa:
    a = parse_nfa(_read(path))
    if a.is_track:
        raise _UsageError("expected an automaton over the base alphabet "
                          "(no 'vars:' line)")
    return a


def _as_dfa(a: Nfa) -> Dfa:
    if isinstance(a, Dfa):
        return a
    # a subset state is named by its sorted members, which hold no space, so
    # that nothing printed depends on the hash seed
    d = determinize(trim(a))
    name = {q: "{" + " ".join(sorted(q)) + "}" for q in d.states}
    return Dfa(d.symbols, name.values(), name[d.start], map(name.get, d.accepting),
               {(name[q], letter, name[p]) for q, letter, p in d.transitions})


class _Report:
    """Collects the verdict and payload; renders text or JSON at the end."""

    def __init__(self, use_json: bool):
        self.use_json = use_json
        self.document = {"schema": 1}
        self.lines: list[str] = []
        self.exit_code = EXIT_TRUE

    def verdict(self, value: bool):
        self.document["verdict"] = "TRUE" if value else "FALSE"
        self.lines.append("TRUE" if value else "FALSE")
        self.exit_code = EXIT_TRUE if value else EXIT_FALSE

    def undecidable(self, reason: str, message: str):
        self.document["verdict"] = "UNDECIDABLE"
        self.document["reason"] = reason
        self.document["message"] = message
        self.lines.append(f"UNDECIDABLE({reason}): {message}")
        self.exit_code = EXIT_UNDECIDABLE

    def note(self, key: str, value, text: str | None = None):
        self.document[key] = value
        if text is not None:
            self.lines.append(text)

    def body(self, text: str):
        self.document["output"] = text
        self.lines.append(text.rstrip("\n"))

    def emit(self) -> int:
        if self.use_json:
            print(json.dumps(self.document, sort_keys=True))
        else:
            for line in self.lines:
                print(line)
        return self.exit_code


def _run_nfh(args, report: _Report):
    n = parse_nfh(_read(args.nfh_file))
    if args.verb == "member":
        words = parse_language(_read(args.lang_file))
        report.verdict(nfh_accepts(n, words))
    else:
        accepted = nfh_hyperlanguage_probe(n, args.max_len)
        rendered = sorted("{" + ",".join(render_word(w) for w in sorted(lang)) + "}"
                          for lang in accepted)
        report.note("languages", rendered)
        report.lines.extend(rendered or ["(none)"])


def _run_realize(args, report: _Report):
    if args.verb == "finite":
        n = realize_finite(parse_language(_read(args.lang_file)))
    elif args.verb == "ordered":
        successor = parse_nfa(_read(args.successor_file))
        try:
            spec = OrderedLanguageSpec(parse_word(args.first_word), successor)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        n = realize_ordered(spec)
    elif args.verb == "prefix-closed":
        dfa = _as_dfa(_read_base_automaton(args.dfa_file))
        if args.route == "fast":
            n = realize_prefix_closed_fast(dfa)
        else:
            n = realize_partially_ordered(prefix_closed_relation(dfa))
    else:
        n = realize_shortlex(_as_dfa(_read_base_automaton(args.dfa_file)))
    _write(args.output, render_nfh(n))
    report.note("output", args.output, f"wrote {args.output}")


def _run_cfhg(args, report: _Report):
    g = parse_cfhg(_read(args.cfhg_file))
    if args.verb == "empty":
        try:
            report.verdict(cfhg_empty(g))
        except Undecidable as exc:
            report.undecidable(exc.reason, str(exc))
            if args.bounded is not None:
                witness = bounded_nonempty_witness(g, args.bounded)
                if witness is None:
                    report.note("witness", None,
                                f"no member language found up to length {args.bounded}")
                else:
                    rendered = "{" + ",".join(render_word(w)
                                              for w in sorted(witness)) + "}"
                    report.note("witness", rendered, f"witness: {rendered}")
    elif args.verb == "member-finite":
        words = parse_language(_read(args.lang_file))
        report.verdict(finite_member(g, words))
    elif args.verb == "member-regular":
        report.verdict(regular_member(g, _read_base_automaton(args.nfa_file)))
    elif args.verb == "ranks":
        report.body(rank_report(g))
    else:
        verdict = is_ranked(g.underlying)
        report.verdict(verdict.ranked)
        for violation in verdict.violations:
            line = render_violation(g.vars, violation, with_ranks=True)
            report.lines.append(line)
            report.document.setdefault("violations", []).append(line)


def _run_pcp(args, report: _Report):
    instance = parse_pcp(_read(args.pcp_file))
    if args.verb == "encode-forall":
        g = pcp_encode_forall(instance)
    else:
        g = pcp_encode_exists_forall(instance)
    _write(args.output, render_cfhg(g))
    report.note("output", args.output, f"wrote {args.output}")


# Built once per process: argparse keeps no state between ``parse_args``
# calls, and building its ~20 parsers costs more than a membership query.
_PARSER, _VERBS = _build_parser()


def _parse(argv) -> argparse.Namespace:
    json_flag = "--json" in argv[:1]
    group_verb = tuple(argv[json_flag:json_flag + 2])
    if group_verb not in _VERBS:
        return _PARSER.parse_args(argv)
    args = _VERBS[group_verb].parse_args(argv[json_flag + 2:])
    args.json, (args.group, args.verb) = json_flag, group_verb
    return args


def run(argv) -> int:
    try:
        args = _parse(argv)
        if any((getattr(args, bound, None) or 0) < 0 for bound in ("max_len", "bounded")):
            raise _UsageError("a length bound must be at least 0")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = _Report(args.json)
    try:
        if args.group == "nfh":
            _run_nfh(args, report)
        elif args.group == "realize":
            _run_realize(args, report)
        elif args.group == "cfhg":
            _run_cfhg(args, report)
        else:
            _run_pcp(args, report)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Undecidable as exc:
        report.undecidable(exc.reason, str(exc))
        return report.emit()
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_UNDECIDABLE
    except HyperlangError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return report.emit()


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
