"""Spans around the package's public functions, for the per-layer metrics.

``Tracer.install`` replaces each traced function in every ``hyperlang``
module that binds it (modules import names directly, as in
``from .cfg import to_cnf``), and ``uninstall`` puts the originals back;
the benchmark installs the wrappers around single queries.
Spans live in memory as [name, start, end, parent, query, out, nested] and are
written out once at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, function, span name, extractor of an ``out`` count from
# (args, result)).  Several functions may share a span name.
TRACED = [
    ("cli", "run", "cli.run", None),
    ("formats", "parse_nfh", "formats.parse", None),
    ("formats", "parse_nfa", "formats.parse", None),
    ("formats", "parse_cfhg", "formats.parse", None),
    ("formats", "parse_cfg_text", "formats.parse", None),
    ("formats", "parse_language", "formats.parse", None),
    ("formats", "render_nfh", "formats.render", None),
    ("formats", "render_nfa", "formats.render", None),
    ("cfg", "to_cnf", "cfg.to_cnf", lambda a, r: len(r.rules)),
    ("cfg", "cleanup", "cfg.cleanup", None),
    ("cfg", "cyk_member", "cfg.cyk_member", None),
    ("cfg", "cfg_intersect_empty", "cfg.cfg_intersect_empty", None),
    ("ranks", "compute_ranks", "ranks.compute_ranks", None),
    ("ranks", "is_ranked", "ranks.is_ranked", None),
    ("cfhg", "finite_member", "cfhg.finite_member", None),
    ("cfhg", "bounded_nonempty_witness", "cfhg.bounded_nonempty_witness", None),
    ("nfh", "nfh_accepts", "nfh.nfh_accepts", None),
    ("nfh", "nfh_hyperlanguage_probe", "nfh.nfh_hyperlanguage_probe",
     lambda a, r: (len(r), _subsets(a))),
    ("nfa", "nfa_language", "nfa.nfa_language", None),
    ("nfa", "nfa_member", "nfa.nfa_member", None),
    ("nfa", "track_product", "nfa.track_product", lambda a, r: len(r.states)),
    ("nfa", "determinize", "nfa.determinize", lambda a, r: len(r.states)),
    ("nfa", "compose_free", "nfa.compose_free", None),
    ("realize", "realize_finite", "realize.realize_finite",
     lambda a, r: len(r.underlying.states)),
    ("realize", "realize_prefix_closed_fast", "realize.realize_prefix_closed_fast",
     lambda a, r: len(r.underlying.states)),
    ("realize", "realize_partially_ordered", "realize.realize_partially_ordered",
     lambda a, r: len(r.underlying.states)),
    ("realize", "regular_relation", "realize.regular_relation", None),
    ("realize", "successors_ge", "realize.successors_ge", lambda a, r: len(r.states)),
    ("realize", "successors_exact", "realize.successors_exact", None),
]

REALIZERS = ("realize.realize_finite", "realize.realize_prefix_closed_fast",
             "realize.realize_partially_ordered")

# Every per-layer metric: (name, unit).  Times and calls are per traced query.
PER_LAYER = [
    ("cfg.to_cnf.calls", "calls/query"),
    ("cfg.to_cnf.total_ms", "ms/query"),
    ("ranks.compute_ranks.calls", "calls/query"),
    ("ranks.compute_ranks.total_ms", "ms/query"),
    ("cfhg.finite_member.calls", "calls/query"),
    ("cfhg.finite_member.self_ms", "ms/query"),
    ("cfhg.bounded_nonempty_witness.self_ms", "ms/query"),
    ("cfhg.finite_member.calls_per_witness_query", "ratio"),
    ("nfh.nfh_hyperlanguage_probe.self_ms", "ms/query"),
    ("nfa.nfa_language.self_ms", "ms/query"),
    ("nfh.probe.accepted_per_subset", "ratio"),
    ("cfg.cyk_member.calls", "calls/query"),
    ("cfg.cyk_member.self_ms", "ms/query"),
    ("cfg.cfg_intersect_empty.calls", "calls/query"),
    ("cfg.cfg_intersect_empty.self_ms", "ms/query"),
    ("nfa.track_product.self_ms", "ms/query"),
    ("nfa.track_product.out_states", "states"),
    ("cfg.cleanup.self_ms", "ms/query"),
    ("cfg.to_cnf.out_rules", "rules"),
    ("ranks.is_ranked.self_ms", "ms/query"),
    ("cli.run.self_ms", "ms/query"),
    ("formats.parse.self_ms", "ms/query"),
    ("nfh.nfh_accepts.self_ms", "ms/query"),
    ("nfa.nfa_member.calls", "calls/query"),
    ("nfa.nfa_member.self_ms", "ms/query"),
    ("realize.successors_ge.total_ms", "ms/query"),
    ("realize.successors_ge.out_states", "states"),
    ("realize.successors_exact.total_ms", "ms/query"),
    ("realize.regular_relation.total_ms", "ms/query"),
    ("realize.realize_partially_ordered.total_ms", "ms/query"),
    ("realize.realize_prefix_closed_fast.total_ms", "ms/query"),
    ("realize.realize_finite.total_ms", "ms/query"),
    ("nfa.determinize.self_ms", "ms/query"),
    ("nfa.determinize.out_states", "states"),
    ("nfa.compose_free.total_ms", "ms/query"),
    ("realize.nfh_states", "states"),
    ("formats.render.self_ms", "ms/query"),
    ("realize.cap_exceeded", "refusals/query"),
    ("trace.overhead", "ratio"),
]


def _subsets(args) -> int:
    """2^|U| - 1 for a probe over the universe of words up to max_len."""
    nfh, max_len = args[0], args[1]
    universe = sum(len(nfh.symbols) ** i for i in range(max_len + 1))
    return (1 << universe) - 1


class Tracer:
    """Records spans while installed; ``query`` tags the spans of one query."""

    def __init__(self):
        self.spans: list[list] = []
        self.query = -1
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._plan: list[tuple] = []

    def _wrap(self, name, fn, out):
        spans, stack, open_ = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query, None,
                    open_.get(name, 0) > 0]
            stack.append(len(spans))
            spans.append(span)
            open_[name] = open_.get(name, 0) + 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_[name] -= 1
                stack.pop()
            if out is not None:
                span[5] = out(args, result)
            return result
        return wrapper

    def install(self):
        if not self._plan:
            modules = [m for n, m in sorted(sys.modules.items())
                       if n == "hyperlang" or n.startswith("hyperlang.")]
            for module_name, fn_name, span_name, out in TRACED:
                original = getattr(sys.modules[f"hyperlang.{module_name}"], fn_name)
                wrapper = self._wrap(span_name, original, out)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._plan.append((module, attr, original, wrapper))
        for module, attr, _, wrapper in self._plan:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._plan:
            setattr(module, attr, original)

    def metrics(self, queries: int, cap_refusals: int,
                time_scale: float) -> dict[str, float]:
        """Aggregate the spans into every PER_LAYER metric except the
        overhead ratio, which needs the untraced run.  Span times are
        multiplied by ``time_scale``."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        outs: dict[str, list] = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, out, nested in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _, out, nested) in enumerate(self.spans):
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + duration - child[i]
            if not nested:
                total[name] = total.get(name, 0.0) + duration
            if out is not None:
                outs.setdefault(name, []).append(out)

        per_query = 1.0 / max(queries, 1)
        ms_per_query = 1e3 * time_scale * per_query
        values: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls.get(layer, 0) * per_query
            elif kind == "total_ms":
                values[metric] = total.get(layer, 0.0) * ms_per_query
            elif kind == "self_ms":
                values[metric] = self_time.get(layer, 0.0) * ms_per_query
            elif kind in ("out_states", "out_rules"):
                found = outs.get(layer, [])
                values[metric] = sum(found) / len(found) if found else 0.0
        witness_calls = calls.get("cfhg.bounded_nonempty_witness", 0)
        values["cfhg.finite_member.calls_per_witness_query"] = (
            calls.get("cfhg.finite_member", 0) / witness_calls if witness_calls else 0.0)
        probes = outs.get("nfh.nfh_hyperlanguage_probe", [])
        scanned = sum(s for _, s in probes)
        values["nfh.probe.accepted_per_subset"] = (
            sum(a for a, _ in probes) / scanned if scanned else 0.0)
        realized = [n for name in REALIZERS for n in outs.get(name, [])]
        values["realize.nfh_states"] = sum(realized) / len(realized) if realized else 0.0
        values["realize.cap_exceeded"] = cap_refusals * per_query
        return values

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, query, out, _) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "query": query, "out": out}) + "\n")
