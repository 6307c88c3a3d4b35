"""Benchmark of the hyperlang CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each query is an in-process call to ``hyperlang.cli.run`` with
``--json`` on input files generated from the seed, in a closed loop (one
client, one thread).  Every verdict is checked against an answer fixed
before timing; a wrong one exits with code 3 and names the query.  The last
line of stdout is one JSON object with the end-to-end metrics (``--trace
0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

from gen import WORKLOADS, make_queries, write_inputs  # noqa: E402
from oracle import realized_exactly  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402
from speed import SpeedGauge  # noqa: E402

SETUP_REPEATS = 7
WARMUP_QUERIES = 12
END_TO_END = [("setup_s", "s"), ("queries_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("answered_share", "ratio"),
              ("peak_rss_mb", "MB")]
EXIT_CAP = 2
EXIT_USAGE = 64
EXIT_PARSE = 65


class WrongAnswer(Exception):
    pass


def import_cli():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hyperlang", "cli.py")):
        raise SystemExit(f"no hyperlang sources under {SRC}")
    sys.path.insert(0, SRC)
    import hyperlang.cli
    if os.path.dirname(os.path.abspath(hyperlang.__file__)) != os.path.join(SRC, "hyperlang"):
        raise SystemExit(f"hyperlang was imported from {hyperlang.__file__}, not {SRC}")
    return hyperlang.cli


class Runner:
    """Executes and checks queries; keeps the verified output of each
    realize query so that later runs of it compare bytes."""

    def __init__(self, cli, queries, directory: str):
        self.cli = cli
        self.queries = queries
        self.directory = directory
        self.argvs = [q.resolved_argv(directory) for q in queries]
        self.verified: dict[str, str] = {}

    def execute(self, i: int):
        """Run query i; returns (latency in s, outcome) where outcome is
        'answered', 'refused' (cap exceeded) or 'failed' (usage error)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.run(self.argvs[i])
            except Exception as exc:  # a crash is a wrong answer; name the query
                raise WrongAnswer(f"{self.queries[i].qid}: the CLI raised {exc!r}") from exc
        latency = time.perf_counter() - start
        return latency, self.check(self.queries[i], code, out.getvalue(), err.getvalue())

    def check(self, q, code: int, stdout: str, stderr: str) -> str:
        if code == EXIT_CAP and not stdout and stderr.startswith("cap exceeded"):
            return "refused"
        if code in (EXIT_USAGE, EXIT_PARSE):
            return "failed"
        try:
            doc = json.loads(stdout)
        except ValueError:
            raise WrongAnswer(f"{q.qid}: exit {code}, no JSON document; "
                              f"stderr {stderr.strip()!r}") from None
        if "realize" in q.expect:
            self.check_realized(q, doc)
            return "answered"
        got = {key: doc.get(key, "<missing>") for key in q.expect}
        if got != q.expect:
            raise WrongAnswer(f"{q.qid}: expected {q.expect}, got {got}")
        return "answered"

    def check_realized(self, q, doc):
        path = os.path.join(self.directory, q.argv[-1][1:])
        if doc.get("output") != path:
            raise WrongAnswer(f"{q.qid}: expected output {path}, got {doc}")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if self.verified.get(q.qid) == text:
            return
        target, finite = q.expect["realize"]
        problem = realized_exactly(text, target, finite)
        if problem is not None:
            raise WrongAnswer(f"{q.qid}: the realized NFH {problem}")
        self.verified[q.qid] = text

    def loop(self, seconds: float):
        """Closed loop over the queries until ``seconds`` have passed.
        Returns the latencies, scaled by a SpeedGauge, and outcome counts."""
        latencies: list[float] = []
        outcomes = {"answered": 0, "refused": 0, "failed": 0}
        gauge = SpeedGauge()
        gauge.sample()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            latency, outcome = self.execute(len(latencies) % len(self.queries))
            gauge.sample()
            latencies.append(gauge.scale(latency))
            outcomes[outcome] += 1
        return latencies, outcomes


def measure_setup(args, directory: str) -> float:
    """Median time of fresh interpreters that import the package, generate
    the inputs, compute the answers and write the files, each scaled by
    reference-kernel samples taken around it."""
    samples = []
    for k in range(SETUP_REPEATS):
        target = os.path.join(directory, f"setup{k}")
        gauge = SpeedGauge(window=6)
        for _ in range(3):
            gauge.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--setup-into", target], check=True, timeout=120)
        elapsed = time.perf_counter() - start
        for _ in range(3):
            gauge.sample()
        samples.append(gauge.scale(elapsed))
        shutil.rmtree(target)
    return statistics.median(samples)


def end_to_end(latencies, outcomes, setup_s) -> dict[str, float]:
    attempted = len(latencies)
    ms = sorted(x * 1e3 for x in latencies)
    return {
        "setup_s": setup_s,
        "queries_per_s": attempted / sum(latencies),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[8] if attempted > 1 else ms[0],
        "answered_share": outcomes["answered"] / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner, seconds: float, trace_path: str):
    """Each query runs twice in a row, traced and untraced in alternating
    order, so that ``trace.overhead`` compares the same queries under the
    same machine load.  Returns (metrics, attempted, failed)."""
    tracer = Tracer()
    gauge = SpeedGauge()
    gauge.sample()

    def run_once(i: int, with_spans: bool):
        if not with_spans:
            return runner.execute(i)
        tracer.install()
        try:
            return runner.execute(i)
        finally:
            tracer.uninstall()

    plain = traced = 0.0
    refused = failed = queries = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        i = queries % len(runner.queries)
        tracer.query = queries
        for with_spans in ((False, True) if queries % 2 == 0 else (True, False)):
            latency, outcome = run_once(i, with_spans)
            failed += outcome == "failed"
            if with_spans:
                traced += latency
                refused += outcome == "refused"
            else:
                plain += latency
        queries += 1
        gauge.sample()
    metrics = tracer.metrics(queries, refused, gauge.factor())
    metrics["trace.overhead"] = plain / traced
    tracer.write(trace_path)
    return metrics, 2 * queries, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cli = import_cli()
    if args.setup_into:
        write_inputs(make_queries(args.workload, args.seed), args.setup_into)
        return 0

    directory = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        queries = make_queries(args.workload, args.seed)
        write_inputs(queries, directory)
        setup_s = None if args.trace else measure_setup(args, directory)
        runner = Runner(cli, queries, directory)
        for i in range(min(WARMUP_QUERIES, len(queries))):
            runner.execute(i)
        if args.trace:
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            values, attempted, failed = per_layer(runner, args.seconds, trace_path)
            units = PER_LAYER
        else:
            latencies, outcomes = runner.loop(args.seconds)
            values = end_to_end(latencies, outcomes, setup_s)
            attempted, failed, units = len(latencies), outcomes["failed"], END_TO_END
    except WrongAnswer as exc:
        print(f"wrong answer on query {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
