"""Self-tests of the benchmark: seeded inputs, oracles and the answer check.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Scratch files go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SCRATCH = os.path.join(run.OUT, "selftest")


def _fresh(name: str) -> str:
    path = os.path.join(SCRATCH, name)
    shutil.rmtree(path, ignore_errors=True)
    return path


def test_same_seed_same_bytes():
    for workload in gen.WORKLOADS:
        first, second, other = (_fresh(f"{workload}-{k}") for k in ("a", "b", "c"))
        gen.write_inputs(gen.make_queries(workload, 7), first)
        gen.write_inputs(gen.make_queries(workload, 7), second)
        gen.write_inputs(gen.make_queries(workload, 8), other)
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(second))
        _, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
        assert not mismatch and not errors, (workload, mismatch, errors)
        _, changed, _ = filecmp.cmpfiles(first, other, names, shallow=False)
        assert changed, f"{workload}: seeds 7 and 8 give the same inputs"


def test_criterion9_solution():
    tiles = gen.CRITERION9_TILES
    assert next(oracle.pcp_solutions(tiles, 4)) == (3, 2, 3, 1)
    assert oracle.ea_member(tiles, ["bbaabbbaa1323", "c" * 13])
    assert not oracle.ea_member(tiles, ["bbaabbbaa3231", "c" * 13])
    assert oracle.forall_member(tiles, ["bbaabbbaa"])
    assert not oracle.forall_member(tiles, ["bbaabbbab"])


def test_criterion2_probes_equal_language():
    """The finite-language NFH accepts exactly {L} among all languages over
    words of length at most 3, for the paper's criterion-2 languages."""
    universe = oracle.bounded_universe("ab", 3)
    for language in ({"ab", "ba"}, {"a"}, {"", "a"}, {"a", "b", "ab"}):
        nfh = oracle.NfhText(gen.finite_nfh_text(language))
        accepted = [set(ws) for ws in oracle.subsets_in_mask_order(universe)
                    if nfh.accepts(ws)]
        assert accepted == [language], (language, accepted)


def test_wrong_expected_answer_is_caught():
    cli = run.import_cli()
    directory = _fresh("wrong")
    verdict = next(q for q in gen.make_queries("membership", 3) if q.cls == "ea-planted")
    realized = next(q for q in gen.make_queries("realize", 3)
                    if q.cls == "finite" and len(q.expect["realize"][0]) > 1)
    queries = [verdict, realized]
    gen.write_inputs(queries, directory)
    runner = run.Runner(cli, queries, directory)
    for i in range(len(queries)):
        assert runner.execute(i)[1] == "answered"
    verdict.expect = {"verdict": "FALSE"}
    words, finite = realized.expect["realize"]
    realized.expect = {"realize": (words[1:], finite)}
    runner.verified.clear()
    for i in range(len(queries)):
        try:
            runner.execute(i)
        except run.WrongAnswer:
            continue
        raise AssertionError(f"the wrong answer for {queries[i].qid} went unnoticed")


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(gen.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END


def main() -> int:
    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"ok   {name}")
            except Exception as exc:  # report every failing test, then exit 1
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
