"""Golden outputs: CLI bytes pinned on inputs whose symbols have several
characters, where sorting a letter by its text ``[x=1,y=10]`` and by the
``repr`` of its symbol tuple disagree (``1]`` sorts after ``10``, ``1'``
before it).  Each expected file under ``tests/golden`` is the call's output."""

from pathlib import Path

import pytest

from hyperlang.cli import run

GOLDEN = Path(__file__).parent / "golden"

# (input, argv before the input, expected file, exit code): an -o call's
# expected file is the file it writes, any other call's is its stdout
CALLS = [
    ("tiles11.txt", ["pcp", "encode-ea"], "ea11.cfhg", 0),
    ("ea11.cfhg", ["cfhg", "ranks"], "ea11.ranks", 0),
    ("ea11.cfhg", ["cfhg", "is-ranked"], "ea11.is-ranked", 0),
    ("a-ab.dfa", ["realize", "regular"], "a-ab.regular.nfh", 0),
    ("a-ab.dfa", ["realize", "prefix-closed", "--route", "relation"],
     "a-ab.relation.nfh", 0),
    # two rules, or two moves from one state, that differ only in 1 and 10
    # on their last track
    ("tiles-one-ten.txt", ["pcp", "encode-forall"], "forall-one-ten.cfhg", 0),
    ("one-ten.cfhg", ["cfhg", "ranks"], "one-ten.ranks", 0),
    ("one-ten.cfhg", ["cfhg", "is-ranked"], "one-ten.is-ranked", 1),
    ("one-ten.dfa", ["realize", "regular"], "one-ten.regular.nfh", 0),
    ("one-ten.dfa", ["realize", "prefix-closed", "--route", "relation"],
     "one-ten.relation.nfh", 0),
    ("one-ten.lang", ["realize", "finite"], "one-ten.finite.nfh", 0),
]


@pytest.mark.parametrize("source, argv, expected, code", CALLS,
                         ids=[expected for _, _, expected, _ in CALLS])
def test_golden_output(source, argv, expected, code, tmp_path, capsys):
    writes = expected.endswith((".cfhg", ".nfh"))
    out = tmp_path / expected
    assert run(argv + [str(GOLDEN / source)]
               + (["-o", str(out)] if writes else [])) == code
    printed = capsys.readouterr().out
    got = out.read_text(encoding="utf-8") if writes else printed
    assert got == (GOLDEN / expected).read_text(encoding="utf-8")
