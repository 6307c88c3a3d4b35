"""PCP instances and the two hypergrammar reduction encoders."""

from hyperlang.cfg import derive_bounded
from hyperlang.cfhg import finite_member
from hyperlang.pcp import (PcpInstance, pcp_encode_exists_forall,
                           pcp_encode_forall, solution_language)

from conftest import letter, words


def test_instance_apply(pcp_fixture):
    top, bottom = pcp_fixture.apply([3, 2, 3, 1])
    assert "".join(top) == "bbaabbbaa"
    assert "".join(bottom) == "bbaabbbaa"
    assert pcp_fixture.is_solution([3, 2, 3, 1])
    assert not pcp_fixture.is_solution([1])
    assert not pcp_fixture.is_solution([])


def test_encode_forall_rules(pcp_fixture):
    g = pcp_encode_forall(pcp_fixture)
    assert g.prefix.render() == "A x1 A x2"
    v = ("x1", "x2")
    tile1 = (letter(v, "a", "b"), letter(v, "#", "a"), letter(v, "#", "a"))
    assert ("V0", tile1 + ("V0",)) in g.underlying.rules
    assert ("V0", tile1) in g.underlying.rules
    assert len(g.underlying.rules) == 6


def test_encode_forall_equal_length_tile():
    g = pcp_encode_forall(PcpInstance.of(("a", "a")))
    assert len(g.underlying.rules) == 2
    assert g.ranked()  # equal-length tiles produce no pad symbol


def test_encode_forall_solution_word(pcp_fixture):
    g = pcp_encode_forall(pcp_fixture)
    assert finite_member(g, words("bbaabbbaa"))
    assert not finite_member(g, words("a"))


def test_encode_exists_forall_shape(pcp_fixture):
    g = pcp_encode_exists_forall(pcp_fixture)
    assert g.prefix.render() == "E x1 E x2 A x3"
    assert g.symbols == frozenset({"a", "b", "c", "1", "2", "3"})
    assert g.ranked()


def test_encode_exists_forall_is_always_ranked():
    for tiles in [(("a", "b"),), (("ab", "ba"), ("b", "bb"))]:
        assert pcp_encode_exists_forall(PcpInstance.of(*tiles)).ranked()


def test_solution_language(pcp_fixture):
    language = solution_language(pcp_fixture, [3, 2, 3, 1])
    assert {"".join(w) for w in language} == {"bbaabbbaa1323", "c" * 13}


def test_encode_exists_forall_accepts_solution(pcp_fixture):
    g = pcp_encode_exists_forall(pcp_fixture)
    assert finite_member(g, solution_language(pcp_fixture, [3, 2, 3, 1]))


def test_encode_exists_forall_unsolvable_bounded():
    g = pcp_encode_exists_forall(PcpInstance.of(("a", "b")))
    # bounded evidence, not a decision: no 1- or 2-word language built from
    # the x1-track words derivable within 8 letters is a member
    candidates = set()
    for w in derive_bounded(g.underlying, 8):
        track = tuple(t.symbols[0] for t in w)
        candidates.add(tuple(s for s in track if s != "#"))
    assert candidates
    import itertools
    for u, v in itertools.combinations_with_replacement(sorted(candidates), 2):
        assert not finite_member(g, {u, v}), (u, v)


def test_index_word_order(pcp_fixture):
    """Indices are emitted right-to-left: the innermost (first-applied) tile's
    index ends up last, so the sequence 3,2,3,1 reads 1,3,2,3 after the word."""
    g = pcp_encode_exists_forall(pcp_fixture)
    forward_order = {tuple("bbaabbbaa3231"), tuple("c" * 13)}
    assert not finite_member(g, forward_order)
