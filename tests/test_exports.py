"""The public API: the exact export set, and no export without a caller."""

import ast
from pathlib import Path

import hyperlang

SRC = Path(hyperlang.__file__).parent

# the sorted ``hyperlang.__all__``; a change to the public API changes this list
EXPORTS = """
CapExceeded Cfg Cfhg Dfa EmptyLanguage HWord HyperlangError Nfa Nfh NotCnf
NotPrefixClosed OrderedLanguageSpec ParseError PartialOrderSpec PcpInstance
QuantifierPrefix RankTable TrackLetter Undecidable UniverseTooLarge
UnknownLetter VarClash bar_hillel cfg_empty cfhg_empty cleanup compose_free
compose_sync compute_ranks cyk_member derive_bounded determinize difference
finite_member is_ranked is_synchronous nfa_member nfh_accepts
nfh_hyperlanguage_probe pad_anywhere pad_suffix pad_to_sync
pcp_encode_exists_forall pcp_encode_forall prefix_closed_relation project
realize_finite realize_ordered realize_partially_ordered
realize_prefix_closed_fast realize_regular regular_member regular_relation
strip_hash successors_exact successors_ge to_cnf tracks_of union
word_automaton
""".split()

# exports kept although nothing in ``src`` uses them
REFERENCE_ROUTES = {
    "bar_hillel": "the independent route that tests check cfg_intersect_empty against",
    "derive_bounded": "the derivation enumerator that tests read grammar languages from",
    "realize_regular": "the paper's pumping construction that tests check "
                       "`realize regular` against",
}


def test_export_set_is_pinned():
    assert sorted(hyperlang.__all__) == EXPORTS
    namespace = {}
    exec("from hyperlang import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == EXPORTS


def _used_names() -> set[str]:
    """Every name read or attribute taken in a module of the package other
    than ``__init__``; definitions and imports alone are not uses."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_src_caller():
    dead = set(hyperlang.__all__) - _used_names()
    assert dead == set(REFERENCE_ROUTES)
