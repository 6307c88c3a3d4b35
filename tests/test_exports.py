"""The public API: the exact export set, and no export or definition that
nothing in ``src`` reads."""

import ast
from pathlib import Path

import hyperlang

SRC = Path(hyperlang.__file__).parent

# the sorted ``hyperlang.__all__``; a change to the public API changes this list
EXPORTS = """
CapExceeded Cfg Cfhg Dfa EmptyLanguage HyperlangError Nfa Nfh
NotPrefixClosed OrderedLanguageSpec ParseError PartialOrderSpec PcpInstance
QuantifierPrefix RankTable Undecidable UniverseTooLarge
UnknownLetter VarClash bar_hillel cfg_empty cfhg_empty cleanup compose_free
compose_sync compute_ranks cyk_member derive_bounded determinize difference
finite_member is_ranked is_synchronous nfa_member nfh_accepts
nfh_hyperlanguage_probe pad_anywhere pad_suffix pad_to_sync
pcp_encode_exists_forall pcp_encode_forall prefix_closed_relation project
realize_finite realize_ordered realize_partially_ordered
realize_prefix_closed_fast realize_regular regular_member regular_relation
strip_hash successors_exact successors_ge to_cnf union
word_automaton
""".split()

# functions, classes and methods kept although nothing in ``src`` reads them
UNREAD = {
    "bar_hillel": "the independent route that tests check cfg_intersect_empty against",
    "compose_free": "the free composition that tests check realize's product passes "
                    "against, and a name the benchmark's span tracer wraps in `nfa`",
    "derive_bounded": "the bounded derivation that test_cfg, test_acceptance, "
                      "test_ranks and test_pcp compare against",
    "project": "the track projection of the chain that tests check "
               "successors_ge against",
    "realize_regular": "the paper's pumping construction that tests check "
                       "`realize regular` against",
    "relation_pairs": "the enumeration that tests read a relation's pairs from",
    "render_language": "the inverse of parse_language, checked by a round trip",
    "shortlex_successor": "the successor relation alone, which tests check against "
                          "enumeration and the less-minus-between reference",
    "solution_language": "the member language that tests check the PCP encodings "
                         "accept",
    "PcpInstance.of": "the constructor from tile pairs that the PCP fixtures use",
    "_Parser.error": "the argparse hook that turns a usage error into exit 64",
    "is_synchronous": "criterion 7's check that a ranked grammar derives only "
                      "well-padded track words",
    "nfa_language": "the bounded enumeration that tests compare against, and a "
                    "name the benchmark's span tracer wraps in `nfa`",
    "strip_hash": "the inverse of padding, which tests read tracks back through",
    "word_automaton": "the line of one word, the operand of the composed references "
                      "of realize's product passes",
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
    assert dead == set(UNREAD) & set(hyperlang.__all__)


def _definitions() -> dict[str, str]:
    """Qualified name -> name of every module-level function and class of the
    package, and of every method but the dunders, which Python calls."""
    found = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if (isinstance(method, ast.FunctionDef)
                            and not method.name.startswith("__")):
                        found[f"{node.name}.{method.name}"] = method.name
    return found


def test_every_definition_has_a_src_reader():
    used = _used_names()
    assert {q for q, name in _definitions().items() if name not in used} == set(UNREAD)
