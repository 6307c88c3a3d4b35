"""Toolkit for regular and context-free hyperlanguages.

Provides NFH acceptance, singleton-hyperlanguage realizability constructions,
context-free hypergrammar decision procedures, rank computation, and PCP
reduction encoders, plus text formats and a CLI.
"""

from .core import (HWord, QuantifierPrefix, TrackLetter, hword_from_tracks,
                   is_padding_of, is_synchronous, pad_to_sync, strip_hash,
                   tracks_of)
from .cfg import (Cfg, bar_hillel, cfg_empty, cleanup, cyk_member,
                  derive_bounded, to_cnf)
from .cfhg import (Cfhg, cfhg_empty, exists_empty, exists_regular_member,
                   finite_member, regular_member, sync_check_bounded,
                   sync_forall_empty)
from .errors import (CapExceeded, EmptyLanguage, HyperlangError, LengthMismatch,
                     NotCnf, NotPrefixClosed, NotRanked, ParseError,
                     Undecidable, UniverseTooLarge, UnknownLetter, VarClash,
                     WrongPrefix)
from .nfa import (Dfa, Nfa, compose_free, compose_sync, determinize, difference,
                  intersect, nfa_empty, nfa_member, pad_anywhere, pad_suffix,
                  project, union, word_automaton)
from .nfh import Nfh, nfh_accepts, nfh_hyperlanguage_probe
from .pcp import PcpInstance, pcp_encode_exists_forall, pcp_encode_forall
from .ranks import RankTable, build_rule_graph, compute_ranks, is_ranked
from .realize import (OrderedLanguageSpec, PartialOrderSpec,
                      prefix_closed_relation, realize_finite, realize_ordered,
                      realize_partially_ordered, realize_prefix_closed_fast,
                      realize_regular, regular_relation, successors_exact,
                      successors_ge)

__all__ = [name for name in dir() if not name.startswith("_")]
