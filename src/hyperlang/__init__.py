"""Toolkit for regular and context-free hyperlanguages.

Provides NFH acceptance, singleton-hyperlanguage realizability constructions,
context-free hypergrammar decision procedures, rank computation, and PCP
reduction encoders, plus text formats and a CLI.
"""

import types

from .core import (QuantifierPrefix, TrackLetter, is_synchronous, pad_to_sync,
                   strip_hash)
from .cfg import (Cfg, bar_hillel, cfg_empty, cleanup, cyk_member,
                  derive_bounded, to_cnf)
from .cfhg import Cfhg, cfhg_empty, finite_member, regular_member
from .errors import (CapExceeded, EmptyLanguage, HyperlangError,
                     NotPrefixClosed, ParseError, Undecidable,
                     UniverseTooLarge, UnknownLetter, VarClash)
from .nfa import (Dfa, Nfa, compose_free, compose_sync, determinize, difference,
                  nfa_member, pad_anywhere, pad_suffix, project, union,
                  word_automaton)
from .nfh import Nfh, nfh_accepts, nfh_hyperlanguage_probe
from .pcp import PcpInstance, pcp_encode_exists_forall, pcp_encode_forall
from .ranks import RankTable, compute_ranks, is_ranked
from .realize import (OrderedLanguageSpec, PartialOrderSpec,
                      prefix_closed_relation, realize_finite, realize_ordered,
                      realize_partially_ordered, realize_prefix_closed_fast,
                      realize_regular, regular_relation, successors_exact,
                      successors_ge)

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType))
