"""Exception types shared across the toolkit."""


class HyperlangError(Exception):
    """Base class for all toolkit errors."""


class VarClash(HyperlangError):
    """Two automata to be composed share a word variable."""


class UnknownLetter(HyperlangError):
    """A word contains a letter outside the automaton's alphabet."""


class EmptyLanguage(HyperlangError):
    """An operation that requires a non-empty language received an empty one."""


class UniverseTooLarge(HyperlangError):
    """The requested probe universe exceeds the exhaustive-search guard."""


class NotPrefixClosed(HyperlangError):
    """The given DFA does not recognize a prefix-closed language."""


class CapExceeded(HyperlangError):
    """A configured size cap was exceeded during a construction."""


class NotCnf(HyperlangError):
    """A grammar operation requiring Chomsky normal form got a non-CNF grammar."""


class AlphabetMismatch(HyperlangError):
    """Grammar and automaton operate over different alphabets."""


class WrongPrefix(HyperlangError):
    """A decision procedure was invoked with an unsupported quantifier prefix."""


class NotRanked(HyperlangError):
    """A procedure restricted to ranked (synchronous) grammars got an unranked one."""


class ParseError(HyperlangError):
    """A text artifact (automaton, grammar, language, or tile file) failed to parse."""


class Undecidable(HyperlangError):
    """The requested query has no decision procedure.

    ``reason`` names the undecidability result that applies.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason
