"""Exception types raised across the package.

Everything derives from LingdistError so callers (and the CLI) can catch
one base class and map it to an exit status.
"""


class LingdistError(Exception):
    """Base class for all errors raised by lingdist."""


class UsageError(LingdistError):
    """The command line asks for something lingdist will not do (exit 2)."""


# --- text formats (language files, table DSL) ---------------------------

class ParseError(LingdistError):
    """Malformed input file: a language file, substitution-table text, or a
    truth or pair-distance CSV."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InconsistentArity(LingdistError):
    """Word lists in one database do not all have the same length."""


class DuplicateLanguage(LingdistError):
    """The same language name occurs in more than one fact."""


# --- substitution tables -------------------------------------------------

class UndefinedClass(LingdistError):
    """A pair rule references a weight class that was never defined."""


class DuplicatePairRule(LingdistError):
    """The same symbol pair is bound to two different costs."""


class UnknownTableName(UsageError):
    """No built-in table with the requested name."""


# --- edit distance and matrices ------------------------------------------

class BothEmpty(LingdistError):
    """Normalized distance is undefined when both sequences are empty."""


class LimitExceeded(LingdistError):
    """More co-optimal alignments exist than the caller's limit allows."""


class TooFewLanguages(LingdistError):
    pass


class IndexOutOfRange(LingdistError):
    """Concept index outside the database's word-list length."""


class FormatError(LingdistError):
    """Malformed distance-matrix file."""


# --- clustering -----------------------------------------------------------

class TooFewItems(LingdistError):
    pass


class BadK(LingdistError):
    """Requested cluster count outside the valid range."""


class MissingTruthLabel(LingdistError):
    """A clustered label has no ground-truth class."""


# --- statistics -----------------------------------------------------------

class ColumnTooShort(LingdistError):
    pass


class ZeroVariance(LingdistError):
    pass


class DegenerateData(LingdistError):
    """The data admit no result: no spread to estimate a density from, or
    sums of distances too large for a float."""


class EmptyInput(LingdistError):
    pass


class LengthMismatch(LingdistError):
    pass


class NonPositiveX(LingdistError):
    """log10 regression needs strictly positive x values."""


class DegenerateX(LingdistError):
    """Regressor has zero variance."""

