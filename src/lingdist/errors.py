"""Exception types raised across the package, and `quote` for their messages.

Every class derives from LingdistError and carries the exit code the CLI
gives it: 2 for a usage error, 3 for every other error.
Misuse of the library API, such as an inconsistent DistanceMatrix, stays a
ValueError.
"""


def quote(value):
    """The repr of `str(value)`'s first 40 characters, then `...` if more follows."""
    text = str(value)
    return repr(text[:40]) + ("..." if len(text) > 40 else "")


class LingdistError(Exception):
    """Base class for all errors raised by lingdist."""

    exit_code = 3


class UsageError(LingdistError):
    """The command line asks for something lingdist will not do."""

    exit_code = 2


class ParseError(LingdistError):
    """Malformed input: a language file (also word lists of different
    lengths, a repeated language), substitution-table text (also an undefined
    weight class, or a class, gap, default or symbol pair bound to two
    values; every table refusal names its line), or a truth or geo CSV."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FormatError(LingdistError):
    """A distance matrix the OC format cannot hold, on read or on write."""


class DegenerateData(LingdistError):
    """The data admit no result: too few languages, items or values, an
    index or cluster count out of range, a label with no truth class, no
    spread to estimate from, or sums too large for a float."""
