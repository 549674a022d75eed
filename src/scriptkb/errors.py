"""Exception types raised across the package."""


class KbError(Exception):
    """Base class for every error raised by this package."""


class PositionedError(KbError):
    """Error carrying an optional source position (1-based line/column)."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.line is not None:
            return f"{self.line}:{self.col or 1}: {self.message}"
        return self.message


# hierarchy / lexicon
class UnknownConcept(KbError):
    pass


class DuplicateConcept(KbError):
    pass


class UnknownParent(KbError):
    pass


class CycleDetected(KbError):
    pass


# knowledge-base file parsing
class KbSyntaxError(PositionedError):
    pass


class UnbalancedBracket(KbSyntaxError):
    pass


class UnknownUnit(KbSyntaxError):
    pass


class MalformedNumber(KbSyntaxError):
    pass


class SelfRefWithoutContext(KbSyntaxError):
    pass


# grids
class MalformedHeader(PositionedError):
    pass


class OutOfBounds(KbError):
    pass


# script views
class BadGotoTarget(KbError):
    pass


class RoleTypeMismatch(KbError):
    pass


class TooManyBindings(KbError):
    pass


class NotAScript(KbError):
    pass


# question answering
class UnrecognizedTemplate(KbError):
    pass


class UnknownSubjectPhrase(KbError):
    pass


# statistics
class EmptyDatabase(KbError):
    pass


# rule extraction
class UnbalancedParen(PositionedError):
    pass


class StrayAtom(PositionedError):
    """An atom outside any parenthesized form."""
