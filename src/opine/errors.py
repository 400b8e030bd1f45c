"""Exception types shared across the package."""


class OpineError(Exception):
    """Base class for all errors raised by this package."""


class InputError(OpineError):
    """An error in an annotation or lexicon file, tied to a location.

    Rendered as ``<file>:<line>: <code>: <message>``.
    """

    code = "InputError"

    def __init__(self, message, filename="<input>", lineno=0):
        self.message = message
        self.filename = filename
        self.lineno = lineno
        super().__init__(str(self))

    def __str__(self):
        return f"{self.filename}:{self.lineno}: {self.code}: {self.message}"


class MalformedLine(InputError):
    code = "MalformedLine"


class DanglingReference(InputError):
    code = "DanglingReference"


class RootConstraintViolation(InputError):
    code = "RootConstraintViolation"


class DuplicateId(InputError):
    code = "DuplicateId"


class ContradictoryInput(InputError):
    """Two input lines put opposite attitudes of one source into one space."""

    code = "ContradictoryInput"


class LexiconMismatch(InputError):
    """An influencer line's lexicon entry is an infl record of the other kind."""

    code = "LexiconMismatch"


class MalformedRecord(InputError):
    code = "MalformedRecord"


class DuplicateKey(InputError):
    code = "DuplicateKey"


class IllFormedNode(OpineError):
    """A node specification violates the knowledge-representation invariants."""


class IterationLimitExceeded(OpineError):
    """The inference loop hit the configured iteration cap."""


class InvariantViolation(OpineError):
    """An internal consistency invariant no longer holds."""
