"""Exception types shared across the package, and the enumeration bound."""

ENUMERATION_BOUND = 10 ** 6


class InvForgeError(Exception):
    """Base class for all errors raised by this package."""


class EntryParseError(InvForgeError):
    """Syntax error in an entry/polynomial/file grammar; carries a position."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class FieldError(InvForgeError):
    """Invalid field construction or operation (division by zero, wrong spec...)."""


class LinalgError(InvForgeError):
    """Shape mismatch, singular matrix where invertible required, etc."""


class ClosureCapError(InvForgeError):
    """Group closure exceeded its element cap (infinite or too large)."""


class BoundExceededError(InvForgeError):
    """A configured enumeration/size bound was exceeded."""


def check_enumeration_bound(size, what):
    """Refuse an exhaustive enumeration of `size` items (`what` names them)
    before it starts, when size exceeds ENUMERATION_BOUND."""
    if size > ENUMERATION_BOUND:
        raise BoundExceededError(
            f"{what} enumeration bound {ENUMERATION_BOUND} exceeded")


class CertificateError(InvForgeError):
    """An exact certificate of a computed answer failed to check."""


class ModularityError(InvForgeError):
    """Operation requires char 0 or char not dividing the group order."""


class NotInvariantError(InvForgeError):
    """Input polynomial fails a required invariance precondition."""

    def __init__(self, message, violating_generator=None):
        self.violating_generator = violating_generator
        super().__init__(message)
