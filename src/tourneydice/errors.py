"""Exception types shared across the package, with the quote and the vertex-count rule their messages share."""

from collections.abc import Callable


class InvalidTournamentError(ValueError):
    """Base class for malformed tournament input."""


class SelfLoopError(InvalidTournamentError):
    pass


class VertexOutOfRangeError(InvalidTournamentError):
    pass


class DuplicateEdgeError(InvalidTournamentError):
    """A vertex pair is oriented twice (same or opposite directions)."""


class MissingEdgeError(InvalidTournamentError):
    """Some vertex pair has no orientation."""


class NTooSmallError(InvalidTournamentError):
    pass


class NotPrimeError(InvalidTournamentError):
    pass


class WrongResidueClassError(InvalidTournamentError):
    pass


class ParseError(InvalidTournamentError):
    """Input text is not well-formed for the requested format."""


class ParityError(ValueError):
    """n falls in the wrong residue class for the requested construction."""


class SideCountMismatchError(ValueError):
    pass


class DuplicateLabelError(ValueError):
    pass


class TieDetectedError(ValueError):
    """A matchup came out at exactly 1/2, so the pair cannot be oriented."""


def _check_vertex_count(n: object, raising: bool = True) -> str | None:
    """None for a plain ``int`` n >= 1; else raise VertexOutOfRangeError or, not raising, return its text."""
    if type(n) is not int:
        fault = f"n must be an integer, got {_echo(n, repr)}"
    elif n < 1:
        fault = f"n must be positive, got {_echo(n)}"
    else:
        return None
    if raising:
        raise VertexOutOfRangeError(fault)
    return fault


def _echo(value: object, show: Callable[[object], str] = str, limit: int = 80) -> str:
    """``show(value)``, ``str`` or ``repr``, cut to its first limit - 3 characters and ``...`` if longer than limit.

    Never an error: what ``show`` cannot print, such as an int over ``sys.get_int_max_str_digits()`` digits
    or a tuple holding one, is ``<unprintable>``.  Messages quote input through here, the CLI at its own limit.
    """
    try:
        text = show(value)
    except Exception:  # any error show raises would replace the one whose message quotes the value
        return "<unprintable>"
    return text if len(text) <= limit else text[: limit - 3] + "..."
