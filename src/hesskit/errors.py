"""Exceptions shared across hesskit's layers, and the one integer-argument check.

Each public entry checks its integer arguments with ``require_int`` as its
first statement, so an input the library refuses raises ``InputError`` (a
``ValueError``) before any work starts; the command line turns that into a
usage error with the same message.
"""


class VerificationError(Exception):
    """An exact check found that a claimed statement does not hold.

    Raised where a verification fails on its merits (a rank below the claimed
    injectivity, a modular rank above the exact one, inconsistent gate
    thresholds), so callers that report failed certificates can catch it
    without also catching programming errors.
    """


class InputError(ValueError):
    """A public entry was given an argument outside its domain."""


def require_int(name: str, value, minimum=None) -> None:
    """Refuse a ``bool``, a non-``int`` and an ``int`` below ``minimum``."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or minimum is not None and value < minimum):
        floor = "" if minimum is None else f" >= {minimum}"
        raise InputError(f"{name} must be an int{floor}, got {value!r}")
