"""Exceptions shared across hesskit's layers."""


class VerificationError(Exception):
    """An exact check found that a claimed statement does not hold.

    Raised where a verification fails on its merits (a rank below the claimed
    injectivity, a modular rank above the exact one, inconsistent gate
    thresholds), so callers that report failed certificates can catch it
    without also catching programming errors.
    """
