"""Exception types shared across the package."""
from __future__ import annotations


class HitstatError(Exception):
    """Base class for all package-specific errors."""


# --- model construction and validation ---------------------------------

class NonStochasticRow(HitstatError, ValueError):
    """A probability vector or kernel row does not sum to one."""


class ZeroMassSymbol(HitstatError, ValueError):
    """A finite-alphabet distribution assigns zero mass to a symbol."""


class ReducibleChain(HitstatError, ValueError):
    """The transition kernel is not irreducible and aperiodic."""


class BadThetaRange(HitstatError, ValueError):
    """The geometric ratio lies outside the open interval (0, 1)."""


class InvalidSymbol(HitstatError, ValueError):
    """A symbol index is negative or outside the model's alphabet."""


class NonPositiveS(HitstatError, ValueError):
    """A Renyi order parameter s must be strictly positive and finite (not NaN)."""


class BudgetExceeded(HitstatError, ValueError):
    """An n-gram code would not fit in 64 bits."""


# --- orbit engine -------------------------------------------------------

class ZeroMeasureTarget(HitstatError, ValueError):
    """The target word has zero measure under the model."""


class MeasureUnderflow(HitstatError, ValueError):
    """A target's measure is too small to scan or walk to: it rounds to 0.0
    in plain floats, or the step scale it needs (a scan cap or a time
    ``t/mu``) passes ``models.STEP_CEILING``."""


class CensoringExceeded(HitstatError, RuntimeError):
    """Too many censored samples for a trustworthy summary."""


# --- exact distributions ------------------------------------------------

class TailNotContracting(HitstatError, RuntimeError):
    """Some transient states of an absorbing chain never exit (a zero
    elimination pivot), so sums over its future diverge."""


class ToleranceNotCertified(HitstatError, ArithmeticError):
    """The certified error bound of a computed value is wider than the
    requested relative tolerance."""


class GridTooCoarse(HitstatError, ValueError):
    """Too few usable grid points to fit a survival decay rate."""


# --- byte-stream estimators ----------------------------------------------

class EmptyInput(HitstatError, ValueError):
    """An input byte sequence is empty."""


class IoFailure(HitstatError, OSError):
    """An input source could not be read."""


class SequenceTooShort(HitstatError, ValueError):
    """The symbol sequence is too short for the requested block length."""
