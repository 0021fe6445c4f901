"""Exception hierarchy for qwalklab."""


class QwalkError(Exception):
    """Base class for all qwalklab errors."""


class DomainError(QwalkError):
    """An input is outside the mathematical domain of an operation."""


class NumericalError(QwalkError):
    """A result outside its accuracy contract; no routine of qwalklab raises it at present."""


class CapacityError(QwalkError):
    """A lattice window or a k-space table would grow beyond its maximum size."""


class FitError(QwalkError):
    """A curve fit received degenerate or out-of-domain data."""
