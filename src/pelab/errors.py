"""Exception hierarchy shared by every pelab module."""


class PelabError(Exception):
    """Base class for all pelab errors."""


class ContractViolation(PelabError, ValueError):
    """An operation was called outside its documented preconditions
    (dimension mismatch, empty batch, single-class targets, ...)."""


class DegenerateError(ContractViolation):
    """The data fail a metric's precondition (too few rows, a single-class
    nuisance, too few samples per orbit group, ...).  ``metrics.certify``
    records a degenerate entry with the reason; direct callers see a
    ContractViolation."""


class ConfigurationError(PelabError, ValueError):
    """A configuration is internally inconsistent or refers to something
    the selected world/encoder does not provide (e.g. a missing rho)."""


class NotApplicableError(PelabError):
    """The requested metric is undefined for this world/input combination
    (e.g. Fisher trace on a non-smooth transform family).  Callers that
    assemble reports catch this and record a not-applicable entry."""


class DivergenceError(PelabError, ArithmeticError):
    """Training produced a non-finite loss; carries the step diagnostics."""
