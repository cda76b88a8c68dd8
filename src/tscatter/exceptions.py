"""Exception types shared across the package."""


class NotSpdError(ValueError):
    """A matrix required to be symmetric positive definite is not."""


class DegeneracyError(ValueError):
    """A derived scatter matrix collapsed onto a lower-dimensional set."""


class NuOutOfRange(ValueError):
    """The tail index nu is outside the range supported by the requested functional."""


class DomainViolation(Exception):
    """The input law is outside the existence domain of the functional.

    Carries the :class:`~tscatter.domain_check.DomainReport` describing the
    violating subspace.
    """

    def __init__(self, report, message=None):
        self.report = report
        super().__init__(message or "law is outside the existence domain")


class NumericalBreakdown(RuntimeError):
    """The scatter solver produced an invalid iterate.

    Impossible in exact arithmetic on the existence domain, where it signals
    an ill-conditioned input. Off the domain the iterates collapse, and the
    solvers that check the domain raise :class:`DomainViolation` instead.
    """


class NoPositiveSolution(ValueError):
    """The scale profile equation has no positive root at the given center."""


class EnumerationBudgetError(ValueError):
    """Exact subspace enumeration would exceed its work budget.

    Raised instead of silently running for hours. The solvers raise it only
    for a sample whose membership the certificate from its fit cannot
    accept. The documented non-exact check is the library's
    ``check_scatter_domain(..., method="randomized")``; the CLI has none.
    """


class CsvParseError(ValueError):
    """A CSV input file could not be parsed into a sample."""
