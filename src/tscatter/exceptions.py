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

    Raised instead of silently running for hours, or answering inexactly.
    Past the budget the solve paths (the library's, and the CLI's
    ``scatter``, ``estimate``, ``asymptotics`` and ``simulate``) still decide
    membership exactly when the certificate from the fit accepts the sample;
    they raise this only for a sample it cannot accept.
    """


class CsvParseError(ValueError):
    """A CSV input file could not be parsed into a sample."""
