"""Robust multivariate location and scatter from heavy-tailed elliptical likelihoods.

The scatter functional generalizes the covariance matrix to arbitrarily
heavy-tailed laws; for tail parameter nu > 1 a location vector comes along by
solving the pure scatter problem one dimension up. The package bundles the
existence-domain checks, the safeguarded Newton solver (one loop over stacks
of samples), curvature and asymptotic covariance computations, the
one-dimensional extended functional, a Monte Carlo validation harness, and a
CSV-driven CLI.
"""

from .asymptotics import (
    AsymptoticCov,
    asymptotic_cov_locscatter,
    asymptotic_cov_scatter,
    extract_jacobian,
    hessian,
)
from .domain_check import (
    DomainReport,
    EmpiricalSample,
    check_locscat_domain,
    check_scatter_domain,
    lift,
    max_atom,
)
from .exceptions import (
    CsvParseError,
    DegeneracyError,
    DomainViolation,
    EnumerationBudgetError,
    NoPositiveSolution,
    NotSpdError,
    NuOutOfRange,
    NumericalBreakdown,
)
from .locscatter import LocScatEstimate, solve_locscatter
from .oned import (
    OneDEstimate,
    sigma_of_mu,
    solve_oned,
)
from .scatter import (
    ScatterConfig,
    ScatterResult,
    solve_scatter,
    solve_scatter_stack,
    weight_u,
)
from .simlab import (
    McReport,
    Sampler,
    contaminated_sampler,
    discrete_sampler,
    gaussian_sampler,
    run_clt_experiment,
    t_sampler,
)
from .symspace import (
    SpdMatrix,
    congruence_matrix,
    extract,
    sym_basis,
    sym_dim,
    sym_to_vec,
    vec_to_sym,
)

__version__ = "0.1.0"
