"""Asymptotic expansion solver for ODEs with multiple high-frequency forcings.

The solution of y' = f(y) + sum_m a_m(t) e^(i kappa_m omega t) is expanded in
inverse powers of the large parameter omega.  Truncating after a few levels
gives an approximation whose cost is independent of omega and whose error
shrinks as omega grows, in contrast to direct time stepping.
"""

from .deriv_engine import (
    ForcingTerm,
    VectorField,
    constant_amplitude,
    fd_differential,
    linear_field,
    polynomial_amplitude,
    polynomial_field,
    validate_field,
)
from .errors import (
    MaxStepsExceeded,
    NonFiniteRHS,
    OscillodeError,
    OutOfDomain,
    SingularResolvent,
    SmallDenominatorError,
    StepUnderflow,
    UnsupportedOrder,
    ValidationFailed,
)
from .expansion import (
    Expansion,
    Problem,
    build_expansion,
    dump_expansion,
    solve_nonoscillatory_chain,
)
from .freq_algebra import (
    BaseFrequency,
    FrequencyBasis,
    FrequencyLabel,
    IndexSet,
    build_index_chain,
    canonicalize,
    format_index_table,
    rho,
)
from .harness import (
    compare_cost,
    check_reference_consistency,
    fit_slopes,
    reference_values,
    run_error_study,
    run_slope_study,
)
from .linear_closed_form import (
    LinearForcing,
    LinearProblem,
    exact_linear_solution,
    linear_coefficients,
    matrix_exponential,
)
from .ode_core import DenseSolution, IvpSpec, integrate, sample
from .problems import get_problem, load_problem_config, problem_names
from .svg import emit_svg

__version__ = "0.1.0"
