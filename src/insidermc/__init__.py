"""Monte Carlo and quadrature toolkit comparing noise interpretations of insider portfolio SDEs."""

from .analytics import (
    QuadratureError,
    WealthTable,
    closed_form_table,
    expected_honest,
    expected_honest_max,
    expected_insider,
    jump_probability,
    norm_cdf,
    ordering_monotone_block,
    quadrature_expectations,
    quadrature_table,
)
from .functionals import (
    Affine,
    Indicator,
    IntegrandTerm,
    MonotoneSmooth,
    MonotonicityError,
    NonDifferentiableError,
    ProductIntegrand,
    Smooth,
    TerminalFunctional,
    arctangent,
    logistic,
    malliavin_trace_partial,
    wick_with_exponential,
)
from .harness import (
    ConjectureReport,
    ConvergenceTable,
    JumpReport,
    MCReport,
    NumericalError,
    conjecture_report,
    convergence_studies,
    discontinuity_probe,
    estimate_expectations,
)
from .integrators import (
    Interpretation,
    ak_integral,
    forward_integral,
    skorokhod_integral,
)
from .market import (
    FullInformation,
    Honest,
    MarketParams,
    PartialTrust,
    Strategy,
    initial_allocation,
    random_param_sets,
    random_params,
    stock_functional,
    threshold,
)
from .paths import BrownianPath, TimeGrid, generate_path

__version__ = "0.1.0"
