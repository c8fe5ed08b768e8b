"""Exact trigonometry at dyadic angles (2i-1)pi/2^n.

Minimal polynomials of the cosines, odd Chebyshev-like transforms, exact
integer change-of-basis matrices for cosine powers (positive odd, positive
even, and reciprocal), the permutation group tying the rows together,
closed-form cosecant power sums, trigonometric series expansions, and
zeta-value approximation schemes built from all of it. Every exact object
is checkable against an arbitrary-precision numeric oracle (EvalContext).
"""

from .chebyshev import (
    inverse_index,
    p_poly,
    signed_p_poly,
)
from .even_power import (
    even_first_row,
    even_matrix,
    integer_power_average,
    merca_sum,
)
from .exact import (
    Basis,
    BasisVector,
    EvalContext,
    IntPolynomial,
    ScaledMatrix,
    ZeroBasisElementError,
    binom_int,
    binom_real,
    even_cos_basis,
    odd_cos_basis,
    odd_sin_basis,
)
from .minpoly import closed_minpoly, nested_minpoly
from .negative_power import (
    CscPowerSum,
    S_closed_form,
    first_row_sum_identity,
    matrix_neg1,
    matrix_neg3,
    matrix_neg5,
)
from .odd_power import (
    cayley_table,
    find_generator,
    first_row,
    matrix_gather,
    matrix_scatter,
    power_sum,
    sine_basis_variant,
    verify_group_axioms,
    verify_numeric,
)
from .series import (
    csc_power_cos2_series_result,
    csc_power_series_result,
    generalized_multiple_angle,
    jordan_bounds,
    multiple_angle,
    sec_power_series_result,
    sine_progression_sum,
)
from .zeta import (
    AvgPowers,
    ZetaApproxResult,
    bernoulli_limit_check,
    bernoulli_numbers,
    finite_level_identity,
    reference_even_zeta,
    zeta3_weighted,
    zeta5_weighted,
    zeta_binomial_series,
    zeta_sine_sum,
)

__version__ = "0.1.0"

__all__ = [
    "AvgPowers",
    "Basis",
    "BasisVector",
    "CscPowerSum",
    "EvalContext",
    "IntPolynomial",
    "S_closed_form",
    "ScaledMatrix",
    "ZeroBasisElementError",
    "ZetaApproxResult",
    "bernoulli_limit_check",
    "bernoulli_numbers",
    "binom_int",
    "binom_real",
    "cayley_table",
    "closed_minpoly",
    "csc_power_cos2_series_result",
    "csc_power_series_result",
    "even_cos_basis",
    "even_first_row",
    "even_matrix",
    "find_generator",
    "finite_level_identity",
    "first_row",
    "first_row_sum_identity",
    "generalized_multiple_angle",
    "integer_power_average",
    "inverse_index",
    "jordan_bounds",
    "matrix_gather",
    "matrix_neg1",
    "matrix_neg3",
    "matrix_neg5",
    "matrix_scatter",
    "merca_sum",
    "multiple_angle",
    "nested_minpoly",
    "odd_cos_basis",
    "odd_sin_basis",
    "p_poly",
    "power_sum",
    "reference_even_zeta",
    "sec_power_series_result",
    "signed_p_poly",
    "sine_basis_variant",
    "sine_progression_sum",
    "verify_group_axioms",
    "verify_numeric",
    "zeta3_weighted",
    "zeta5_weighted",
    "zeta_binomial_series",
    "zeta_sine_sum",
]
