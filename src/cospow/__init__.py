"""Exact trigonometry at dyadic angles (2i-1)pi/2^n.

The package imports nothing: every name lives in one module and is
imported from there (``from cospow.exact import EvalContext``).

- exact: the integer kernel (binomials, bases, scaled matrices,
  IntPolynomial) and the numeric oracle, EvalContext
- minpoly: minimal polynomials of the cosines, nested and closed
- chebyshev: odd Chebyshev-like transforms p_i and their composition
- odd_power, even_power, negative_power: the cos^r change-of-basis
  matrices (odd, even and reciprocal r), the permutation group that ties
  their rows together, and the closed-form cosecant power sums
- series: angle-multiple expansions and the certified sec/csc series
- zeta: zeta-value approximations built from all of it
- cli: the cospow command
"""

__version__ = "0.1.0"
