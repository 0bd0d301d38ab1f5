"""Bernoulli-relative polynomials and their homogenizations.

For integers p >= -1, q >= 0 (not both (-1, 0)) there is a unique odd
polynomial B(x) satisfying the telescoping functional equation

    B(x+1) - B(x) = [(x+1)^p - (-x)^p] / [(x+1) - (-x)] * (x+1)^q (-x)^q.

This module constructs B exactly (rational arithmetic throughout) together
with its homogenization  Bbar(x, z) = z^(p+2q) * B(x/z), a homogeneous
bivariate polynomial of degree p + 2q (or zero when p = 0).  Its exponents
must fit exactpoly's packed fields, so p + 2q is at most 255.

The exceptional pair (p, q) = (-1, 0) has the rational-function solution
-1/x; it is represented by a flag and never materialized as a polynomial —
callers multiply through by x and divide exactly afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactpoly import FIELD_MASK, Poly, UniPoly

@dataclass(frozen=True)
class BernoulliRelative:
    """The pair (B, Bbar) for parameters (p, q), or the flagged -1/x value."""

    p: int
    q: int
    univariate: UniPoly | None
    homogenized: Poly | None  # bivariate, variables (x, z)
    is_negative_one_zero: bool = False


def rhs_poly(p: int, q: int) -> UniPoly:
    """Right-hand side of the functional equation, as a polynomial.

    For p >= 1 the difference-quotient factor equals
    sum_{i=0}^{p-1} (x+1)^i (-x)^(p-1-i); for p = 0 it vanishes; for
    p = -1, q >= 1 the pole cancels and the whole product collapses to
    (-1)^q x^(q-1) (x+1)^(q-1).
    """
    if p < -1 or q < 0:
        raise ValueError("require p >= -1 and q >= 0")
    if (p, q) == (-1, 0):
        raise ValueError("the right-hand side is not a polynomial at (p, q) = (-1, 0)")
    xp1 = UniPoly((1, 1))
    mx = UniPoly((0, -1))
    if p == -1:
        return (xp1 ** (q - 1)) * (UniPoly((0, 1)) ** (q - 1)) * (Fraction(-1) ** q)
    if p == 0:
        return UniPoly.zero()
    # Horner's rule in (x+1): each step multiplies by x+1 and adds (-x)^i
    quot = UniPoly.zero()
    for i in range(p):
        quot = quot * xp1 + UniPoly([0] * i + [(-1) ** i])
    return quot * (xp1 ** q) * (mx ** q)


def discrete_antiderivative(r: UniPoly) -> UniPoly:
    """The unique P with P(x+1) - P(x) = r(x) and P(0) = 0.

    Expand r in the binomial basis C(x, n) via forward differences at
    0, 1, ..., deg r, shift each C(x, n) to C(x, n+1), and convert back.
    Exact, O(d^2) rational operations, no linear solve.
    """
    if r.is_zero():
        return UniPoly.zero()
    d = r.degree()
    values = [r(x) for x in range(d + 1)]
    newton: list[Fraction] = []
    while values:
        newton.append(values[0])
        values = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    # P = sum_n newton[n] * C(x, n+1)
    result = UniPoly.zero()
    binom = UniPoly((1,))  # C(x, 0)
    for n, c in enumerate(newton):
        # binom currently holds C(x, n); advance to C(x, n+1)
        binom = binom * UniPoly((-n, 1)) * Fraction(1, n + 1)
        if c:
            result = result + binom * c
    return result


def antisymmetrize(p: UniPoly) -> UniPoly:
    """Project onto the odd solution: return p - F(0)/2 where F(x) = p(x)+p(-x).

    F must be a constant polynomial (this is asserted; a non-constant F means
    the upstream right-hand side was wrong).  With the P(0) = 0 normalization
    of discrete_antiderivative, F vanishes identically and this is the
    identity map — kept as a pure assertion point.
    """
    f = p + p.compose_negate()
    if f.degree() > 0:
        raise ValueError("p(x) + p(-x) is not constant; invalid input")
    half = f(0) / 2
    result = p - UniPoly((half,))
    assert result + result.compose_negate() == UniPoly.zero()
    return result


@lru_cache(maxsize=None)
def make_bernoulli(p: int, q: int) -> BernoulliRelative:
    """Construct the Bernoulli relative for (p, q), memoized.

    The cache is idempotent (same key always yields the same value), so
    concurrent initializations are benign.
    """
    if p < -1 or q < 0:
        raise ValueError("require p >= -1 and q >= 0")
    d = p + 2 * q
    if d > FIELD_MASK:
        raise ValueError(f"degree p + 2q = {d} of the homogenization exceeds {FIELD_MASK}")
    if (p, q) == (-1, 0):
        return BernoulliRelative(p, q, None, None, is_negative_one_zero=True)
    b = antisymmetrize(discrete_antiderivative(rhs_poly(p, q)))
    if b.degree() > d:
        raise AssertionError(f"degree {b.degree()} of B_({p},{q}) exceeds {d}")
    homog = Poly.from_terms(
        2, {(n, d - n): c for n, c in enumerate(b.coeffs) if c}
    )
    return BernoulliRelative(p, q, b, homog, is_negative_one_zero=False)
