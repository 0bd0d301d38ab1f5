"""Bernoulli-relative polynomials and their homogenizations.

For integers p >= -1, q >= 0 (not both (-1, 0)) there is a unique odd
polynomial B(x) satisfying the telescoping functional equation

    B(x+1) - B(x) = [(x+1)^p - (-x)^p] / [(x+1) - (-x)] * (x+1)^q (-x)^q.

This module constructs B exactly (rational arithmetic throughout) as a
one-variable ``Poly`` in x, together with its homogenization
Bbar(x, z) = z^(p+2q) * B(x/z), a homogeneous two-variable ``Poly`` of
degree p + 2q (or zero when p = 0).  Both are the package's one polynomial
class, so their exponents must fit exactpoly's packed fields: p + 2q is at
most 255.

The exceptional pair (p, q) = (-1, 0) has the rational-function solution
-1/x; it is represented by a flag and never materialized as a polynomial —
callers multiply through by x and divide exactly afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactpoly import FIELD_MASK, Poly

_X = Poly.variable(1, 0)  # x, the one variable of B


@dataclass(frozen=True)
class BernoulliRelative:
    """The pair (B, Bbar) for parameters (p, q), or the flagged -1/x value."""

    p: int
    q: int
    univariate: Poly | None  # one variable, x: render with names ["x"]
    homogenized: Poly | None  # two variables, (x, z)
    is_negative_one_zero: bool = False


def rhs_poly(p: int, q: int) -> Poly:
    """Right-hand side of the functional equation, as a polynomial in x.

    For p >= 1 the difference-quotient factor equals
    sum_{i=0}^{p-1} (x+1)^i (-x)^(p-1-i); for p = 0 it vanishes; for
    p = -1, q >= 1 the pole cancels and the whole product collapses to
    (-1)^q x^(q-1) (x+1)^(q-1).
    """
    if p < -1 or q < 0:
        raise ValueError("require p >= -1 and q >= 0")
    if (p, q) == (-1, 0):
        raise ValueError("the right-hand side is not a polynomial at (p, q) = (-1, 0)")
    xp1 = _X + 1
    if p == -1:
        return (xp1 ** (q - 1)) * (_X ** (q - 1)) * (-1) ** q
    if p == 0:
        return Poly.zero(1)
    # Horner's rule in (x+1): each step multiplies by x+1 and adds (-x)^i
    quot = Poly.zero(1)
    for i in range(p):
        quot = quot * xp1 + (-_X) ** i
    return quot * (xp1 ** q) * ((-_X) ** q)


def discrete_antiderivative(r: Poly) -> Poly:
    """The unique P with P(x+1) - P(x) = r(x) and P(0) = 0.

    Expand r in the binomial basis C(x, n) via forward differences at
    0, 1, ..., deg r, shift each C(x, n) to C(x, n+1), and convert back.
    Exact, O(d^2) rational operations, no linear solve.
    """
    if r.is_zero():
        return Poly.zero(1)
    values = [r.evaluate([x]) for x in range(r.total_degree() + 1)]
    newton: list[Fraction] = []
    while values:
        newton.append(values[0])
        values = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    # P = sum_n newton[n] * C(x, n+1)
    result = Poly.zero(1)
    binom = Poly.one(1)  # C(x, 0)
    for n, c in enumerate(newton):
        # binom currently holds C(x, n); advance to C(x, n+1)
        binom = binom * (_X - n) * Fraction(1, n + 1)
        if c:
            result = result + binom * c
    return result


def antisymmetrize(p: Poly) -> Poly:
    """Project onto the odd solution: return p - F(0)/2 where F(x) = p(x)+p(-x).

    F must be a constant polynomial (this is asserted; a non-constant F means
    the upstream right-hand side was wrong).  With the P(0) = 0 normalization
    of discrete_antiderivative, F vanishes identically and this is the
    identity map — kept as a pure assertion point.
    """
    f = p + p.substitute(0, -_X)
    if f.total_degree() > 0:
        raise ValueError("p(x) + p(-x) is not constant; invalid input")
    result = p - f.evaluate([0]) / 2
    assert (result + result.substitute(0, -_X)).is_zero()
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
    if b.total_degree() > d:
        raise AssertionError(f"degree {b.total_degree()} of B_({p},{q}) exceeds {d}")
    homog = Poly.from_terms(2, {(n, d - n): c for (n,), c in b.terms()})
    return BernoulliRelative(p, q, b, homog, is_negative_one_zero=False)
