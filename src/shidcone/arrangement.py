"""Central arrangements in x1, ..., xl, z, and the cone over the Shi
arrangement of type D.

A hyperplane is stored as its primitive integer normal, and an arrangement
is plain data: its rank and its forms, which every check reads as given.
The type-D Shi cone consists of the hyperplane z = 0 together with, for
every 1 <= s < t <= l and eps in {+1, -1}, the hyperplanes
x_s + eps*x_t = 0  and  x_s + eps*x_t - z = 0.  That is 2*l*(l-1) + 1
hyperplanes; the defining polynomial Q is their product.  The Coxeter
number of type D_l is h = 2l - 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .exactpoly import (
    FIELD_MASK,
    ExponentOverflowError,
    Poly,
    clear_denominators,
    fma_terms,
)


@dataclass(frozen=True)
class LinearForm:
    """A hyperplane by its primitive integer normal: ints with gcd 1 and a
    positive lex-first nonzero entry, in the order x1, ..., xl, z.  Two
    forms define one hyperplane iff their coefficients are equal."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        lead = next((c for c in self.coeffs if c), None)
        if lead is None:
            raise ValueError("linear form must be nonzero")
        if lead < 0 or gcd(*self.coeffs) != 1:
            raise ValueError("linear form must be primitive with a positive leading coefficient")

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def poly(self) -> Poly:
        return Poly.linear_form(self.nvars, self.coeffs)

    @lru_cache(maxsize=None)
    def text(self) -> str:
        # rendered once per hyperplane: membership keys its report by it
        return self.poly().render()


@lru_cache(maxsize=None)
def restriction_table(
    form: LinearForm, degree: int
) -> tuple[int, tuple[dict[int, int], ...]]:
    """The restriction of polynomials of total degree at most ``degree`` to
    the hyperplane of ``form``, over the integers.

    The form is L x_s + B with x_s its lex-first variable, L its
    coefficient and B free of x_s, so the restriction sends x_s to -B/L.
    Returns s and, for e = 0..degree, the integer terms (on exactpoly's
    packed keys) of L^(degree - e) (-B)^e, which is x_s^e restricted and
    scaled by L^degree: summing each x_s^e part of f times its entry gives
    L^degree * f(x_s := -B/L).  The entries are shared by every caller and
    must not be changed.  A degree above FIELD_MASK raises
    ExponentOverflowError, since (-B)^degree would carry out of its fields.
    """
    if degree > FIELD_MASK:
        raise ExponentOverflowError(f"total degree {degree} > {FIELD_MASK}")
    coeffs = form.coeffs
    s = next(i for i, a in enumerate(coeffs) if a)
    lead = coeffs[s]
    b = Poly.linear_form(form.nvars, [0 if i == s else -a for i, a in enumerate(coeffs)])
    (neg_b,), _ = clear_denominators([b])
    powers = [{0: 1}]
    for _ in range(degree):
        nxt: dict[int, int] = {}
        fma_terms(nxt, powers[-1], neg_b)
        powers.append(nxt)
    table = tuple(
        {k: c * lead ** (degree - e) for k, c in p.items()} for e, p in enumerate(powers)
    )
    return s, table


@dataclass(frozen=True)
class Arrangement:
    """A central arrangement in x1, ..., x_ell, z, given by its forms."""

    ell: int
    forms: tuple[LinearForm, ...]

    @property
    def nvars(self) -> int:
        return self.ell + 1


def shi_d_cone(ell: int) -> Arrangement:
    """Build the cone over the type-D Shi arrangement for rank ``ell`` >= 2.

    Enumeration order (fixed for reproducible reports): z first, then (s, t)
    lexicographic, eps = +1 before -1, and for each (s, t, eps) the
    homogeneous form before its -z shift.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    n = ell + 1
    forms = [LinearForm((0,) * ell + (1,))]
    for s in range(ell - 1):
        for t in range(s + 1, ell):
            for eps in (1, -1):
                for shift in (0, -1):
                    coeffs = [0] * n
                    coeffs[s], coeffs[t], coeffs[-1] = 1, eps, shift
                    forms.append(LinearForm(tuple(coeffs)))
    assert len(forms) == 2 * ell * (ell - 1) + 1
    return Arrangement(ell=ell, forms=tuple(forms))
