"""Construction of the derivation-module basis: theta_E, phi_1, ..., phi_l.

Each phi_j is a polynomial vector field sum_i phi_j(x_i) d/dx_i with
phi_j(z) = 0, whose coefficients are assembled from elementary symmetric
functions and homogenized Bernoulli-relative polynomials.  One formula
gives all of them, 1 <= j <= l:

  phi_j = P_j * sum_i sum_{K1,K2} (prod K1)(prod K2)^2 * (-z)^|K1|
          * sum_{n1,n2} (-1)^(n1+n2) sigma_{n1} tau_{2 n2}
          * Bbar_{k,k0}(x_i, z) d/dx_i

where (K1, K2) ranges over ordered pairs of disjoint subsets of
J = {x_1, ..., x_{j-1}}, sigma is taken over J1, tau over the squares of
J2, k0 = |J \\ (K1 u K2)| and k = (|J1| - n1) + 2(|J2| - n2) - 1.  For
j < l the prefactor is P_j = x_j - x_{j+1} - z, J1 = {x_j, x_{j+1}} and
J2 = {x_{j+2}, ..., x_l}.  phi_l is the case j = l: P_l = -x_l, J1 and J2
are empty, so the sigma/tau sum is the single term 1 and k = -1.

The summand with (k, k0) = (-1, 0) stands for the rational function -1/x_i.
It never becomes a Laurent object here: each coefficient accumulates the
whole sum multiplied through by x_i, over the integers under the common
denominator of its Bbar's, multiplies by P_j and is divided by x_i at the
end, one exponent off each key.  The prefactor comes before the division
because for phi_l at i = l the sum alone keeps its pole at x_l = 0; only
P_l = -x_l cancels it.  A failed division would mean the formula was
transcribed wrongly, so it aborts loudly.

Together with the Euler field theta_E = z d/dz + sum_i x_i d/dx_i these
l + 1 derivations are the basis that the verify module checks against
Saito's criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import lcm
from typing import Iterator, Sequence

from .bernoulli import make_bernoulli
from .exactpoly import (
    FIELD_MASK,
    Poly,
    _pack,
    _reduced,
    default_names,
    divide_by_variable,
    elementary_symmetric,
    fma_terms,
    remap_variables,
)


@dataclass(frozen=True)
class Derivation:
    """A polynomial vector field on Q[x1..xl, z].

    coeff_x[i] is the coefficient of d/dx_{i+1}; coeff_z of d/dz.
    """

    ell: int
    name: str
    coeff_x: tuple[Poly, ...]
    coeff_z: Poly

    @property
    def nvars(self) -> int:
        return self.ell + 1

    def coefficients(self) -> list[Poly]:
        """Coefficients in row order x1, ..., xl, z."""
        return list(self.coeff_x) + [self.coeff_z]


@dataclass(frozen=True)
class TermIndex:
    """Index data of one summand of a phi coefficient.

    Variable sets are stored as tuples of 0-based variable indices.
    Invariants: k0 >= 0 and k >= -1.
    """

    j: int  # 1-based, which phi
    J: tuple[int, ...]
    J1: tuple[int, ...]
    J2: tuple[int, ...]
    K1: tuple[int, ...]
    K2: tuple[int, ...]
    n1: int
    n2: int
    k0: int
    k: int


def enumerate_k1_k2(
    J: Sequence[int],
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All ordered pairs of disjoint subsets (K1, K2) of J, each exactly once.

    Deterministic order: a ternary counter over the elements of J in variable
    order (digit 0: in neither, 1: in K1, 2: in K2).
    """
    J = tuple(J)
    for digits in iproduct((0, 1, 2), repeat=len(J)):
        k1 = tuple(v for v, d in zip(J, digits) if d == 1)
        k2 = tuple(v for v, d in zip(J, digits) if d == 2)
        yield k1, k2


def term_indices(j: int, ell: int) -> Iterator[TermIndex]:
    """All summand indices of phi_j at rank ell, in construction order."""
    if not 1 <= j <= ell:
        raise ValueError(f"j must be in 1..{ell}")
    J = tuple(range(j - 1))
    J1 = (j - 1, j) if j < ell else ()
    J2 = tuple(range(j + 1, ell))
    for K1, K2 in enumerate_k1_k2(J):
        k0 = len(J) - len(K1) - len(K2)
        for n1 in range(len(J1) + 1):
            for n2 in range(len(J2) + 1):
                k = (len(J1) - n1) + 2 * (len(J2) - n2) - 1
                yield TermIndex(j, J, J1, J2, K1, K2, n1, n2, k0, k)


@lru_cache(maxsize=None)
def _x_bernoulli(k: int, k0: int, var: int, zvar: int, nvars: int) -> Poly:
    """x_var * Bbar_{k,k0}(x_var, x_zvar) inside the nvars-variable ring.  In
    the (-1, 0) case Bbar stands for -1/x_var, so the product is the
    constant -1."""
    br = make_bernoulli(k, k0)
    if br.is_negative_one_zero:
        return -Poly.one(nvars)
    emb = remap_variables(br.homogenized, nvars, (var, zvar))
    return Poly.variable(nvars, var) * emb


@lru_cache(maxsize=None)
def _sigma_tau_table(
    J1: tuple[int, ...], J2: tuple[int, ...], nvars: int
) -> dict[tuple[int, int], dict[int, int]]:
    """(-1)^(n1+n2) * sigma_{n1}^{J1} * tau_{2 n2}^{J2} for all (n1, n2), as
    integer terms; {(0, 0): 1} when J1 and J2 are empty (the j = l case)."""
    sigma = [
        elementary_symmetric(nvars, [Poly.variable(nvars, v) for v in J1], n1)
        for n1 in range(len(J1) + 1)
    ]
    tau = [
        elementary_symmetric(
            nvars, [Poly.variable(nvars, v) ** 2 for v in J2], n2
        )
        for n2 in range(len(J2) + 1)
    ]
    table = {}
    for n1, s in enumerate(sigma):
        for n2, t in enumerate(tau):
            table[(n1, n2)] = (s * t * (-1) ** (n1 + n2))._terms  # denominator 1
    return table


def _subset_weight(K1: Sequence[int], K2: Sequence[int], nvars: int) -> dict[int, int]:
    """(prod K1) * (prod K2)^2 * (-z)^|K1|, a single monomial."""
    exps = [0] * nvars
    for v in K1:
        exps[v] = 1
    for v in K2:
        exps[v] = 2
    exps[-1] = len(K1)
    return {_pack(exps): (-1) ** len(K1)}


def check_rank_fits(ell: int) -> None:
    """Raise ValueError when phi_1..phi_ell need exponents past FIELD_MASK.

    Each product that builds a phi coefficient is homogeneous of degree at
    most 2l (x_i * inner sum * prefactor), and no exponent exceeds its
    term's total degree.
    """
    if 2 * ell > FIELD_MASK:
        raise ValueError(f"rank {ell} needs exponents above {FIELD_MASK}")


def build_phi(j: int, ell: int) -> Derivation:
    """phi_j for 1 <= j <= ell, from the one formula of the module doc.

    Every coefficient is summed over the integers: the products go into one
    integer term dict under the common denominator of the Bbar's, and one
    Poly is built at the end.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if not 1 <= j <= ell:
        raise ValueError(f"j must be in 1..{ell}")
    check_rank_fits(ell)
    nvars = ell + 1
    z = Poly.variable(nvars, nvars - 1)
    if j < ell:
        prefactor = Poly.variable(nvars, j - 1) - Poly.variable(nvars, j) - z
    else:
        prefactor = -Poly.variable(nvars, ell - 1)
    # the inner sum depends on the summand only through weight * sigma_tau
    # and (k, k0), so the summands sharing a Bbar_{k,k0} are added up once
    groups: dict[tuple[int, int], dict[int, int]] = {}
    for t in term_indices(j, ell):
        st = _sigma_tau_table(t.J1, t.J2, nvars)[(t.n1, t.n2)]
        fma_terms(groups.setdefault((t.k, t.k0), {}), _subset_weight(t.K1, t.K2, nvars), st)
    coeff_x = []
    for i in range(ell):
        # accumulate den * x_i * (inner sum), each x_i * Bbar scaled to den
        xbbars = {kk: _x_bernoulli(*kk, i, nvars - 1, nvars) for kk in groups}
        den = lcm(*(p._den for p in xbbars.values()))
        acc: dict[int, int] = {}
        for kk, group in groups.items():
            p = xbbars[kk]
            fma_terms(acc, group, p._terms, den // p._den)
        # the prefactor goes on before the division: for phi_l at i = l the
        # inner sum alone is not divisible by x_l
        out: dict[int, int] = {}
        fma_terms(out, acc, prefactor._terms)  # an integer polynomial: denominator 1
        coeff_x.append(_reduced(nvars, divide_by_variable(out, i, nvars), den))
    return Derivation(
        ell=ell, name=f"phi_{j}", coeff_x=tuple(coeff_x), coeff_z=Poly.zero(nvars)
    )


def build_euler(ell: int) -> Derivation:
    """theta_E = z d/dz + sum_i x_i d/dx_i."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    nvars = ell + 1
    return Derivation(
        ell=ell,
        name="euler",
        coeff_x=tuple(Poly.variable(nvars, i) for i in range(ell)),
        coeff_z=Poly.variable(nvars, nvars - 1),
    )


def basis(ell: int) -> list[Derivation]:
    """[theta_E, phi_1, ..., phi_ell], the candidate basis at rank ell >= 2."""
    return [build_euler(ell)] + [build_phi(j, ell) for j in range(1, ell + 1)]


# perfbench/tracer.py patches this name to time it
def apply(theta: Derivation, f: Poly) -> Poly:
    """theta acting on f: sum_i coeff_x[i] * df/dx_i + coeff_z * df/dz."""
    if f.nvars != theta.nvars:
        raise ValueError("polynomial lives in a different ring than the derivation")
    out = Poly.zero(f.nvars)
    for i, c in enumerate(theta.coeff_x):
        if c:
            d = f.partial_derivative(i)
            if d:
                out = out + c * d
    if theta.coeff_z:
        d = f.partial_derivative(f.nvars - 1)
        if d:
            out = out + theta.coeff_z * d
    return out


# -- wire format -------------------------------------------------------------


def derivation_from_dict(data: dict) -> Derivation:
    """The derivation of one entry of ``basis --format json``: {"ell",
    "name", "coeffs": {variable name: term list as ``cli`` writes it}}.  The
    package's one reader of that output."""
    ell = int(data["ell"])
    nvars = ell + 1
    polys = []
    for name in default_names(nvars):
        terms = {
            tuple(mono): Fraction(int(num), int(den))
            for mono, num, den in data["coeffs"][name]
        }
        polys.append(Poly.from_terms(nvars, terms))
    return Derivation(
        ell=ell, name=str(data["name"]), coeff_x=tuple(polys[:ell]), coeff_z=polys[ell]
    )
