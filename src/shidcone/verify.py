"""Mechanical verification of the basis via Saito's criterion.

Checks performed by :func:`saito_verify`:

  * membership: every basis derivation theta and hyperplane form alpha
    satisfy  alpha | theta(alpha).  Each form is alpha = x_s + beta with
    x_s its lex-first variable and beta free of x_s, so alpha divides
    theta(alpha) iff theta(alpha)(x_s := -beta) = 0: the restriction to the
    hyperplane.  It runs over the integers, with theta's coefficients
    cleared under one common denominator and each substituted straight into
    one kernel polynomial per form by the restriction table of
    ``arrangement`` (shared with the oracle), one ``fma`` per coefficient
    that pairs the terms by their power of x_s, so no image is built and
    nothing is divided.  The sums run on the kernel of ``get_impl()`` up to
    rank 6 (the compiled kernel's keys hold 7 variables), on ``DictPoly``
    above;
  * degrees: each nonzero phi_j(x_i) is homogeneous of degree 2(l-1),
    phi_j(z) = 0, and theta_E is the Euler field;
  * initial monomials: in(phi_i(x_i)) = x1^2 ... x_{i-1}^2 x_i^(2l-2i) with
    leading coefficient 1/(2l-2i-1) (1 for i = l), strictly smaller initial
    monomials for i < j, and never larger;
  * the determinant identity
        det[phi_j(x_i)] = 1/(2l-3)!! * prod (x_s + eps x_t - z)(x_s + eps x_t)
    and that the full (l+1) x (l+1) determinant (theta_E column and z row
    included) is a nonzero constant multiple of Q.

Two exact strategies for the determinant identity:

``expand``
    Factor the common column factor (x_j - x_{j+1} - z) out of column j by
    verified exact division, clear denominators per column, expand the
    reduced determinant by minor-subset dynamic programming over the integer
    kernel, and compare it with the correspondingly reduced right-hand
    product: one side, scaled, is subtracted from the other by the kernel's
    ``fma``, and the result must cancel to zero.  One DP expands the
    full determinant: it adds the reduced columns one at a time, each with
    its z-row entry 0 in front, phi_l first and phi_1, the sparsest, last,
    since its last step multiplies the largest minors, and then the Euler
    column.  The reduced determinant is the minor it holds before that last
    column, so the full one costs a single product more.  Default
    for l <= 5 (the reduced determinant already has 234k terms at l = 5 and
    ~10^7 at l = 6, which measured far beyond the time budget there).

``certify``
    An exact certificate that avoids expanding the determinant.  From the
    verified memberships theta(alpha) = alpha * h, Cramer's rule gives
    det * alpha_i = alpha * (adjugate combination), so every form divides
    the determinant; the forms are pairwise non-proportional irreducibles,
    so their product Q/z divides det[phi_j(x_i)] (unique factorization);
    both are homogeneous of the same degree 2l(l-1) (degrees checked), so
    the quotient is a constant; it is pinned down exactly by one rational
    evaluation at a point where Q does not vanish.  Each phi entry is
    evaluated once, in integer arithmetic, and ``bareiss_det`` takes the
    determinant of the values as constant polynomials.  The full
    determinant needs no evaluation: the degrees premise includes the z row
    (z, 0, ..., 0), and Laplace expansion along it gives (-1)^l * z *
    det[phi_j(x_i)].  Every premise is checked mechanically; the glue steps
    (Cramer, UFD, homogeneity of determinants) are classical.  Default for
    l >= 6.  ``saito_verify(l, method="certify")`` with the compiled kernel
    took about 0.15 s at rank 6 (membership 0.07 s), 1.3 s at rank 7,
    6.9 s at rank 8 and 29 s at rank 9 (wall time, median of three to six
    fresh processes on a shared 2-vCPU VM).

Both strategies hand back det[phi_j(x_i)] in one form, head * prod(factors)
/ den: the reduced determinant and the column forms under ``expand``, the
constant and the forms of Q/z, multiplied out in groups that involve the
same x-variables, under ``certify``.  The initial monomial and
leading coefficient of det are read from it: the sum of the factors'
initial monomials and the product of their leading coefficients.  The
strategies agree on every field of a passing run, and always on saito_ok.
On failing input they may stop at different points: ``expand`` reports
in(det) of any determinant its columns reduce to, ``certify`` nothing past
a wrong constant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Sequence

from .arrangement import Arrangement, LinearForm, restriction_table, shi_d_cone
from .detkernel import (
    KEY_LIMIT,
    DictPoly,
    IntPolyLike,
    KernelQuotient,
    clear_columns,
    det_minor_expansion,
    get_impl,
    int_product,
    poly_to_int_dict,
)
from .exactpoly import (
    FIELD_BITS,
    DivisionNotExactError,
    ExponentOverflowError,
    Poly,
    _unpack,
    clear_denominators,
    divides,
    exact_div,
    variable_field,
)
from .shi_basis import Derivation, _x_bernoulli, basis, check_rank_fits

_F1 = Fraction(1)

# Each determinant route returns (det_matches_corollary, full_det_consistent,
# det_constant, det_data); this is the record of a route that could not
# establish the identity.
_NO_DET = (False, False, None, None)


def double_factorial(n: int) -> int:
    """n!! for odd n >= -1, with (-1)!! = 1!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@dataclass
class VerificationReport:
    """Outcome of saito_verify; saito_ok is True only if every membership
    divisibility holds and the full determinant is a nonzero constant
    multiple of the defining polynomial.

    On a failing run ``full_det_consistent`` tells where a route stopped,
    not a fact about the full determinant: at rank 3 with phi_1 and phi_2
    swapped (full determinant -z * det) ``expand`` reports False and
    ``certify`` True (``test_failing_det_fields_are_pinned``)."""

    ell: int
    method: str
    membership: dict[str, dict[str, bool]]
    membership_ok: bool
    degrees_ok: bool
    initials_ok: bool
    det_constant: Fraction | None
    det_initial: tuple | None
    det_leading_coefficient: Fraction | None
    det_matches_corollary: bool
    full_det_consistent: bool
    saito_ok: bool
    timing: dict[str, float] = field(default_factory=dict)
    # (head, den, factors, nvars): det_phi = head * prod(factors) / den,
    # head a kernel polynomial and factors Polys
    _det_data: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def det_phi_kernel(self) -> KernelQuotient:
        """``det_phi`` as the kernel leaves it, a kernel polynomial over a
        denominator, which the CLI writes without building the ``Poly``.

        Built on each access, as one product chain: under ``expand`` the
        reduced determinant times the factored-out column forms, under
        ``certify`` the certified constant times the forms of Q/z,
        multiplied out in groups that involve the same x-variables.
        """
        if self._det_data is None:
            raise ValueError("determinant data unavailable (verification failed early)")
        head, den, factors, nvars = self._det_data
        chain = [head]
        for f in factors:
            terms, fden = poly_to_int_dict(f)
            chain.append(terms)
            den *= fden
        return KernelQuotient(int_product(chain, type(head)), den, nvars)

    @property
    def det_phi(self) -> Poly:
        """The l x l determinant det[phi_j(x_i)] as a polynomial.

        Materialized lazily: at large rank this polynomial is enormous
        (11.8 million terms at l = 6), so it is reconstructed from
        ``det_phi_kernel`` only on access, whose terms are freed before the
        ``Poly``'s dict is built.
        """
        det = self.det_phi_kernel
        # a chain of head alone is head itself, which later accesses reuse
        return det.to_poly() if det.terms is self._det_data[0] else det.take_poly()

    def summary_dict(self, include_timing: bool = False) -> dict:
        """JSON-ready summary with stable field order."""
        out = {
            "ell": self.ell,
            "method": self.method,
            "membership_ok": self.membership_ok,
            "degrees_ok": self.degrees_ok,
            "initials_ok": self.initials_ok,
            "det_constant": (
                None
                if self.det_constant is None
                else {
                    "num": str(self.det_constant.numerator),
                    "den": str(self.det_constant.denominator),
                }
            ),
            "det_initial": list(self.det_initial) if self.det_initial else None,
            "det_matches_corollary": self.det_matches_corollary,
            "full_det_consistent": self.full_det_consistent,
            "saito_ok": self.saito_ok,
            "membership": self.membership,
        }
        if include_timing:
            out["timing"] = self.timing
        return out


# -- matrix plumbing ---------------------------------------------------------


def coefficient_matrix(derivs: Sequence[Derivation]) -> list[list[Poly]]:
    """Rows x1..xl, z; one column per derivation (given order)."""
    if not derivs:
        raise ValueError("need at least one derivation")
    nvars = derivs[0].nvars
    for d in derivs:
        if d.nvars != nvars:
            raise ValueError("derivations live in different rings")
    return [[d.coefficients()[r] for d in derivs] for r in range(nvars)]


def bareiss_det(matrix: Sequence[Sequence[Poly]]) -> Poly:
    """Fraction-free Bareiss determinant over the polynomial ring.

    Every interior division is exact (guaranteed by the Bareiss identity;
    a failure indicates a bug, not bad input).  Zero pivots with a nonzero
    completion are handled by row swaps with sign tracking.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    nvars = matrix[0][0].nvars
    m = [list(row) for row in matrix]
    for row in m:
        for e in row:
            if e.nvars != nvars:
                raise ValueError("entries live in different rings")
    sign = 1
    prev: Poly | None = None
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Poly.zero(nvars)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = exact_div(num, prev) if prev is not None else num
            m[i][k] = Poly.zero(nvars)
        prev = m[k][k]
    return m[n - 1][n - 1] * sign


def minor_expansion_det(matrix: Sequence[Sequence[Poly]], fast: bool | None = None) -> Poly:
    """Determinant via subset-minor dynamic programming on the integer kernel.

    Denominators are cleared per column and divided back out at the end.
    Agrees with bareiss_det everywhere (cross-checked in the test suite).
    """
    return minor_expansion_kernel(matrix, fast).take_poly()


def minor_expansion_kernel(
    matrix: Sequence[Sequence[Poly]], fast: bool | None = None
) -> KernelQuotient:
    """``minor_expansion_det`` as the kernel leaves it: the integer
    determinant of the cleared columns over the product of their
    denominators."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    impl = get_impl(fast)
    rows, den = clear_columns(list(zip(*matrix)), impl)
    det, _ = det_minor_expansion(rows, impl)
    return KernelQuotient(det, den, matrix[0][0].nvars)


# -- membership --------------------------------------------------------------


def check_membership(theta: Derivation, arr: Arrangement) -> dict[str, bool]:
    """For each hyperplane form alpha: does alpha divide theta(alpha)?

    With alpha = x_s + beta (x_s its lex-first variable), alpha divides
    theta(alpha) = sum_i a_i theta(x_i) iff the restriction to its
    hyperplane, theta(alpha)(x_s := -beta), is zero.  The coefficients
    theta(x_i) are cleared to integers under one denominator, and each one's
    part with x_s^e goes into one integer sum per form times A_i L^(E - e)
    (-B)^e, the entry of ``arrangement.restriction_table``: A are the
    form's integer coefficients, L x_s + B the form itself and E the largest
    total degree, so the sum is the restriction times a nonzero scale.  The
    entries of a form sit in one kernel polynomial, each with its e in x_s's
    exponent field, so one ``fma`` paired by that field adds the whole of
    A_i theta(x_i).  No image is built and nothing is divided.

    The sums run on the kernel polynomial of ``get_impl()`` wherever the
    ring's keys fit it (the compiled kernel takes at most 7 variables), and
    on ``DictPoly`` otherwise.  A derivation whose sums leave the compiled
    kernel's 128-bit range is checked again on ``DictPoly``, so the range
    never changes a verdict.  A form that does not divide is reported as an
    entry, never raised; a coefficient of total degree above FIELD_MASK
    raises ExponentOverflowError.
    """
    if arr.ell != theta.ell:
        raise ValueError("arrangement and derivation have different ranks")
    try:
        return _restriction_sums(theta, arr, _ring_impl(theta.nvars))
    except ExponentOverflowError:
        raise
    except OverflowError:
        return _restriction_sums(theta, arr, DictPoly)


def _ring_impl(nvars: int):
    """The kernel polynomial of ``get_impl()`` if every key of a ring in
    ``nvars`` variables stays below KEY_LIMIT, the compiled kernel's bound
    (ranks up to 6), and ``DictPoly`` otherwise."""
    return DictPoly if 1 << FIELD_BITS * nvars > KEY_LIMIT else get_impl()


def _restriction_sums(theta: Derivation, arr: Arrangement, impl) -> dict[str, bool]:
    """check_membership with the sums on kernel polynomials of ``impl``."""
    polys = theta.coefficients()
    # a term restricts to terms of its own total degree, so no exponent can
    # pass the largest total degree of the coefficients
    degree = max(0, *(p.total_degree() for p in polys))
    columns, _ = clear_denominators(polys)
    # each nonzero column is loaded once and dropped after the last form
    # that reads it; on DictPoly it keeps its split by the lead variable,
    # and the forms come grouped by their lead, so it is split once a lead
    last = {
        i: n
        for n, form in enumerate(arr.forms)
        for i, a in enumerate(form.coeffs)
        if a and columns[i]
    }
    wrap = _wrapper(impl)
    loaded = {i: wrap(columns[i]) for i in last}
    out: dict[str, bool] = {}
    for n, form in enumerate(arr.forms):
        field, tables = _kernel_tables(form, degree, impl)
        acc = impl.from_dict({})
        for i, a in enumerate(form.coeffs):
            if a and i in loaded:
                acc.fma(tables[abs(a)], loaded[i], 1 if a > 0 else -1, field=field)
                if last[i] == n:
                    del loaded[i]
        out[form.text()] = acc.is_zero()
    return out


def _wrapper(impl):
    """Term dicts to kernel polynomials of ``impl``: ``DictPoly`` wraps the
    dict itself, which its ``fma`` only reads as an operand."""
    return DictPoly if impl is DictPoly else impl.from_dict


@lru_cache(maxsize=None)
def _kernel_tables(form: LinearForm, degree: int, impl) -> tuple[int, dict[int, IntPolyLike]]:
    """``restriction_table(form, degree)`` as one kernel polynomial of
    ``impl`` per |a|, a nonzero coefficient of the form, made once per
    process: (field, {|a|: table}), ``field`` the bit offset of the lead
    variable x_s.  The table holds each entry, for x_s^e, with e written
    into x_s's field, which the entry leaves empty, so ``fma(table,
    column, sign, field=field)`` multiplies each x_s^e part of the column
    by its entry; it is scaled by |a|, since ``fma`` takes only a sign."""
    s, table = restriction_table(form, degree)
    field = variable_field(s, form.nvars)
    merged = {k + (e << field): c for e, entry in enumerate(table) for k, c in entry.items()}
    wrap = _wrapper(impl)
    tables = {}
    for a in {abs(a) for a in form.coeffs if a}:
        tables[a] = wrap(merged if a == 1 else {k: c * a for k, c in merged.items()})
    return field, tables


# -- structural checks -------------------------------------------------------


def _z_row_ok(derivs: Sequence[Derivation]) -> bool:
    """theta_E(z) = z and every phi_j(z) = 0: the z row is (z, 0, ..., 0),
    so Laplace expansion along it gives the full (l+1) x (l+1) determinant
    as (-1)^l * z * det[phi_j(x_i)]."""
    euler, phis = derivs[0], derivs[1:]
    z = Poly.variable(euler.nvars, euler.nvars - 1)
    return euler.coeff_z == z and all(phi.coeff_z.is_zero() for phi in phis)


def _check_degrees(ell: int, derivs: Sequence[Derivation]) -> bool:
    nvars = ell + 1
    euler, phis = derivs[0], derivs[1:]
    if not _z_row_ok(derivs):
        return False
    for i in range(ell):
        if euler.coeff_x[i] != Poly.variable(nvars, i):
            return False
    target = 2 * (ell - 1)
    for phi in phis:
        for c in phi.coeff_x:
            if c and not c.is_homogeneous(target):
                return False
    return True


def _expected_initial(i: int, ell: int) -> tuple:
    """x1^2 ... x_{i-1}^2 x_i^(2l-2i), as an exponent tuple (i is 1-based)."""
    exps = [0] * (ell + 1)
    for p in range(i - 1):
        exps[p] = 2
    exps[i - 1] = 2 * ell - 2 * i
    return tuple(exps)


def _check_initials(ell: int, derivs: Sequence[Derivation]) -> bool:
    phis = derivs[1:]
    ok = True
    for i in range(1, ell + 1):
        bound = _expected_initial(i, ell)
        for j in range(1, ell + 1):
            entry = phis[j - 1].coeff_x[i - 1]
            if entry.is_zero():
                continue
            init = entry.initial_monomial()
            if init > bound:
                ok = False
            if i < j and init >= bound:
                ok = False
            if i == j:
                expected_lc = _F1 if i == ell else Fraction(1, 2 * ell - 2 * i - 1)
                if init != bound or entry.leading_coefficient() != expected_lc:
                    ok = False
    return ok


# -- determinant: expand strategy --------------------------------------------


def _column_reduced_int_matrix(ell: int, phis: Sequence[Derivation], impl):
    """Factor (x_j - x_{j+1} - z) out of column j by exact division and clear
    denominators per column.  Returns (kernel rows, product of the column
    denominators, factored-out forms)."""
    nvars = ell + 1
    z = Poly.variable(nvars, nvars - 1)
    cols, factors = [], []
    for j, phi in enumerate(phis, start=1):
        if j < ell:
            form = Poly.variable(nvars, j - 1) - Poly.variable(nvars, j) - z
            cols.append([exact_div(c, form) if c else c for c in phi.coeff_x])
            factors.append(form)
        else:
            cols.append(list(phi.coeff_x))
    rows, den = clear_columns(cols, impl)
    return rows, den, factors


def _reduced_rhs_factors(ell: int) -> list[dict[int, int]]:
    """Kernel term dicts of the right-hand product with the per-column
    factors (x_j - x_{j+1} - z) removed: for every pair s < t the factor
    (x_s^2 - x_t^2), and the shifted factor ((x_s - z)^2 - x_t^2) — replaced
    by (x_s + x_t - z) when (s, t) are consecutive, since (x_s - x_t - z)
    was factored out of the matrix column."""
    nvars = ell + 1
    x = [Poly.variable(nvars, i) for i in range(ell)]
    z = Poly.variable(nvars, ell)
    pairs = [(s, t) for s in range(ell - 1) for t in range(s + 1, ell)]
    factors = [x[s] ** 2 - x[t] ** 2 for s, t in pairs]
    factors += [x[s] + x[t] - z if t == s + 1 else (x[s] - z) ** 2 - x[t] ** 2 for s, t in pairs]
    return [poly_to_int_dict(f)[0] for f in factors]


def _reversal_sign(n: int) -> int:
    """Sign of the permutation that reverses n lines: (-1)^(n(n-1)/2)."""
    return -1 if n * (n - 1) // 2 % 2 else 1


def _det_expand(ell: int, derivs: Sequence[Derivation], impl) -> tuple:
    nvars = ell + 1
    euler, phis = derivs[0], derivs[1:]
    try:
        rows, scale_prod, factors = _column_reduced_int_matrix(ell, phis, impl)
    except DivisionNotExactError:
        # this route needs (x_j - x_{j+1} - z) to divide column j, as it
        # does for the basis; without it the route establishes nothing
        return _NO_DET
    # The DP multiplies its largest minors by the last line it is given, so
    # it runs over the columns, phi_l first and phi_1 (the sparsest reduced
    # column) last: 29.2 million term pairs at rank 5 against 37.6 million
    # over the rows x_1..x_l.  Reversing the l columns multiplies the
    # determinant by (-1)^(l(l-1)/2), which goes into the denominator.
    lines = [list(col) for col in zip(*rows)][::-1]
    # One DP expands the full (l+1) x (l+1) determinant: these lines, each
    # with its z-row entry 0 in front, then the Euler line (z, theta_E(x_1..
    # x_l)).  Minors over rows with z are zero and cost nothing, so the
    # cofactor it hands back is the reduced determinant, and the full one
    # costs one fma more, z * reduced.  The z row is (z, 0, ..., 0), so with
    # R the reduced matrix in row order full_det = (-1)^((l+1)l/2) * z * det R,
    # the sign reversing l + 1 columns, while reduced = (-1)^(l(l-1)/2) *
    # det R.  The DP never reads the Euler line past z (every other minor it
    # would pair with holds the zero column), so its denominator is left out.
    z = Poly.variable(nvars, nvars - 1)
    z_entry = impl.from_dict(poly_to_int_dict(z)[0])
    euler_rows, _ = clear_columns([euler.coeff_x], impl)
    zero = impl.from_dict({})
    full_lines = [[zero] + line for line in lines]
    full_lines.append([z_entry] + [e for (e,) in euler_rows])
    full_det, reduced = det_minor_expansion(full_lines, impl)
    # So with rs = _reversal_sign, rs(l) * full_det == rs(l + 1) * z *
    # reduced, checked as full_det - rs(l) * rs(l + 1) * z * reduced == 0.
    # The z row is checked here: without this, a basis with theta_E(z) != z
    # or some phi_j(z) != 0 would pass.
    full_det.fma(reduced, z_entry, -_reversal_sign(ell) * _reversal_sign(ell + 1))
    full_ok = _z_row_ok(derivs) and full_det.is_zero()
    # Freed before the right-hand product is built, so that at most three
    # tables of the size of reduced are alive at once (14.2 million terms
    # each at rank 6).
    del full_det
    den = _reversal_sign(ell) * scale_prod
    dd = double_factorial(2 * ell - 3)
    # det[phi_j(x_i)] = reduced * prod(factors) / den must equal
    # (1/dd) * rhs * prod(factors), rhs the product of the reduced
    # right-hand factors: den * rhs - dd * reduced == 0.  den goes first in
    # the chain, so it scales only a one-term table.
    diff = int_product([{0: den}] + _reduced_rhs_factors(ell), impl)
    diff.fma(reduced, impl.from_dict({0: dd}), -1)
    matches = not reduced.is_zero() and diff.is_zero()
    constant = Fraction(1, dd) if matches else None
    return matches, full_ok, constant, (reduced, den, factors, nvars)


# -- determinant: certify strategy --------------------------------------------


def _det_certify(
    ell: int,
    derivs: Sequence[Derivation],
    arr: Arrangement,
    membership_ok: bool,
    degrees_ok: bool,
) -> tuple:
    """Exact determinant identity check without expansion (see module doc).

    Premises: memberships and column-homogeneous degrees with the Euler
    column and z row structure (both passed in), and, verified here,
    pairwise distinct forms (primitive normals, so distinct hyperplanes)
    and nonvanishing of Q at the chosen point.  The degrees premise
    includes the z row (see _z_row_ok), so the full determinant is
    consistent once det is nonzero.
    """
    phis = derivs[1:]
    if not (membership_ok and degrees_ok):
        return _NO_DET
    if len({f.coeffs for f in arr.forms}) != len(arr.forms):
        return _NO_DET
    # evaluation point: x_i = 2 * t^(i+1), z = 1 for the first t = 3, 4, ...
    # off every form.  On this curve a nonzero form is a nonzero polynomial
    # in t of degree at most l, so at most l * |A| values of t are on some
    # form.  t = 3 is off the Shi cone: the x_i are pairwise distinct and
    # even and z is odd, so no x_s +- x_t or x_s +- x_t - z vanishes.
    forms = [form.poly() for form in arr.forms[1:]]
    t = 3
    while True:
        point = [Fraction(2 * t ** (i + 1)) for i in range(ell)] + [_F1]
        qz_val = prod(fp.evaluate(point) for fp in forms)
        if qz_val:
            break
        t += 1
    values = [
        [Poly.constant(1, phis[j].coeff_x[i].evaluate(point)) for j in range(ell)]
        for i in range(ell)
    ]
    det_val = bareiss_det(values)
    if det_val.is_zero():
        return _NO_DET
    constant = det_val.leading_coefficient() / qz_val
    if constant != Fraction(1, double_factorial(2 * ell - 3)):
        return False, True, None, None
    # det = constant * prod(forms), the forms multiplied out in groups that
    # involve the same x-variables (for the Shi cone the four forms of each
    # pair s < t), in order of first appearance: the chain of det_phi then
    # pairs 890,533 terms at rank 5, against 3,234,191 one form at a time.
    # Key 0 is the constant monomial; the head is on the kernel that the
    # ring's keys fit, so det_phi builds from rank 7 up on DictPoly.
    groups: dict[tuple[int, ...], Poly] = {}
    for form, fp in zip(arr.forms[1:], forms):
        xs = tuple(i for i, c in enumerate(form.coeffs[:ell]) if c)
        groups[xs] = groups[xs] * fp if xs in groups else fp
    head = _ring_impl(ell + 1).from_dict({0: constant.numerator})
    return True, True, constant, (head, constant.denominator, list(groups.values()), ell + 1)


def _det_initial_and_lc(det_data: tuple | None) -> tuple:
    """(det_initial, det_leading_coefficient) of det = head * prod(factors)
    / den: the initial monomial of a product is the sum of its factors'
    initial monomials, its leading coefficient the product of theirs.  Both
    are None without data or for a zero determinant."""
    if det_data is None or det_data[0].is_zero():
        return None, None
    head, den, factors, nvars = det_data
    key, coeff = head.lead()
    init = _unpack(key, nvars)
    lc = Fraction(coeff, den)
    for f in factors:
        init = tuple(a + b for a, b in zip(init, f.initial_monomial()))
        lc *= f.leading_coefficient()
    return init, lc


# -- top level ----------------------------------------------------------------


def saito_verify(
    ell: int,
    method: str = "auto",
    derivs: Sequence[Derivation] | None = None,
) -> VerificationReport:
    """Run the full verification at rank ell >= 2.

    method: "auto" (expand for ell <= 5, certify above), "expand", or
    "certify".  ``derivs`` may supply externally obtained derivations (for
    example re-parsed CLI output) instead of constructing them afresh; they
    must be given in the order theta_E, phi_1, ..., phi_ell.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if method not in ("auto", "expand", "certify"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "expand" if ell <= 5 else "certify"
    # refused before the arrangement, whose forms alone take 0.4 s at rank 128
    check_rank_fits(ell)
    timing: dict[str, float] = {}
    t0 = time.perf_counter()

    arr = shi_d_cone(ell)
    timing["arrangement"] = time.perf_counter() - t0

    t = time.perf_counter()
    if derivs is None:
        derivs = basis(ell)
    elif len(derivs) != ell + 1 or any(d.ell != ell for d in derivs):
        raise ValueError("need ell + 1 derivations of matching rank")
    timing["basis"] = time.perf_counter() - t

    t = time.perf_counter()
    # the verdict runs over every derivation by position: the report's map
    # is keyed by name, so a failing row could hide behind a later namesake
    rows = [check_membership(d, arr) for d in derivs]
    membership = {d.name: row for d, row in zip(derivs, rows)}
    membership_ok = all(all(row.values()) for row in rows)
    timing["membership"] = time.perf_counter() - t

    t = time.perf_counter()
    degrees_ok = _check_degrees(ell, derivs)
    initials_ok = _check_initials(ell, derivs)
    timing["structure"] = time.perf_counter() - t

    t = time.perf_counter()
    if method == "expand":
        det = _det_expand(ell, derivs, get_impl())
    else:
        det = _det_certify(ell, derivs, arr, membership_ok, degrees_ok)
    matches, full_ok, constant, det_data = det
    det_initial, det_lc = _det_initial_and_lc(det_data)
    timing["determinant"] = time.perf_counter() - t
    timing["total"] = time.perf_counter() - t0

    return VerificationReport(
        ell=ell,
        method=method,
        membership=membership,
        membership_ok=membership_ok,
        degrees_ok=degrees_ok,
        initials_ok=initials_ok,
        det_constant=constant,
        det_initial=det_initial,
        det_leading_coefficient=det_lc,
        det_matches_corollary=matches,
        full_det_consistent=full_ok,
        saito_ok=membership_ok and degrees_ok and matches and full_ok,
        timing=timing,
        _det_data=det_data,
    )


# -- lemma identity checks -----------------------------------------------------


@dataclass
class LemmaReport:
    """Identity checks used by the membership proof, in auxiliary variables."""

    ell: int
    subset_expansion: list[tuple]  # (j, eps, ok): product over J vs K1/K2 sum
    sigma_tau_expansion: list[tuple]  # (j, eps, ok)
    odd_reflection_divisibility: list[tuple]  # ((k, k0), ok): s^2 - t^2
    shifted_form_divisibility: list[tuple]  # ((k, k0), eps, ok): s + eps t - z
    all_ok: bool = False

    def summary_dict(self) -> dict:
        return {
            "ell": self.ell,
            "subset_expansion": [
                {"j": j, "eps": e, "ok": ok} for j, e, ok in self.subset_expansion
            ],
            "sigma_tau_expansion": [
                {"j": j, "eps": e, "ok": ok} for j, e, ok in self.sigma_tau_expansion
            ],
            "odd_reflection_divisibility": [
                {"k": k, "k0": k0, "ok": ok}
                for (k, k0), ok in self.odd_reflection_divisibility
            ],
            "shifted_form_divisibility": [
                {"k": k, "k0": k0, "eps": e, "ok": ok}
                for (k, k0), e, ok in self.shifted_form_divisibility
            ],
            "all_ok": self.all_ok,
        }


def lemma_identity_checks(ell: int) -> LemmaReport:
    """Verify the subset/symmetric-function expansions and the two
    divisibility identities, as exact polynomial identities in auxiliary
    variables s and t, for every parameter tuple arising at this rank.

    Ring layout: x1..xl, z, s, t (s, t are the two extra trailing
    variables)."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    from .exactpoly import elementary_symmetric
    from .shi_basis import enumerate_k1_k2, term_indices

    nvars = ell + 3
    s = Poly.variable(nvars, nvars - 2)
    t = Poly.variable(nvars, nvars - 1)
    z = Poly.variable(nvars, ell)
    x = [Poly.variable(nvars, i) for i in range(ell)]

    subset_expansion = []
    sigma_tau_expansion = []
    # the subset expansion is used for every phi_j, including j = ell where
    # J = {x_1, ..., x_{ell-1}}; the sigma/tau expansion only for j < ell
    for j in range(1, ell + 1):
        J = list(range(j - 1))
        for eps in (1, -1):
            eps_t = t * eps
            lhs = Poly.one(nvars)
            for v in J:
                lhs = lhs * (x[v] - s) * (x[v] - eps_t)
            rhs = Poly.zero(nvars)
            est = s * t * eps
            for K1, K2 in enumerate_k1_k2(J):
                k0 = len(J) - len(K1) - len(K2)
                term = Poly.one(nvars)
                for v in K1:
                    term = term * x[v]
                for v in K2:
                    term = term * (x[v] ** 2)
                term = term * ((-(s + eps_t)) ** len(K1)) * (est ** k0)
                rhs = rhs + term
            subset_expansion.append((j, eps, lhs == rhs))
    for j in range(1, ell):
        J1 = [j - 1, j]
        J2 = list(range(j + 1, ell))
        for eps in (1, -1):
            eps_s = s * eps
            lhs2 = Poly.zero(nvars)
            for n1 in range(len(J1) + 1):
                sig = elementary_symmetric(nvars, [x[v] for v in J1], n1)
                for n2 in range(len(J2) + 1):
                    tau = elementary_symmetric(
                        nvars, [x[v] ** 2 for v in J2], n2
                    )
                    kp1 = (len(J1) - n1) + 2 * (len(J2) - n2)
                    sign = Fraction(-1) ** (len(J1) + len(J2) - n1 - n2)
                    lhs2 = lhs2 + sig * tau * (eps_s ** kp1) * sign
            rhs2 = Poly.one(nvars)
            for v in J1:
                rhs2 = rhs2 * (x[v] - eps_s)
            for v in J2:
                rhs2 = rhs2 * (x[v] ** 2 - s ** 2)
            sigma_tau_expansion.append((j, eps, lhs2 == rhs2))

    pairs = sorted(
        {(ti.k, ti.k0) for j in range(1, ell + 1) for ti in term_indices(j, ell)}
    )
    odd_reflection = []
    shifted_form = []
    for k, k0 in pairs:
        # s * Bbar(s, z) and t * Bbar(t, z)
        xbs, xbt = (_x_bernoulli(k, k0, var, ell, nvars) for var in (nvars - 2, nvars - 1))
        odd_reflection.append(((k, k0), divides(s ** 2 - t ** 2, xbs - xbt)))
        for eps in (1, -1):
            eps_t = t * eps
            est = s * t * eps
            combo = (s - eps_t) * eps * (t * xbs + s * eps * xbt) - (
                (s + eps_t)
                * (est ** k0)
                * ((t * eps) * (s ** (k + 1)) - s * (eps_t ** (k + 1)))
            )
            target = s + eps_t - z
            ok = combo.is_zero() or divides(target, combo)
            shifted_form.append(((k, k0), eps, ok))

    report = LemmaReport(
        ell=ell,
        subset_expansion=subset_expansion,
        sigma_tau_expansion=sigma_tau_expansion,
        odd_reflection_divisibility=odd_reflection,
        shifted_form_divisibility=shifted_form,
    )
    report.all_ok = (
        all(ok for _, _, ok in subset_expansion)
        and all(ok for _, _, ok in sigma_tau_expansion)
        and all(ok for _, ok in odd_reflection)
        and all(ok for _, _, ok in shifted_form)
    )
    return report
