"""Exact sparse multivariate polynomial arithmetic over the rationals.

The ring is Q[x1, ..., x_{n-1}, z]: a fixed number of variables ``nvars``,
where by convention the last variable is the homogenizing coordinate and is
rendered as ``z``; a one-variable ring (the Bernoulli relatives' B(x))
passes its own name to ``render``.  A ``Poly`` stores integer coefficients
on packed monomial keys over one positive denominator, reduced (no zero
term; gcd of the denominator and every coefficient 1), and ``_reduced`` is
the one place that reduces a result.  ``fractions.Fraction`` appears only
at the edges: the inputs of ``constant``, ``from_terms``, ``linear_form``
and a scalar ``*``, and the outputs of ``terms``, ``leading_coefficient``
and ``evaluate``.

The one and only monomial order used anywhere in this package is pure
lexicographic with x1 > x2 > ... > z.  Each monomial is packed into a single
integer, ``FIELD_BITS = 8`` bits per exponent with x1 occupying the most
significant field, so that *integer comparison of packed keys is exactly the
pure-lex comparison* and multiplying monomials is adding keys.  This module
owns that layout: the integer kernel of ``detkernel`` takes the same keys
unchanged, and no other module shifts or masks exponent fields.  An exponent
is at most 255 (``FIELD_MASK``); the compiled kernel's keys are int64 below
2^56, so it takes at most 7 variables.  A sum of keys whose exponents pass
255 would carry into the next variable without any error, so products check
the room first (``check_field_room``), division checks each quotient term,
and both raise ExponentOverflowError instead.

Products run on the stored integers: ``fma_terms`` is the package's one
loop over term pairs, on packed keys and ``int`` coefficients.  A ``Poly``
product multiplies the two coefficient maps there and takes the product of
the two denominators; the kernel's pure-Python ``fma``, the basis sums of
``shi_basis`` and the hyperplane restrictions of ``arrangement`` and
``verify`` call it too.

Division runs over the integers as well: the divisor is scaled to a
primitive integer polynomial, and one heap division loop (in the style of
Monagan and Pearce, "Sparse polynomial division using a heap", J. Symb.
Comp. 46, 2011) works on the dividend's stored coefficients.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Mapping, Sequence

Monomial = tuple  # exponent tuple, one entry per variable

FIELD_BITS = 8
FIELD_MASK = (1 << FIELD_BITS) - 1

def to_rational(c) -> Fraction:
    """Convert to Fraction, rejecting floats (this package is float-free)."""
    if isinstance(c, float):
        raise TypeError("floating-point coefficients are not allowed")
    return Fraction(c)


class DivisionNotExactError(ArithmeticError):
    """Raised when an exact polynomial division leaves a nonzero remainder."""


class ExponentOverflowError(OverflowError):
    """Raised when an operation would exceed the packed exponent range."""


def _pack(exps: Sequence[int]) -> int:
    key = 0
    for e in exps:
        if e < 0 or e > FIELD_MASK:
            raise ExponentOverflowError(f"exponent {e} outside [0, {FIELD_MASK}]")
        key = (key << FIELD_BITS) | e
    return key


def _unpack(key: int, nvars: int) -> Monomial:
    # FIELD_BITS = 8: one byte per exponent, x1 in the most significant one
    return tuple(key.to_bytes(nvars, "big"))


def _key_degree(key: int) -> int:
    d = 0
    while key:
        d += key & FIELD_MASK
        key >>= FIELD_BITS
    return d


def _field_peaks(keys: Iterable[int]) -> dict[int, int]:
    """The largest exponent of each variable over packed keys, by the shift
    of its field (variables absent from every key are left out)."""
    peaks: dict[int, int] = {}
    for key in keys:
        shift = 0
        while key:
            e = key & FIELD_MASK
            if e > peaks.get(shift, 0):
                peaks[shift] = e
            key >>= FIELD_BITS
            shift += FIELD_BITS
    return peaks


def check_field_room(peak_groups: Iterable[Mapping[int, int]]) -> None:
    """Raise ExponentOverflowError unless every sum of one packed key from
    each group keeps each exponent within FIELD_MASK; each group is given
    by its ``_field_peaks``.

    A variable's exponent in such a sum is at most the sum over groups of
    its largest exponent in the group, and that bound is reached, so the
    check is exact.  Past FIELD_MASK, adding the keys would carry into the
    next variable without any error.
    """
    totals: dict[int, int] = {}
    for peaks in peak_groups:
        for shift, e in peaks.items():
            totals[shift] = totals.get(shift, 0) + e
    for total in totals.values():
        if total > FIELD_MASK:
            raise ExponentOverflowError(f"an exponent can reach {total}, above {FIELD_MASK}")


def default_names(nvars: int) -> list[str]:
    """Variable names used by the canonical text rendering: x1..x_{n-1}, z."""
    return [f"x{i + 1}" for i in range(nvars - 1)] + ["z"]


class Poly:
    """Immutable sparse multivariate polynomial with rational coefficients.

    The polynomial is _terms / _den: nonzero ``int`` coefficients on packed
    keys over one ``int`` denominator, reduced (_den > 0 and gcd(_den, all
    coefficients) = 1), so two polynomials are equal iff their fields are.
    Instances are safe to share across threads (all operations are pure).
    """

    __slots__ = ("nvars", "_terms", "_den", "_maxdeg")

    def __init__(self, nvars: int, _terms: dict[int, int] | None = None, _den: int = 1):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.nvars = nvars
        self._terms = _terms if _terms is not None else {}
        self._den = _den
        self._maxdeg: int | None = None  # total degree, computed on first use

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls(nvars, {0: 1})

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        return _from_rationals(nvars, {0: to_rational(c)})

    @classmethod
    def variable(cls, nvars: int, var: int) -> "Poly":
        if not 0 <= var < nvars:
            raise IndexError(f"variable index {var} out of range for {nvars} variables")
        return cls(nvars, {1 << (FIELD_BITS * (nvars - 1 - var)): 1})

    @classmethod
    def from_terms(cls, nvars: int, terms: Mapping[Sequence[int], object]) -> "Poly":
        out: dict[int, Fraction] = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"monomial {exps} has wrong length for nvars={nvars}")
            # distinct exponent tuples pack to distinct keys
            out[_pack(exps)] = to_rational(c)
        return _from_rationals(nvars, out)

    @classmethod
    def linear_form(cls, nvars: int, coeffs: Sequence[object]) -> "Poly":
        """Polynomial c_0*x1 + ... + c_{n-1}*z from a coefficient vector."""
        if len(coeffs) != nvars:
            raise ValueError("coefficient vector has wrong length")
        units = (1 << (FIELD_BITS * (nvars - 1 - i)) for i in range(nvars))
        return _from_rationals(nvars, {k: to_rational(c) for k, c in zip(units, coeffs)})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        # perfbench/tracer.py counts term pairs and dividend terms through it
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Yield (monomial, coefficient) pairs in descending pure-lex order."""
        for key in sorted(self._terms, reverse=True):
            yield _unpack(key, self.nvars), Fraction(self._terms[key], self._den)

    def total_degree(self) -> int:
        """Maximal total degree of a term; -1 for the zero polynomial."""
        if self._maxdeg is None:
            self._maxdeg = max(map(_key_degree, self._terms), default=-1)
        return self._maxdeg

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """True if all terms share one total degree (the zero poly is homogeneous)."""
        if not self._terms:
            return True
        degs = {_key_degree(k) for k in self._terms}
        if len(degs) != 1:
            return False
        return degree is None or degs == {degree}

    def initial_monomial(self) -> Monomial:
        """Lex-greatest monomial.  Raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no initial monomial")
        return _unpack(max(self._terms), self.nvars)

    def leading_coefficient(self) -> Fraction:
        if not self._terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._terms[max(self._terms)], self._den)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return (self.nvars, self._den, self._terms) == (other.nvars, other._den, other._terms)
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(self.nvars, other)
        return NotImplemented

    __hash__ = None  # mutable-dict backed; identity hashing would be a trap

    # -- arithmetic --------------------------------------------------------

    def _check_compat(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"mismatched nvars: {self.nvars} vs {other.nvars}")

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compat(other)
        (out, b), den = clear_denominators([self, other])
        for k, c in b.items():
            acc = out.get(k, 0) + c
            if acc:
                out[k] = acc
            else:
                del out[k]
        return _reduced(self.nvars, out, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {k: -c for k, c in self._terms.items()}, self._den)

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = to_rational(other)
            out = {k: v * c.numerator for k, v in self._terms.items()} if c else {}
            return _reduced(self.nvars, out, self._den * c.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compat(other)
        if not self._terms or not other._terms:
            return Poly(self.nvars)
        # Exponents add under *, variable by variable.  No exponent exceeds
        # the total degree, so only a product whose degree passes FIELD_MASK
        # needs the per-variable check.
        degree = self.total_degree() + other.total_degree()
        if degree > FIELD_MASK:
            check_field_room(map(_field_peaks, (self._terms, other._terms)))
        out: dict[int, int] = {}
        fma_terms(out, self._terms, other._terms)
        result = _reduced(self.nvars, out, self._den * other._den)
        # Q[x] is a domain: the top-degree parts multiply to a nonzero part.
        result._maxdeg = degree
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and substitution ----------------------------------------

    def partial_derivative(self, var: int) -> "Poly":
        """Formal partial derivative with respect to variable index ``var``."""
        if not 0 <= var < self.nvars:
            raise IndexError(f"variable index {var} out of range")
        shift = FIELD_BITS * (self.nvars - 1 - var)
        unit = 1 << shift
        out: dict[int, int] = {}
        for k, c in self._terms.items():
            e = (k >> shift) & FIELD_MASK
            if e:
                out[k - unit] = c * e
        return _reduced(self.nvars, out, self._den)

    def substitute(self, var: int, g: "Poly") -> "Poly":
        """Replace variable ``var`` by the polynomial ``g``, expanded."""
        if not 0 <= var < self.nvars:
            raise IndexError(f"variable index {var} out of range")
        self._check_compat(g)
        # Group terms by the exponent of var, then apply Horner's rule in g
        # over the descending distinct exponents.
        by_exp = split_by_variable(self._terms, var, self.nvars)
        result = Poly(self.nvars)
        prev: int | None = None
        for e in sorted(by_exp, reverse=True):
            if prev is not None:
                for _ in range(prev - e):
                    result = result * g
            result = result + _reduced(self.nvars, by_exp[e], self._den)
            prev = e
        if prev:
            for _ in range(prev):
                result = result * g
        return result

    def evaluate(self, point: Sequence[object]) -> Fraction:
        """Exact evaluation at a rational point.

        Runs over the integers: with v_i = n_i / d_i and t_i the largest
        exponent of variable i, a stored term C * x^e adds
        C * prod n_i^e_i * d_i^(t_i - e_i), and the sum is divided once by
        _den * prod d_i^t_i.
        """
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        vals = [to_rational(v) for v in point]
        monos = [_unpack(k, self.nvars) for k in self._terms]
        top = [max(col) for col in zip(*monos)]
        powers: list[dict[int, int]] = [{} for _ in vals]
        total = 0
        for mono, c in zip(monos, self._terms.values()):
            for v, e, t, pw in zip(vals, mono, top, powers):
                p = pw.get(e)
                if p is None:
                    p = pw[e] = v.numerator**e * v.denominator ** (t - e)
                c *= p
            total += c
        return Fraction(total, self._den * prod(v.denominator**t for v, t in zip(vals, top)))

    # -- rendering ---------------------------------------------------------

    def render(self, names: Sequence[str] | None = None) -> str:
        """Canonical text form: descending pure lex, 'num/den' coefficients."""
        if not self._terms:
            return "0"
        if names is None:
            names = default_names(self.nvars)
        pieces: list[str] = []
        for exps, c in self.terms():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if not factors:
                body = _render_rational(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = _render_rational(mag) + "*" + "*".join(factors)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self.render()})"


def _render_rational(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# -- module-level operations ----------------------------------------------


def _reduced(nvars: int, terms: dict[int, int], den: int) -> Poly:
    """terms / den (no zero term, den nonzero) in the stored form of ``Poly``.
    ``terms`` is kept or replaced, never changed."""
    if den < 0:
        terms, den = {k: -c for k, c in terms.items()}, -den
    g = gcd(den, *terms.values())
    if g != 1:
        terms, den = {k: c // g for k, c in terms.items()}, den // g
    return Poly(nvars, terms, den)


def _from_rationals(nvars: int, terms: Mapping[int, Fraction]) -> Poly:
    """The polynomial with these rational coefficients on packed keys.  Over
    den, the lcm of the denominators, it is reduced: a coefficient whose
    denominator holds a prime's full power in den keeps a numerator prime
    to it."""
    den = lcm(*(c.denominator for c in terms.values()))
    out = {k: c.numerator * (den // c.denominator) for k, c in terms.items() if c}
    return Poly(nvars, out, den)


def clear_denominators(polys: Sequence[Poly]) -> tuple[list[dict[int, int]], int]:
    """Integer terms of each polynomial under one common denominator d:
    polys[i] = terms[i] / d.  Returns (terms, d); the term dicts are new."""
    den = lcm(*(f._den for f in polys))
    return [{k: c * (den // f._den) for k, c in f._terms.items()} for f in polys], den


def fma_terms(
    out: dict[int, int], a: Mapping[int, int], b: Mapping[int, int], scale: int = 1
) -> None:
    """out += scale * a * b, for integer terms on packed keys, in place.

    The package's one loop over term pairs: ``Poly`` products, the
    pure-Python kernel's ``fma`` and the hyperplane restrictions all run
    here.  ``a`` is the outer loop.  A sum that cancels is deleted, so
    ``out`` stores no zero if neither operand does.  Keys are added
    unchecked: callers keep every exponent within FIELD_MASK
    (``check_field_room``), and ``out`` must be neither operand.
    """
    get = out.get
    for ka, va in a.items():
        va *= scale
        for kb, vb in b.items():
            k = ka + kb
            cur = get(k)
            if cur is None:
                out[k] = va * vb
            else:
                cur += va * vb
                if cur:
                    out[k] = cur
                else:
                    del out[k]


def _primitive(b: Poly) -> tuple[dict[int, int], int]:
    """b = g * B / b._den, B a primitive integer polynomial; returns (B, g)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    g = gcd(*b._terms.values())
    return {k: v // g for k, v in b._terms.items()}, g


def _divide(work: dict[int, int], divisor: dict[int, int], nvars: int) -> dict[int, int] | None:
    """The division loop behind ``exact_div`` and ``divides``.

    Divides the integer terms ``work`` (consumed) by the primitive integer
    polynomial ``divisor`` under pure lex and returns the integer quotient
    terms.  A max-heap of packed keys yields the dividend's terms in
    descending order; reducing a term only adds smaller keys.  The loop
    returns None at the first sign of a nonzero remainder: a remainder
    term, or, by Gauss's lemma (a primitive integer divisor of an integer
    polynomial leaves an integer quotient), a step coefficient that is not
    a multiple of the leading coefficient.

    Under lex, reducing can raise a smaller variable's exponent without
    bound (x1^k by x1 - z^2 leaves z^(2k)), so each quotient term is
    checked before its products are added: ``room`` packs the other
    divisor terms' largest exponents, and qk + room carries out of a field
    exactly when some qk + bk would.
    """
    lead = max(divisor)
    lc = divisor[lead]
    rest = [(k, c) for k, c in divisor.items() if k != lead]
    room = sum(e << shift for shift, e in _field_peaks(k for k, _ in rest).items())
    carries = sum(1 << (FIELD_BITS * i) for i in range(1, nvars + 1))
    fields = list(_field_peaks([lead]).items())  # (shift, exponent) in the lead
    quo: dict[int, int] = {}
    heap = [-k for k in work]
    heapify(heap)
    while heap:
        key = -heappop(heap)
        c = work.pop(key, None)
        if c is None:
            continue  # stale heap entry
        for shift, e in fields:
            if (key >> shift) & FIELD_MASK < e:
                return None
        qc, m = divmod(c, lc)
        if m:
            return None
        qk = key - lead
        if ((qk + room) ^ qk ^ room) & carries:
            raise ExponentOverflowError(f"an exponent would pass {FIELD_MASK} in division")
        quo[qk] = qc  # keys strictly descend, so each qk occurs once
        for bk, bc in rest:
            nk = qk + bk
            prev = work.get(nk)
            if prev is None:
                work[nk] = -qc * bc
                heappush(heap, -nk)
            else:
                prev -= qc * bc
                if prev:
                    work[nk] = prev
                else:
                    del work[nk]
    return quo


def exact_div(a: Poly, b: Poly) -> Poly:
    """Exact quotient a/b; raises DivisionNotExactError on nonzero remainder.

    A failed exact division signals a violated algebraic identity upstream;
    results are never silently truncated.
    """
    divisor, g = _primitive(b)
    a._check_compat(b)
    quo = _divide(dict(a._terms), divisor, a.nvars)
    if quo is None:
        raise DivisionNotExactError("division not exact: nonzero remainder")
    # a = A / da and b = g * B / db, so a / b = (A / B) * db / (g * da)
    return _reduced(a.nvars, {k: c * b._den for k, c in quo.items()}, g * a._den)


def divides(b: Poly, a: Poly) -> bool:
    """True iff b divides a in the polynomial ring (divides(b, 0) is True).
    Stops at the first remainder term; the quotient it builds is dropped."""
    divisor, _ = _primitive(b)
    a._check_compat(b)
    return _divide(dict(a._terms), divisor, a.nvars) is not None


def split_by_variable(terms: Mapping[int, object], var: int, nvars: int) -> dict[int, dict]:
    """Terms with packed keys of an nvars-variable ring, grouped by the
    exponent e of x_var: {e: {key with x_var^e removed: coefficient}}."""
    shift = FIELD_BITS * (nvars - 1 - var)
    out: dict[int, dict] = {}
    for k, c in terms.items():
        e = (k >> shift) & FIELD_MASK
        out.setdefault(e, {})[k - (e << shift)] = c
    return out


def divide_by_variable(terms: dict[int, int], var: int, nvars: int) -> dict[int, int]:
    """terms / x_var for integer terms with packed keys of an nvars-variable
    ring: each key loses one x_var.  Raises DivisionNotExactError if a key
    has none."""
    shift = FIELD_BITS * (nvars - 1 - var)
    unit = 1 << shift
    out: dict[int, int] = {}
    for k, c in terms.items():
        if not (k >> shift) & FIELD_MASK:
            raise DivisionNotExactError(f"variable {var} does not divide every term")
        out[k - unit] = c
    return out


def elementary_symmetric(nvars: int, gens: Sequence[Poly], n: int) -> Poly:
    """Elementary symmetric polynomial sigma_n of the given generators.

    sigma_0 = 1 (also for an empty generator list).  By convention n < 0 or
    n > len(gens) yields the zero polynomial rather than an error.
    """
    if n < 0 or n > len(gens):
        return Poly.zero(nvars)
    rows = [Poly.one(nvars)] + [Poly.zero(nvars) for _ in range(n)]
    for g in gens:
        if g.nvars != nvars:
            raise ValueError("generator in a different ring")
        for i in range(min(n, len(gens)), 0, -1):
            rows[i] = rows[i] + rows[i - 1] * g
    return rows[n]


def remap_variables(f: Poly, nvars: int, mapping: Sequence[int]) -> Poly:
    """Embed f into a ring with ``nvars`` variables, sending old variable i
    to new variable mapping[i].  The mapping must be injective."""
    if len(mapping) != f.nvars:
        raise ValueError("mapping length must equal f.nvars")
    if len(set(mapping)) != len(mapping):
        raise ValueError("variable mapping must be injective")
    for m in mapping:
        if not 0 <= m < nvars:
            raise IndexError("mapped variable index out of range")
    out: dict[int, int] = {}
    for k, c in f._terms.items():
        exps = _unpack(k, f.nvars)
        new = [0] * nvars
        for i, e in enumerate(exps):
            new[mapping[i]] = e
        out[_pack(new)] = c
    return Poly(nvars, out, f._den)

