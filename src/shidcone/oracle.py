"""Independent brute-force oracles that do not presume the construction.

Two families of checks:

* graded dimensions of the derivation module, computed as exact null-space
  dimensions of a linear system with rational coefficients, compared against
  the free-module prediction from exponents (1, h, ..., h) with h = 2l - 2.
  The equations restrict to each hyperplane by the table that membership
  uses too (``arrangement.restriction_table``), so the dimensions never
  read the basis.  The rank is found by elimination over the integers:
  every row is scaled by a nonzero integer to clear its denominators
  (which changes neither its span nor the rank), and rows are kept
  primitive, with their content divided out, so that entries stay small.
  No residue-class shortcut is taken: a rank modulo p can fall below the
  rank over Q, so it would only bound the dimension.  The system is split
  instead, exactly: a sign flip x_t -> -x_t that maps the arrangement onto
  itself maps each graded piece onto itself and acts on the unknowns by
  +-1, so the piece is the direct sum of its parts of each parity, and
  each part is eliminated on its own (``_nullity``).  For the Shi cone the
  flip is x_l's;

* point counts over small finite fields: the number of points of F_q^(l+1)
  avoiding every hyperplane must be (q-1) * (q-h)^l, consistent with the
  factorization of the characteristic polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from operator import add
from typing import Iterable, Iterator

from .arrangement import Arrangement, restriction_table, shi_d_cone
from .exactpoly import FIELD_MASK, _pack, _unpack, clear_denominators
from .shi_basis import Derivation, basis

PREFIX_CAP = 10**7


@dataclass(frozen=True)
class GradedDimReport:
    ell: int
    degree: int
    computed_dim: int
    expected_dim: int

    @property
    def ok(self) -> bool:
        return self.computed_dim == self.expected_dim


def expected_dim(ell: int, d: int) -> int:
    """Graded dimension predicted by exponents (1, h, ..., h):
    sum over exponents e <= d of C(d - e + l, l)."""
    if ell < 2 or d < 0:
        raise ValueError("require ell >= 2 and d >= 0")
    h = 2 * ell - 2
    exponents = [1] + [h] * ell
    return sum(comb(d - e + ell, ell) for e in exponents if e <= d)


def monomials_of_degree(nvars: int, d: int) -> Iterator[tuple[int, ...]]:
    """All exponent tuples of total degree d, lexicographically descending."""
    if nvars == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - first):
            yield (first,) + rest


def _sparse_rank(rows: Iterable[dict[int, int]]) -> int:
    """Exact rank of a sparse integer matrix given as an iterable of rows."""
    return len(_pivot_rows(rows))


def _pivot_rows(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """A row echelon form of a sparse integer matrix: its pivot rows, each
    primitive and keyed by its smallest column index.

    Forward elimination keyed on each row's smallest column index, taking
    the rows shortest first: the order does not change the rank, and sparse
    pivot rows keep fill-in low (8x faster than generation order on the
    rank-4, degree-6 membership system).  Rows are kept primitive: a row
    meeting the pivot row of its first column c is replaced by
    (p/g) * row - (r/g) * pivot, with p, r the two entries at c and
    g = gcd(p, r), and its content is divided out.  Both steps multiply or
    divide the row by nonzero integers and subtract a multiple of a pivot,
    so the span of the rows seen so far, and hence the rank, is unchanged.
    Eliminating a column only introduces larger ones, so the reduction
    terminates.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        row = {c: v for c, v in row.items() if v}
        while row:
            content = gcd(*row.values())
            if content != 1:
                row = {k: v // content for k, v in row.items()}
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            p, r = piv[c], row[c]
            g = gcd(p, r)
            a, b = p // g, r // g
            if a != 1:
                row = {k: a * v for k, v in row.items()}
            for k, v in piv.items():
                cur = row.get(k, 0) - b * v
                if cur:
                    row[k] = cur
                else:
                    del row[k]
        # empty row: linearly dependent, contributes nothing
    return pivots


def _membership_rows(arr: Arrangement, d: int) -> tuple[int, Iterator[dict[int, int]]]:
    """Linear system whose null space is the degree-d graded piece of the
    derivation module of ``arr``.

    Unknowns: one coefficient per (variable slot v, degree-d monomial m).
    For every hyperplane form alpha the polynomial theta(alpha) =
    sum_v alpha_v * c_v must vanish modulo alpha, that is after the
    substitution x_s := -(sum over i != s of alpha_i x_i) / alpha_s for the
    lex-leading variable x_s of alpha; each coefficient of the substituted
    polynomial is one linear equation.  The substitution is
    ``arrangement.restriction_table``: the substituted polynomial is
    multiplied by alpha_s^d, a nonzero integer scaling that makes the
    equations integer and leaves their span unchanged.
    """
    nvars = arr.nvars
    monos = list(monomials_of_degree(nvars, d))
    n_mono = len(monos)
    n_unknowns = nvars * n_mono

    def rows() -> Iterator[dict[int, int]]:
        for form in arr.forms:
            # table[k]: x_s^k after the substitution, times alpha_s^d
            s, table = restriction_table(form, d)
            support = [(v, av) for v, av in enumerate(form.coeffs) if av]
            by_target: dict[int, dict[int, int]] = {}
            for j, m in enumerate(monos):
                rest = _pack(m[:s] + (0,) + m[s + 1 :])
                for target, c in table[m[s]].items():
                    row = by_target.setdefault(rest + target, {})
                    for v, av in support:
                        uid = v * n_mono + j
                        row[uid] = row.get(uid, 0) + av * c
            yield from by_target.values()

    return n_unknowns, rows()


def _sign_flips(arr: Arrangement) -> list[int]:
    """The coordinates t whose sign flip x_t -> -x_t maps the primitive
    normals of ``arr`` onto themselves, each image taken with a positive
    lead: [l - 1], that is x_l, for ``shi_d_cone(l)``."""
    normals = {form.coeffs for form in arr.forms}
    flips = []
    for t in range(arr.nvars):
        for c in normals:
            image = c[:t] + (-c[t],) + c[t + 1 :]
            if next(a for a in image if a) < 0:
                image = tuple(-a for a in image)
            if image not in normals:
                break
        else:
            flips.append(t)
    return flips


def _nullity(arr: Arrangement, d: int) -> int:
    """Nullity of ``_membership_rows(arr, d)``, one block of unknowns at a
    time.

    A row with a single nonzero entry pins its unknown to 0; the unknown is
    removed from every other row, which leaves the nullity unchanged.  The
    other rows are split by the parity of their unknowns under the sign
    flips of ``_sign_flips(arr)``: unknown (v, m) has parity
    (m_t + [v == t]) mod 2 under the flip of x_t, and the key of a block is
    its parities under all the flips.  Each block is eliminated on its own,
    and the nullity is the number of unknowns less the pinned ones and the
    block ranks.  This is exact.  A flip g with gA = A maps the degree-d
    piece of D(A) onto itself (Orlik-Terao, ch. 4), and it multiplies each
    unknown by +-1 by its parity, so the piece is the direct sum of its
    intersections with the blocks.  Each intersection is the kernel of the
    system restricted to that block's columns, so the nullity is the sum
    of the block nullities.  Conversely, for any matrix the rank is at most
    the sum of the block ranks, so a flip claimed wrongly could only
    understate a dimension; that is why the flips are read from the forms
    on every call.
    """
    n_unknowns, rows = _membership_rows(arr, d)
    flips = _sign_flips(arr)
    key = [
        sum((m[t] + (v == t)) % 2 << i for i, t in enumerate(flips))
        for v in range(arr.nvars)
        for m in monomials_of_degree(arr.nvars, d)
    ]
    fixed: set[int] = set()
    blocks: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        parts: dict[int, dict[int, int]] = {}
        for u, c in row.items():
            if c:
                parts.setdefault(key[u], {})[u] = c
        for k, part in parts.items():
            blocks.setdefault(k, []).append(part)
        if len(parts) == 1 and len(part) == 1:  # one nonzero entry
            fixed.update(part)
    # the pinned unknowns leave every row, their own rows included
    for block in blocks.values():
        for part in block:
            for u in fixed.intersection(part):
                del part[u]
    return n_unknowns - len(fixed) - sum(map(_sparse_rank, blocks.values()))


def derivation_dim(ell: int, d: int) -> int:
    """Dimension of the space of derivations with homogeneous degree-d
    coefficients preserving every hyperplane, by exact linear algebra."""
    if ell < 2 or d < 0:
        raise ValueError("require ell >= 2 and d >= 0")
    return _nullity(shi_d_cone(ell), d)


def graded_dims(ell: int, max_degree: int) -> list[GradedDimReport]:
    """One report per degree 0..max_degree.  An empty range is refused, so
    no invalid input passes as an empty list of checks; so is a degree past
    FIELD_MASK, which restriction_table cannot build, before any lower
    degree is computed."""
    if ell < 2 or max_degree < 0:
        raise ValueError("require ell >= 2 and max_degree >= 0")
    if max_degree > FIELD_MASK:
        raise ValueError(f"max_degree {max_degree} needs exponents above {FIELD_MASK}")
    return [
        GradedDimReport(ell, d, derivation_dim(ell, d), expected_dim(ell, d))
        for d in range(max_degree + 1)
    ]


def _derivation_vector(
    theta: Derivation, shift: tuple[int, ...], monos_index: dict[tuple, int], n_mono: int
) -> dict[int, int]:
    """The coefficients of x^shift * theta as one vector over the monomials
    of ``monos_index``, scaled by their common denominator to integers."""
    columns, _ = clear_denominators(theta.coefficients())
    return {
        v * n_mono + monos_index[tuple(map(add, _unpack(key, theta.nvars), shift))]: c
        for v, terms in enumerate(columns)
        for key, c in terms.items()
    }


def basis_span_rank_at_h(ell: int) -> tuple[int, int]:
    """(rank of the span of {monomial * theta_E} u {phi_j} in degree h,
    expected graded dimension).

    Containment of the span in the derivation module follows from the
    membership checks; equal dimension at degree h then certifies that the
    oracle's null space at the exponent degree is exactly the span of the
    constructed basis there.  Each vector is scaled to integers, which does
    not change the span's dimension.
    """
    h = 2 * ell - 2
    nvars = ell + 1
    monos = list(monomials_of_degree(nvars, h))
    index = {m: i for i, m in enumerate(monos)}
    euler, *phis = basis(ell)
    vectors = [
        _derivation_vector(euler, m, index, len(monos))
        for m in monomials_of_degree(nvars, h - 1)
    ]
    vectors += [_derivation_vector(phi, (0,) * nvars, index, len(monos)) for phi in phis]
    return _sparse_rank(vectors), expected_dim(ell, h)


# -- finite-field point counts -------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def charpoly_count(ell: int, q: int) -> int:
    """Number of points of F_q^(l+1) lying on none of the hyperplanes of
    ``shi_d_cone(ell)``, counted on the slice z = 1.

    The point count is Athanasiadis's finite-field method for the
    characteristic polynomial ("Characteristic polynomials of subspace
    arrangements and finite fields", Adv. Math. 122, 1996).  Points with
    z = 0 lie on the hyperplane z = 0.  For each z != 0 the map x -> x/z is
    a bijection from the slice at z onto the slice z = 1, and it preserves
    every form of the cone: x_s + eps*x_t - k*z vanishes at (x, z) iff
    x_s/z + eps*x_t/z - k vanishes.  So every nonzero slice has the same
    count, and the total is (q - 1) times the count of the slice z = 1,
    which ``_search_slice`` takes.

    Requires q an odd prime with q > 2l - 1 (small q below that boundary
    produce degenerate reductions).  ValueError is raised once the search
    passes PREFIX_CAP = 10^7 visited prefixes, or at once if its tables
    (q entries for each pair s < t) would.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if not _is_prime(q) or q == 2:
        raise ValueError(f"q = {q} is not an odd prime")
    if q <= 2 * ell - 1:
        raise ValueError(f"q = {q} too small for ell = {ell} (need q > {2 * ell - 1})")
    if ell * (ell - 1) // 2 * q > PREFIX_CAP:
        raise ValueError(f"the tables for ell = {ell}, q = {q} pass the {PREFIX_CAP:,} prefix cap")
    return (q - 1) * _search_slice(shi_d_cone(ell), q)


def _search_slice(arr: Arrangement, q: int) -> int:
    """Points of the slice z = 1 of F_q^(l+1) on none of the hyperplanes
    of ``arr``, by backtracking.

    Every form of ``arr`` other than z must involve exactly two x-variables
    x_s, x_t (s < t), with a coefficient prime to q at x_t, so once x_s is
    fixed it forbids exactly one value of x_t; and l = arr.ell >= 2.  A
    table per pair s < t gives, for each value of x_s, the values its forms
    forbid for x_t, as a bitmask.  The search chooses x_1, x_2, ... in
    turn, each among the values its earlier coordinates allow, and at the
    last one adds q minus the number forbidden instead of recursing.  So it
    visits only the prefixes x_1..x_k, k < l, on no form in those
    variables: 2,440 for ``shi_d_cone(4)`` at q = 17 and 1,938,905 for
    ``shi_d_cone(9)`` at q = 19.  ValueError is raised past PREFIX_CAP,
    and for a form outside that shape, naming it.
    """
    ell = arr.ell
    # bans[s][t][v]: the values of coordinate t (from 0) that the forms in
    # coordinates s < t forbid when coordinate s is v, as a bitmask
    bans: list[dict[int, list[int]]] = [{} for _ in range(ell)]
    for form in arr.forms:
        *xs, k = form.coeffs
        support = [(s, c) for s, c in enumerate(xs) if c]
        if not support:
            continue  # z, which is 1 on the slice
        if len(support) != 2 or gcd(support[1][1], q) != 1:
            raise ValueError(
                f"cannot search the slice at the form {form.text()}: a form other than z"
                f" needs exactly two x-variables, the later with a coefficient prime to q = {q}"
            )
        (s, b), (t, a) = support
        m = -pow(a, -1, q)  # the form vanishes iff x_t = m * (b * x_s + k)
        table = bans[s].setdefault(t, [0] * q)
        for v in range(q):
            table[v] |= 1 << m * (b * v + k) % q
    rows = [list(row.items()) for row in bans]
    visited = 1

    def search(i: int, masks: list[int]) -> int:
        # coordinates 0..i-1 are fixed; masks[t] holds the values they forbid
        # for coordinate t
        nonlocal visited
        forbidden = masks[i]
        visited += q - forbidden.bit_count()
        if visited > PREFIX_CAP:
            raise ValueError(f"the search passes the {PREFIX_CAP:,} prefix cap")
        total = 0
        for v in range(q):
            if forbidden >> v & 1:
                continue
            child = masks[:]
            for t, table in rows[i]:
                child[t] |= table[v]
            total += q - child[-1].bit_count() if i + 2 == ell else search(i + 1, child)
        return total

    return search(0, [0] * ell)


def expected_count(ell: int, q: int) -> int:
    """(q - 1) * (q - h)^l, the count consistent with exponents (1, h, ..., h)."""
    h = 2 * ell - 2
    return (q - 1) * (q - h) ** ell
