"""Integer polynomial kernel used by the determinant verification.

The determinant of the basis matrix is a huge polynomial (200k terms at
rank 5), so it is expanded over integer-coefficient polynomials whose keys
are ``Poly``'s own packed monomials (the layout of ``exactpoly``: 8 bits per
exponent, x1 in the most significant field, at most 255 per variable).
Keys pass between ``Poly`` and the kernel unchanged:

  * ``poly_to_int_dict`` / ``int_dict_to_poly``: a ``Poly`` to integer
    terms and a denominator, and back: ``Poly``'s own stored fields, so no
    coefficient is converted, and the way back reduces once;
  * ``clear_columns``: the columns of a ``Poly`` matrix to kernel rows, each
    column under its own denominator, and the product of the denominators;
  * ``det_minor_expansion``: the determinant of kernel rows, and the minor
    that leaves out the last row and the first column;
  * ``int_product``: the product of a chain of factors.

The last two raise ExponentOverflowError where a packed exponent could
carry into the next field (``exactpoly.check_field_room``).  Besides the
determinant, ``verify.check_membership`` sums its hyperplane restrictions
on the kernel, on ``get_impl()``'s class wherever the ring fits it.  Two
interchangeable implementations provide the kernel polynomial
(``IntPolyLike``: ``from_dict``, ``to_dict``, ``take_dict``, ``field_peaks``,
``nnz``, ``is_zero``, ``fma``, ``lead``; ``fma`` is the one arithmetic
operation, and two polynomials are compared by subtracting one from the
other with it and asking ``is_zero``).  ``fma(a, b, sign, field=f)``, with
f the bit offset of an exponent field (keyword only), multiplies only the
term pairs whose exponents in that field agree and clears the field in
their sum: membership multiplies each x_s^e part of a column by its
restriction entry in one call.

  * ``DictPoly`` — pure Python, dict[int, int]; any number of variables.
                   Its ``fma`` is ``exactpoly.fma_terms``, the package's
                   one loop over term pairs, which ``shi_basis`` and
                   ``arrangement`` call directly; with a field, once per
                   shared exponent, on the operands' splits by that field,
                   each kept until its dict changes.
  * ``IntPoly``  — open-addressing hash with signed 128-bit values in the
                   C file ``_detkernel.c``, called through ctypes; its int64
                   keys must stay below 2^56 (``KEY_LIMIT``), so at most 7
                   variables.  The C code checks each addition and
                   multiplication where it does it: leaving [-2^127, 2^127)
                   raises OverflowError, and nothing wraps.  Its
                   ``fma`` sorts b's terms into buckets by the field, so
                   each term of a walks only its own bucket.

The C table puts a key at the low bits of MurmurHash3's ``fmix64`` of the
whole key and probes linearly.  Packed keys differ mostly in a few fields,
so a hash that reads only some of their bits piles them onto few slots: the
low bits of ``key * phi`` see only the low fields (the 233,858 keys of the
rank-5 reduced determinant took 20,915 home slots of 2^19, against about
188,700 for a random hash), and a nearly additive hash, h(a + b) close to
h(a) + h(b) as for the top bits of ``key * phi``, sends the sums ``ka + kb``
that ``fma`` inserts in slot order of ``a`` into nearly sorted slots, one
long probe run.  With keys spread at random, each insert of ``fma`` waits on
a cache miss, so the loop prefetches the home slot of the sum 16 inserts
ahead (running on into the next key of ``a``).  That cut the traced
``fma`` time per term pair of rank-5 ``expand`` by about a quarter (28-40
ns before, 22-31 ns after, three runs each on a shared 2-vCPU VM); a table
that grows meanwhile only wastes that prefetch.

The C file is compiled with the system C compiler on first import, into
``$XDG_CACHE_HOME/shidcone`` (default ``~/.cache/shidcone``) under a name
keyed by a checksum of the source and the flags, and loaded from there
afterwards.  A build keeps the newest few builds in the cache and removes
older ones, so checkouts of different versions sharing the cache do not
rebuild on every switch; a build removed by another version between the
check and the load is built again.  When no compiler is found or the
build or load fails, the module warns once and ``get_impl()`` returns
``DictPoly``.

Determinants are computed by minor expansion over column subsets
(Gentleman-Johnson dynamic programming): every intermediate is an honest
k x k minor, and each multiplication pairs a minor with an *original*
matrix entry, which measured orders of magnitude faster on these sparse
matrices than fraction-free elimination whose exact divisions pair two
large intermediates.  The last row multiplies the largest minors, so the
work depends on the row order the caller picks; each minor is freed after
its last use.
"""

from __future__ import annotations

import ctypes
import os
import warnings
from array import array
from ctypes import POINTER, c_int, c_int64, c_uint8, c_uint64, c_void_p
from itertools import combinations
from typing import Protocol, Sequence

from .exactpoly import (
    FIELD_BITS,
    Poly,
    _field_peaks,
    _reduced,
    check_field_room,
    clear_denominators,
    fma_terms,
    split_by_field,
)


class IntPolyLike(Protocol):
    @staticmethod
    def from_dict(d: dict) -> "IntPolyLike": ...
    def to_dict(self) -> dict: ...
    def take_dict(self) -> dict: ...
    def field_peaks(self) -> dict[int, int]: ...
    def nnz(self) -> int: ...
    def is_zero(self) -> bool: ...
    def fma(self, a, b, sign: int, *, field: int | None = None) -> None: ...
    def lead(self) -> tuple[int, int] | None: ...


class DictPoly:
    """Pure-Python reference implementation of the kernel polynomial.

    Stores no zero coefficient: ``from_dict`` drops zeros and ``fma``
    deletes every sum that cancels, so the dict itself is the term map.
    The last split of the dict by an exponent field is kept for the next
    field-paired ``fma`` by the same field, and dropped when the dict
    changes.
    """

    __slots__ = ("d", "_split")

    def __init__(self, d: dict[int, int] | None = None):
        self.d = {} if d is None else d
        self._split: tuple[int, dict[int, dict]] | None = None

    @staticmethod
    def from_dict(d: dict) -> "DictPoly":
        return DictPoly({k: v for k, v in d.items() if v})

    def to_dict(self) -> dict:
        return dict(self.d)

    def take_dict(self) -> dict:
        d, self.d = self.d, {}
        self._split = None
        return d

    def field_peaks(self) -> dict[int, int]:
        return _field_peaks(self.d)

    def nnz(self) -> int:
        return len(self.d)

    def is_zero(self) -> bool:
        return not self.d

    def fma(self, a: "DictPoly", b: "DictPoly", sign: int, *, field: int | None = None) -> None:
        """``IntPoly.fma``: with a field, one ``fma_terms`` per exponent
        that a and b share in it, on their split parts."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if a is self or b is self:
            raise ValueError("fma operands must not alias the accumulator")
        self._split = None
        if field is None:
            fma_terms(self.d, a.d, b.d, sign)
            return
        if field < 0 or field % FIELD_BITS:
            raise ValueError(f"field must be a nonnegative multiple of {FIELD_BITS}")
        a_parts = a._parts(field)
        for e, part in b._parts(field).items():
            if e in a_parts:
                fma_terms(self.d, a_parts[e], part, sign)

    def _parts(self, field: int) -> dict[int, dict]:
        """``split_by_field(self.d, field)``, kept until the dict changes or
        another field is asked for."""
        if self._split is None or self._split[0] != field:
            self._split = None  # freed before the new split is built
            self._split = field, split_by_field(self.d, field)
        return self._split[1]

    def lead(self) -> tuple[int, int] | None:
        key = max(self.d, default=None)
        return None if key is None else (key, self.d[key])


# -- compiled kernel -----------------------------------------------------------

KEY_LIMIT = 1 << 56  # packed keys must stay below this
# the bit offset of each exponent field a key below KEY_LIMIT has; sdc_fma
# reads every key's exponent at _NO_FIELD as 0, so that offset pairs every term
_FIELDS = range(0, KEY_LIMIT.bit_length() - 1, FIELD_BITS)
_NO_FIELD = len(_FIELDS) * FIELD_BITS
_VALUE_LIMIT = 1 << 127  # values lie in [-_VALUE_LIMIT, _VALUE_LIMIT)
_MASK64 = (1 << 64) - 1

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_detkernel.c")
_CFLAGS = ("-O3", "-shared", "-fPIC")
_COMPILERS = ("cc", "gcc", "clang")
# builds kept in the cache, the newest by modification time
_KEPT_BUILDS = 4

_P64 = POINTER(c_int64)
_SIGNATURES = {
    "sdc_new": (c_void_p, [c_int64]),
    "sdc_free": (None, [c_void_p]),
    # the arrays of sdc_load are passed as the addresses of array.array buffers
    "sdc_load": (c_int, [c_void_p, c_int64, c_void_p, c_void_p, c_void_p]),
    "sdc_nnz": (c_int64, [c_void_p]),
    "sdc_dump": (c_int, [c_void_p, _P64, POINTER(c_uint64), _P64]),
    "sdc_fma": (c_int, [c_void_p, c_void_p, c_void_p, c_int, c_int]),
    "sdc_lead": (c_int64, [c_void_p, POINTER(c_uint64), _P64]),
    "sdc_peaks": (None, [c_void_p, POINTER(c_uint8)]),
}


class _BuildError(RuntimeError):
    """The kernel source could not be compiled."""


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "shidcone")


def _find_compiler() -> str | None:
    """Path of the first C compiler on PATH, or None."""
    import shutil

    for name in _COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _build(target: str) -> None:
    """Compile the kernel source to ``target``, which appears atomically."""
    import subprocess
    import tempfile

    cc = _find_compiler()
    if cc is None:
        raise _BuildError(f"no C compiler found (looked for {', '.join(_COMPILERS)})")
    directory = os.path.dirname(target)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, _SOURCE], capture_output=True, text=True, timeout=300
        )
        if proc.returncode != 0:
            raise _BuildError(f"{cc} exited {proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, target)
    except subprocess.SubprocessError as exc:
        raise _BuildError(f"{cc} did not finish: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # keep the newest builds only: other checkouts or installed versions that
    # share the cache keep theirs, and old ones do not pile up
    others = [
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.startswith("detkernel-") and name.endswith(".so")
        and name != os.path.basename(target)
    ]
    others.sort(key=_mtime, reverse=True)
    for stale in others[_KEPT_BUILDS - 1 :]:
        try:
            os.unlink(stale)
        except OSError:
            pass


def _mtime(path: str) -> float:
    """Modification time of ``path``; 0 if it has vanished meanwhile."""
    try:
        return os.path.getmtime(path)
    except OSError:
        return 0.0


def _open_kernel() -> ctypes.CDLL:
    """Load the compiled kernel from the cache, building it first if absent."""
    import zlib

    with open(_SOURCE, "rb") as f:
        source = f.read()
    tag = zlib.crc32(" ".join(_CFLAGS).encode() + b"\0" + source)
    path = os.path.join(_cache_dir(), f"detkernel-{tag:08x}.so")
    if not os.path.exists(path):
        _build(path)
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        if os.path.exists(path):
            raise
        # evicted by another version's build after the check above
        _build(path)
        lib = ctypes.CDLL(path)
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


def _load() -> tuple[ctypes.CDLL | None, str | None]:
    """The compiled kernel and None, or None and why it is unavailable
    (also issued as a RuntimeWarning)."""
    try:
        return _open_kernel(), None
    except (OSError, _BuildError) as exc:
        reason = f"compiled kernel {_SOURCE} is not available: {exc}"
        warnings.warn(f"{reason}; using the pure-Python DictPoly", RuntimeWarning, stacklevel=2)
        return None, reason


def _check_value(v: int) -> None:
    if not -_VALUE_LIMIT <= v < _VALUE_LIMIT:
        raise OverflowError("coefficient outside the kernel's range [-2**127, 2**127)")


def _check(rc: int) -> None:
    """Raise the C function's failure code as an exception."""
    if rc == -1:
        raise MemoryError("IntPoly growth failed")
    if rc == -2:
        raise OverflowError("value left the kernel's range [-2**127, 2**127)")


class IntPoly:
    """Packed-key integer polynomial backed by the C hash table of
    ``_detkernel.c``.  Values lie in [-2^127, 2^127): loading one outside
    that range, or an ``fma`` whose arithmetic would leave it, raises
    OverflowError; nothing wraps."""

    __slots__ = ("_t",)

    def __init__(self, capacity_hint: int = 8):
        self._t = _lib.sdc_new(capacity_hint)
        if not self._t:
            raise MemoryError("IntPoly allocation failed")

    def __del__(self):
        if self._t:
            _lib.sdc_free(self._t)

    def __reduce__(self):
        # copies and pickles get their own table, never a shared pointer
        return IntPoly.from_dict, (self.to_dict(),)

    @staticmethod
    def from_dict(d: dict) -> "IntPoly":
        n = len(d)
        p = IntPoly(n + 1)
        if n:
            if min(d) < 0 or max(d) >= KEY_LIMIT:
                raise ValueError("packed key out of kernel range")
            vals = list(d.values())
            _check_value(max(vals))
            _check_value(min(vals))
            # array.array fills its buffer at C speed, which ctypes then reads
            keys = array("q", d)
            lo = array("Q", [v & _MASK64 for v in vals])
            hi = array("q", [v >> 64 for v in vals])
            _check(_lib.sdc_load(p._t, n, *(a.buffer_info()[0] for a in (keys, lo, hi))))
        return p

    def _dump(self) -> zip:
        """(key, low word, high word of the value) of each nonzero term,
        largest key first, read through memoryviews of arrays the table is
        dumped to (slices would copy each array to a list)."""
        n = _lib.sdc_nnz(self._t)
        arrays = (c_int64 * n)(), (c_uint64 * n)(), (c_int64 * n)()
        _check(_lib.sdc_dump(self._t, *arrays))
        return zip(*(memoryview(a).cast("B").cast(f) for a, f in zip(arrays, "qQq")))

    def to_dict(self) -> dict:
        """The nonzero terms, largest key first."""
        return {k: (h << 64) + v for k, v, h in self._dump()}

    def take_dict(self) -> dict:
        """``to_dict``, leaving self zero: the table is freed before the
        dict is built, so the two are never held together."""
        terms = self._dump()
        empty = _lib.sdc_new(0)
        if not empty:
            raise MemoryError("IntPoly allocation failed")
        _lib.sdc_free(self._t)
        self._t = empty
        return {k: (h << 64) + v for k, v, h in terms}

    def field_peaks(self) -> dict[int, int]:
        """``exactpoly._field_peaks`` of the keys, read in one pass of the
        table."""
        peaks = (c_uint8 * 8)()
        _lib.sdc_peaks(self._t, peaks)
        return {8 * f: e for f, e in enumerate(peaks) if e}

    def nnz(self) -> int:
        return _lib.sdc_nnz(self._t)

    def is_zero(self) -> bool:
        return _lib.sdc_nnz(self._t) == 0

    def fma(self, a: "IntPoly", b: "IntPoly", sign: int, *, field: int | None = None) -> None:
        """self += sign * a * b   (sign must be +1 or -1).

        With ``field``, the bit offset of an exponent field, only the term
        pairs whose exponents in that field agree are multiplied, and the
        field is cleared in their sum: one call pairs each power x_s^e of
        a's terms with the terms of b that hold x_s^e, and leaves x_s out.

        Raises OverflowError if a product or a sum would leave the value
        range; self then holds a partial sum and must be discarded."""
        if sign != 1 and sign != -1:
            raise ValueError("sign must be +1 or -1")
        if a is self or b is self:
            raise ValueError("fma operands must not alias the accumulator")
        if field is None:
            field = _NO_FIELD
        elif field not in _FIELDS:
            raise ValueError(f"field must be one of {list(_FIELDS)}")
        _check(_lib.sdc_fma(self._t, a._t, b._t, sign, field))

    def lead(self) -> tuple[int, int] | None:
        """(largest key with a nonzero value, that value); None if zero."""
        lo, hi = c_uint64(), c_int64()
        key = _lib.sdc_lead(self._t, ctypes.byref(lo), ctypes.byref(hi))
        return None if key < 0 else (key, (hi.value << 64) + lo.value)


_lib, _UNAVAILABLE = _load()
HAS_FAST_KERNEL = _lib is not None


def get_impl(fast: bool | None = None):
    """Return the kernel polynomial class.

    fast=None picks the compiled kernel when available; fast=True requires
    it; fast=False forces the pure-Python implementation.
    """
    if fast is None:
        return IntPoly if HAS_FAST_KERNEL else DictPoly
    if fast:
        if not HAS_FAST_KERNEL:
            raise RuntimeError(_UNAVAILABLE)
        return IntPoly
    return DictPoly


# -- conversions -------------------------------------------------------------


def poly_to_int_dict(f: Poly) -> tuple[dict[int, int], int]:
    """(integer term dict, den) with f = terms/den: a copy of f's stored
    coefficients and its denominator."""
    return dict(f._terms), f._den


def clear_columns(columns: Sequence[Sequence[Poly]], impl) -> tuple[list[list], int]:
    """Kernel rows of the matrix with the given ``Poly`` columns, and the
    product of the column denominators.

    Each column is cleared to integers under its own common denominator, so
    the determinant of the returned rows is that product times the
    determinant of the ``Poly`` matrix.
    """
    cols, den = [], 1
    for column in columns:
        terms, d = clear_denominators(column)
        cols.append([impl.from_dict(t) for t in terms])
        den *= d
    return [list(row) for row in zip(*cols)], den


def int_dict_to_poly(d: dict[int, int], den: int, nvars: int) -> Poly:
    """Inverse of poly_to_int_dict (den may be any nonzero integer; d holds
    no zero value, as no backend's ``to_dict`` does): reduced once, with no
    per-term fraction, and d kept as the terms when already reduced."""
    return _reduced(nvars, d, den)


# -- determinant by minor expansion ------------------------------------------


def det_minor_expansion(rows: Sequence[Sequence[IntPolyLike]], impl) -> tuple:
    """(det, cofactor) of a square matrix of n >= 1 rows of kernel
    polynomials: cofactor is the minor of rows 0..n-2 over columns 1..n-1
    (1 at n = 1), the cofactor of entry [n-1][0] up to the sign (-1)^(n-1).

    Dynamic programming over column subsets: after processing r rows the
    table holds the minor of rows 0..r-1 for every r-subset of columns, so
    it holds the cofactor before the last row.  Laplace expansion along the
    last added row gives the recurrence, with sign (-1)^(r + position).
    Deterministic and division-free.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
    # every product of one entry per row must keep each exponent in its field
    check_field_room(_field_peaks(k for entry in row for k in entry.to_dict()) for row in rows)
    minors = {(): impl.from_dict({0: 1})}
    for r in range(n):
        if r == n - 1:
            # held here, since the last step frees it
            cofactor = minors[tuple(range(1, n))]
        # each r-subset's minor is a sub-minor of the n - r subsets one
        # larger, and is freed after the last of them, not with its level
        uses = dict.fromkeys(minors, n - r)
        nxt = {}
        for subset in combinations(range(n), r + 1):
            acc = impl.from_dict({})
            for pos, col in enumerate(subset):
                key = subset[:pos] + subset[pos + 1 :]
                uses[key] -= 1
                sub = minors.pop(key) if uses[key] == 0 else minors[key]
                entry = rows[r][col]
                if sub.is_zero() or entry.is_zero():
                    continue
                acc.fma(sub, entry, 1 if (r + pos) % 2 == 0 else -1)
            nxt[subset] = acc
        minors = nxt
    return minors[tuple(range(n))], cofactor


def int_product(factors: Sequence[dict[int, int] | IntPolyLike], impl) -> IntPolyLike:
    """Product of integer term dicts or kernel polynomials of ``impl``
    (empty product = 1); a single factor is returned as it is.

    Raises ExponentOverflowError unless every exponent of the product fits
    its packed field.
    """
    check_field_room(_field_peaks(f) if isinstance(f, dict) else f.field_peaks() for f in factors)
    polys = [impl.from_dict(f) if isinstance(f, dict) else f for f in factors]
    acc, *rest = polys or [impl.from_dict({0: 1})]
    for p in rest:
        nxt = impl.from_dict({})
        nxt.fma(acc, p, 1)
        acc = nxt
    return acc
