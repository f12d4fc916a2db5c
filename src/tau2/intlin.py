"""Exact integer linear algebra: Hermite normal form, invariant factors, kernels, lattices.

Everything here is exact: entries are Python ints, transforms are unimodular,
and no floating point is ever involved.  Rank, kernel, membership and span
queries for the rest of the package all flow through the Hermite form.

Conventions (these make normal forms canonical, so lattices can be compared
by equality of representations):

* HNF is row-style: pivots positive, entries above a pivot reduced into
  [0, pivot), zero rows at the bottom, pivot columns strictly increasing.
* Invariant factors (the Smith diagonal) are nonnegative and form a
  divisibility chain.
* A ``LatticeBasis`` always stores the HNF of its generators, so two values
  describing the same lattice are structurally equal.

``_hnf_inplace`` is the one reduction loop and the package's hot inner loop;
``_snf_inplace`` drives it to the invariant factors, with no transform.
It stops after the first Hermite pass when that pass puts a pivot in every
column and the pivots are pairwise coprime: the quotient is then cyclic
(each prime divides one factor of a filtration by the Z/pivot, so every
Sylow subgroup is cyclic), and the invariant factors are 1, ..., 1 and the
product of the pivots.
The loop mutates list-of-list matrices in place and keeps every entry a
Python int: intermediate swell during reduction can exceed 64 bits even
for small inputs, so no fixed-width arithmetic is used anywhere.  A
transform is tracked by augmenting each row with its transform row,
[A | I] -> [H | U] (Cohen, A Course in Computational Algebraic Number
Theory, 2.4).  The loop looks for pivots only in A's columns, and each of
its four row operations (elimination, 2x2 gcd step, sign flip, reduction
above the pivot) is one loop over the row from the pivot column on.

``rank`` and ``kernel_basis`` first try a full-rank certificate modulo the
prime P = 1073741789 (``_rank_mod_p``).  Every minor that is nonzero modulo
P is nonzero over the integers, so rank mod P <= rank over Q <=
min(rows, cols).  When the rank mod P reaches min(rows, cols) the rank is
therefore exact, and a matrix with at least as many rows as columns has
the zero kernel; no Hermite reduction runs and no transform can swell.
Each has one rule: ``rank`` tries the certificate on the first
3 * min(rows, cols) rows and then reduces the matrix as given, and
``kernel_basis`` tries it on every matrix with at least as many rows as
columns.
When it misses, ``kernel_basis`` takes two steps.  It Hermite-reduces the
matrix's rows with no transform, which gives the exact rank r, and then
reduces the transpose of those r rows with a tracked transform, whose rows
from r on span the kernel.  This is exact: the Hermite rows are a
unimodular image of the rows, so they span the same row lattice and the
same rational row space, and have the same integer kernel.  On dense
inputs the transform's entries then grow far less than when the matrix's
own transpose is reduced (README gives the measured sizes).
The certificate's elimination takes no inverse modulo P: its basis rows
are residues with any nonzero leading entry, and a row is cleared by
cross-multiplying with the basis row's pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index
from typing import Iterable, Sequence

from .errors import DimensionMismatchError


Vec = tuple[int, ...]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[Vec, ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rws = tuple(tuple(map(index, r)) for r in rows)
        if rws:
            width = len(rws[0])
            if any(len(r) != width for r in rws):
                raise DimensionMismatchError("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatchError(f"expected {cols} columns, got {width}")
            cols = width
        elif cols is None:
            cols = 0
        return cls(len(rws), cols, rws)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def tolists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def transpose(self) -> "IntMatrix":
        if not self.rows:  # zip() of no rows would give no columns at all
            return IntMatrix.zero(self.cols, 0)
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        ot = other.transpose().entries
        return IntMatrix(
            self.rows,
            other.cols,
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ot) for row in self.entries
            ),
        )

    def mul_vec(self, v: Sequence[int]) -> Vec:
        if len(v) != self.cols:
            raise DimensionMismatchError(f"vector length {len(v)} vs {self.cols} columns")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            return self.mul(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in r) for r in self.entries)


# The largest prime below 2**30.
_P = 1073741789


def _rank_mod_p(entries: Sequence[Sequence[int]], stop: int) -> int:
    """Rank modulo ``_P`` of the matrix with rows ``entries``, up to ``stop``.

    Rows go one at a time into an echelon basis of residue rows, each
    zero at the pivots of the rows stored before it; the scan stops as soon
    as the rank reaches min(rows, ``stop``).  ``stop`` is the rank at which
    the scan stops: the column count for a plain rank, or less when
    columns are known to be zero.  A basis row b with pivot c clears
    column c of an incoming row v by v <- (b_c*v - v_c*b) mod ``_P``: b_c is
    a nonzero residue, so scaling v by it keeps the row space modulo ``_P``,
    and no inverse is taken.  A reduced row already holds residues and is
    stored as it is; a row that no basis row reduces still holds its raw
    integers, so only it is taken modulo ``_P`` when stored.
    """
    full = min(len(entries), stop)
    basis = []
    for v in entries:
        if len(basis) == full:
            break
        raw = True
        for c, b in basis:
            f = v[c] % _P
            if f:
                bc = b[c]
                v = [(bc * x - f * y) % _P for x, y in zip(v, b)]
                raw = False
        for c, x in enumerate(v):
            if x % _P:
                basis.append((c, [y % _P for y in v] if raw else v))
                break
    return len(basis)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf_inplace(a: list[list[int]], cols: int) -> list[int]:
    """Reduce the first ``cols`` columns of ``a`` to row-style Hermite form in place.

    Pivots are searched only in the first ``cols`` entries of each row; any
    entries after them ride along with every row operation.  A row that
    carries an identity row there, ``[A | I]``, comes out as ``[H | U]`` with
    ``U * A == H`` and ``U`` unimodular.  Returns the pivot column indices
    (their count is the rank).

    Each row operation is one loop over ``range(c, len(row))`` from the
    pivot column ``c`` on: every row at or below the pivot row is zero left
    of ``c``, so nothing there changes.
    """
    rows = len(a)
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        # Bring a nonzero entry into the pivot row.
        piv = -1
        for i in range(r, rows):
            if a[i][c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        ar = a[r]
        span = range(c, len(ar))
        # Clear the column below the pivot.  Entries the pivot divides are
        # removed by plain elimination (leaves the pivot row untouched);
        # anything else goes through a 2x2 unimodular transform, which
        # strictly shrinks the pivot to a proper divisor.
        for i in range(r + 1, rows):
            ai = a[i]
            q = ai[c]
            if q == 0:
                continue
            p = ar[c]
            if q % p == 0:
                f = q // p
                for k in span:
                    ai[k] -= f * ar[k]
                continue
            g, s, t = _xgcd(p, q)
            x = p // g
            y = q // g
            for k in span:
                ark = ar[k]
                aik = ai[k]
                ar[k] = s * ark + t * aik
                ai[k] = x * aik - y * ark
        if ar[c] < 0:
            for k in span:
                ar[k] = -ar[k]
        # Reduce the entries above the pivot into [0, pivot).
        p = ar[c]
        for i in range(r):
            ai = a[i]
            q = ai[c] // p
            if q == 0:
                continue
            for k in span:
                ai[k] -= q * ar[k]
        pivots.append(c)
        r += 1
    return pivots


def _snf_inplace(a: list[list[int]], cols: int) -> Vec:
    """Return the invariant factors of the ``len(a)`` x ``cols`` matrix ``a``.

    They are the min(rows, cols) Smith diagonal: nonnegative, in a
    divisibility chain d1 | d2 | ..., positive up to the rank, then zeros.
    Hermite passes over ``a`` (in place) and then over each transpose
    alternate until the matrix is diagonal (Kannan & Bachem, 1979).  No
    transform is kept: pivots and row operations read only the matrix.
    Each pass keeps only its r pivot rows, so the next runs on the transpose
    of r rows; the diagonal ends with min(rows, cols) - r zeros.  Each
    pair (di, dj) of the positive diagonal with di not dividing dj becomes
    (gcd, lcm), which keeps the quotient group: Z/di x Z/dj is isomorphic
    to Z/gcd x Z/lcm.

    One case stops after the first pass: every column holds a pivot
    (r = cols > 0) and the pivots d1, ..., dr are pairwise coprime.  Then
    the answer is (1, ..., 1, d1*...*dr).  This is exact: Z^r modulo the
    triangle has a filtration whose factors are the Z/di, so each prime
    divides the order of one factor only, every Sylow subgroup is cyclic,
    and the quotient is cyclic of order d1*...*dr.
    """
    full = min(len(a), cols)
    b, width = a, cols
    r = len(_hnf_inplace(b, width))
    if r == width > 0:
        # Every column holds a pivot: the quotient is cyclic when they are
        # pairwise coprime, each one coprime to the product before it.
        prod = 1
        for i in range(r):
            d = b[i][i]
            if gcd(prod, d) != 1:
                break
            prod *= d
        else:
            return (*(1,) * (r - 1), prod)
    while True:
        del b[r:]
        if all(row[i] and not any(row[i + 1 :]) for i, row in enumerate(b)):
            break
        b, width = [list(col) for col in zip(*b)], r
        r = len(_hnf_inplace(b, width))
    d = [row[i] for i, row in enumerate(b)]
    for i in range(r):
        for j in range(i + 1, r):
            if d[j] % d[i]:
                g = gcd(d[i], d[j])
                d[i], d[j] = g, d[i] * d[j] // g
    return (*d, *(0,) * (full - r))


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form: returns (h, u) with u*m == h, u unimodular."""
    n, cols = m.rows, m.cols
    zeros = (0,) * n
    a = [[*row, *zeros] for row in m.entries]  # [A | I]
    for i, row in enumerate(a):
        row[cols + i] = 1
    _hnf_inplace(a, cols)
    h = tuple(tuple(row[:cols]) for row in a)
    u = tuple(tuple(row[cols:]) for row in a)
    return IntMatrix(n, cols, h), IntMatrix(n, n, u)


def snf(m: IntMatrix) -> Vec:
    """Invariant factors of an integer matrix: its min(rows, cols) Smith diagonal."""
    return _snf_inplace(m.tolists(), m.cols)


def rank(m: IntMatrix) -> int:
    """Rank over the integers (equivalently over the rationals).

    One rule: a full rank modulo ``_P`` of the first 3 * min(rows, cols)
    rows is returned at once (see the module docstring); otherwise the rows
    are Hermite-reduced as given, with no row transform kept.  The bound
    keeps the scan from reading every row of a tall matrix whose rank
    falls short, where it would cost more than the reduction after it.
    """
    full = min(m.rows, m.cols)
    if _rank_mod_p(m.entries[: 3 * full], m.cols) == full:
        return full
    return len(_hnf_inplace(m.tolists(), m.cols))


@dataclass(frozen=True)
class LatticeBasis:
    """Sublattice of Z^ambient given by its canonical (HNF) basis rows.

    Construct through :meth:`from_vectors`: the stored rows are the nonzero
    rows of the HNF of the generators, which are linearly independent and
    uniquely determined by the lattice.  Structural equality therefore *is*
    lattice equality.
    """

    ambient: int
    vectors: tuple[Vec, ...]

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable[Sequence[int]]) -> "LatticeBasis":
        a = [list(map(index, v)) for v in vectors]
        for v in a:
            if len(v) != ambient:
                raise DimensionMismatchError(f"vector length {len(v)} vs ambient {ambient}")
        r = len(_hnf_inplace(a, ambient))
        return cls(ambient, tuple(map(tuple, a[:r])))

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def contains(self, v: Sequence[int]) -> bool:
        return lattice_contains(self, v)


def kernel_basis(m: IntMatrix) -> LatticeBasis:
    """Basis of the integer kernel {v : m*v == 0}.

    Kernels of integer matrices are saturated sublattices, so lattice
    equality against a kernel is an exact test of solution sets.  A matrix
    with at least as many rows as columns first tries the certificate, and
    full column rank modulo ``_P`` gives the zero kernel.  Otherwise two
    Hermite reductions run:

    1. m's rows are reduced with no transform.  Their r pivots give the
       exact rank: r = 0 gives the whole of Z^cols, r = cols the zero
       kernel.
    2. The cols x r transpose of the r Hermite rows is reduced with a
       tracked unimodular transform, and the kernel is the transform rows
       from r on, which match its zero rows.

    This is exact: the Hermite rows are a unimodular image of m's rows, so
    they span the same row lattice, hence the same rational row space, and
    have the same integer kernel, and ``LatticeBasis.from_vectors`` makes
    the result canonical, the same lattice basis as from m's own transpose.
    """
    n = m.cols
    if m.rows >= n and _rank_mod_p(m.entries, n) == n:
        return LatticeBasis(n, ())
    a = m.tolists()
    r = len(_hnf_inplace(a, n))
    if r == 0:
        return LatticeBasis(n, IntMatrix.identity(n).entries)
    if r == n:
        return LatticeBasis(n, ())
    _, u = hnf(IntMatrix(n, r, tuple(zip(*a[:r]))))
    return LatticeBasis.from_vectors(n, u.entries[r:])


def lattice_contains(lattice: LatticeBasis, v: Sequence[int]) -> bool:
    """True when v is an integer combination of the basis vectors."""
    if len(v) != lattice.ambient:
        raise DimensionMismatchError(f"vector length {len(v)} vs ambient {lattice.ambient}")
    rem = list(map(index, v))
    for row in lattice.vectors:
        # Rows are in HNF, so the leading entry is a positive pivot.
        c = 0
        while row[c] == 0:
            c += 1
        q, r = divmod(rem[c], row[c])
        if r != 0:
            return False
        if q != 0:
            for k in range(c, lattice.ambient):
                rem[k] -= q * row[k]
    return all(x == 0 for x in rem)


def lattice_equal(l1: LatticeBasis, l2: LatticeBasis) -> bool:
    """True when the generated lattices coincide."""
    if l1.ambient != l2.ambient:
        raise DimensionMismatchError(f"ambient {l1.ambient} vs {l2.ambient}")
    return l1.vectors == l2.vectors


def in_rational_span(rows: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """True when some nonzero integer multiple of v lies in the row lattice.

    Equivalently, v belongs to the Q-span of the rows; decided by a rank
    comparison, no division needed.
    """
    rows = [tuple(map(index, r)) for r in rows]
    v = tuple(map(index, v))
    for r in rows:
        if len(r) != len(v):
            raise DimensionMismatchError("inconsistent row dimensions")
    base = rank(IntMatrix.from_rows(rows, len(v)))
    ext = rank(IntMatrix.from_rows(rows + [v], len(v)))
    return ext == base
