"""Exact integer linear algebra: Hermite/Smith normal forms, kernels, lattices.

Everything here is exact: entries are Python ints, transforms are unimodular,
and no floating point is ever involved.  Rank, kernel, membership and span
queries for the rest of the package all flow through the two normal forms.

Conventions (these make normal forms canonical, so lattices can be compared
by equality of representations):

* HNF is row-style: pivots positive, entries above a pivot reduced into
  [0, pivot), zero rows at the bottom, pivot columns strictly increasing.
* SNF diagonal entries are nonnegative and form a divisibility chain.
* A ``LatticeBasis`` always stores the HNF of its generators, so two values
  describing the same lattice are structurally equal.

``_hnf_inplace`` is the one reduction loop and the package's hot inner loop;
the Smith form is a driver over it (``_snf_inplace``).  The loop mutates
list-of-list matrices in place and keeps every entry a Python int:
intermediate swell during reduction can exceed 64 bits even for small
inputs, so no fixed-width arithmetic is used anywhere.  A transform is
tracked by augmenting each row with its transform row, [A | I] -> [H | U]
(Cohen, A Course in Computational Algebraic Number Theory, 2.4).  The
loop looks for pivots only in A's columns, and each of its four row
operations (elimination, 2x2 gcd step, sign flip, reduction above the
pivot) is one loop over the row from the pivot column on.

``rank`` and ``kernel_basis`` first try a full-rank certificate modulo the
prime P = 1073741789 (``_rank_mod_p``).  Every minor that is nonzero modulo
P is nonzero over the integers, so rank mod P <= rank over Q <=
min(rows, cols).  When the rank mod P reaches min(rows, cols) the rank is
therefore exact, and a matrix with at least as many rows as columns has
the zero kernel; no Hermite reduction runs and no transform can swell.
Below that bound the reduction runs as before.  ``kernel_basis`` skips
the certificate on a matrix with a zero column, whose kernel is never zero.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

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


@dataclass(frozen=True)
class SmithDecomposition:
    """u * m * v == s with s diagonal, nonnegative, in a divisibility chain."""

    s: IntMatrix
    u: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> Vec:
        n = min(self.s.rows, self.s.cols)
        return tuple(self.s.entries[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _identity(n: int) -> list[list[int]]:
    return [[*(0,) * i, 1, *(0,) * (n - 1 - i)] for i in range(n)]


def _freeze(a: list[list[int]], cols: int) -> IntMatrix:
    # Kernel output is already a rectangular list of Python ints.
    return IntMatrix(len(a), cols, tuple(map(tuple, a)))


# The largest prime below 2**30.
_P = 1073741789


def _rank_mod_p(entries: Sequence[Sequence[int]], cols: int) -> int:
    """Rank modulo ``_P`` of the matrix with rows ``entries``.

    Rows go one at a time into an echelon basis whose rows have a unit
    leading entry and zeros at the earlier pivots; the scan stops as soon as
    the rank reaches min(rows, cols).  A row being reduced holds integers
    congruent to its residues, and is taken modulo ``_P`` only where an
    entry is tested or stored.
    """
    full = min(len(entries), cols)
    basis = []
    for v in entries:
        if len(basis) == full:
            break
        for c, b in basis:
            f = v[c] % _P
            if f:
                v = [x - f * y for x, y in zip(v, b)]
        for c, x in enumerate(v):
            if x % _P:
                inv = pow(x, -1, _P)
                basis.append((c, [y * inv % _P for y in v]))
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


def _snf_inplace(a: list[list[int]], cols: int) -> tuple[list[list[int]], list[list[int]]]:
    """Reduce the ``len(a)`` x ``cols`` matrix ``a`` to Smith normal form in place.

    Returns the transforms ``(u, v)`` with ``u * a_original * v == a``.  The
    result is diagonal with nonnegative entries in a divisibility chain
    d1 | d2 | ... .  ``cols`` is passed because a matrix with no rows still
    has a ``cols`` x ``cols`` column transform.

    Hermite passes over ``a`` and its transpose alternate until ``a`` is
    diagonal (Kannan & Bachem, 1979).  Before each pass the rows carry
    their transform, ``u`` for ``a`` and ``v`` transposed for the transpose
    (a column operation on ``a`` is a row operation on the transpose), and
    after it they are split again.  The last pass leaves a positive
    diagonal up to the rank, then zeros.
    """
    rows = len(a)
    u = _identity(rows)
    vt = _identity(cols)
    b, w, width = a, u, cols
    while True:
        aug = [row + t for row, t in zip(b, w)]
        _hnf_inplace(aug, width)
        b = [row[:width] for row in aug]
        w[:] = [row[width:] for row in aug]
        if all(x == 0 for i, row in enumerate(b) for j, x in enumerate(row) if i != j):
            break
        b = [list(col) for col in zip(*b)]
        w, width = (vt, rows) if w is u else (u, cols)
    a[:] = b if w is u else [list(col) for col in zip(*b)]
    # Each pair (di, dj) becomes (gcd, lcm) through U = [[s, t], [-x, y]] on
    # rows and V = [[1, -t*x], [1, s*y]] on columns.  Folding row j into row
    # i and reducing again would not do: the next row pass reduces above the
    # pivot and undoes the fold.
    r = sum(1 for i in range(min(rows, cols)) if a[i][i] != 0)
    for i in range(r):
        for j in range(i + 1, r):
            di, dj = a[i][i], a[j][j]
            if dj % di == 0:
                continue
            g, s, t = _xgcd(di, dj)
            x, y = dj // g, di // g
            a[i][i], a[j][j] = g, di * x
            ui, uj = u[i], u[j]
            for k in range(rows):
                ui[k], uj[k] = s * ui[k] + t * uj[k], y * uj[k] - x * ui[k]
            vi, vj = vt[i], vt[j]
            for k in range(cols):
                vi[k], vj[k] = vi[k] + vj[k], s * y * vj[k] - t * x * vi[k]
    return u, [list(col) for col in zip(*vt)]


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form: returns (h, u) with u*m == h, u unimodular."""
    n, cols = m.rows, m.cols
    a = [[*row, *e] for row, e in zip(m.entries, _identity(n))]  # [A | I]
    _hnf_inplace(a, cols)
    h = tuple(tuple(row[:cols]) for row in a)
    u = tuple(tuple(row[cols:]) for row in a)
    return IntMatrix(n, cols, h), IntMatrix(n, n, u)


def snf(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form decomposition of an integer matrix."""
    a = m.tolists()
    u, v = _snf_inplace(a, m.cols)
    return SmithDecomposition(_freeze(a, m.cols), _freeze(u, m.rows), _freeze(v, m.cols))


def rank(m: IntMatrix) -> int:
    """Rank over the integers (equivalently over the rationals).

    A full rank modulo ``_P`` is returned at once (see the module
    docstring).  Otherwise the side with fewer rows is reduced, as rank is
    invariant under transposition, and no row transform is kept.
    """
    full = min(m.rows, m.cols)
    if _rank_mod_p(m.entries, m.cols) == full:
        return full
    if m.rows <= m.cols:
        return len(_hnf_inplace(m.tolists(), m.cols))
    return len(_hnf_inplace([list(col) for col in zip(*m.entries)], m.rows))


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
        vecs = [tuple(map(index, v)) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise DimensionMismatchError(f"vector length {len(v)} vs ambient {ambient}")
        a = [list(v) for v in vecs]
        r = len(_hnf_inplace(a, ambient))
        return cls(ambient, tuple(map(tuple, a[:r])))

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def contains(self, v: Sequence[int]) -> bool:
        return lattice_contains(self, v)


def kernel_basis(m: IntMatrix) -> LatticeBasis:
    """Basis of the integer kernel {v : m*v == 0}.

    Row-reducing the transpose with a tracked unimodular transform makes the
    kernel appear as the transform rows matching zero rows of the echelon
    form.  Kernels of integer matrices are saturated sublattices, so lattice
    equality against a kernel is an exact test of solution sets.  A matrix
    with full column rank modulo ``_P`` has the zero kernel, so it skips the
    reduction.  A zero column puts its unit vector in the kernel, so such a
    matrix skips the certificate instead.
    """
    if m.rows >= m.cols and all(map(any, zip(*m.entries))) and _rank_mod_p(m.entries, m.cols) == m.cols:
        return LatticeBasis(m.cols, ())
    h, u = hnf(m.transpose())
    r = sum(1 for row in h.entries if any(row))
    return LatticeBasis.from_vectors(m.cols, u.entries[r:])


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
