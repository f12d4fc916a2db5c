"""Presentations of torsion-free 2-step nilpotent groups and exact arithmetic.

A presentation here is the data of n generators a_1..a_n, m central
generators c_1..c_m, and integer exponents lam(t, i, j) for i < j encoding
the relations

    [a_i, a_j] = c_1^lam(1,i,j) * ... * c_m^lam(m,i,j),      [A,C] = [C,C] = 1.

A presentation keeps the flat table of lam(t, i, j) in (t, i<j) order that
its constructor validates; equality and hashing read that table, and the
antisymmetric forms are built from it.

Every element has a unique normal form  a_1^x1 ... a_n^xn c_1^y1 ... c_m^ym,
and we store exactly that coordinate tuple (Malcev coordinates).  Collecting
into normal form with the identity  a_j a_i = a_i a_j [a_i,a_j]^-1  gives
closed laws in the half forms of the presentation, with alpha additive
(alpha(x^k) = k alpha(x)) and the alpha parts of x, y read as x, y:

    H_t(x, y)      = sum_{i<j} lam(t,i,j) x_i y_j
    gamma(xy)      = gamma(x) + gamma(y) - H(y, x)
    gamma(x^k)     = k gamma(x) - C(k,2) H(x, x)
    gamma([x, y])  = H(x, y) - H(y, x)

``_pair_into`` is the one loop that evaluates H, for numeric and symbolic
coordinates alike; ``multiply``, ``power`` and ``commutator`` wrap the three
laws.  The tests check them against a literal letter-by-letter rewriting of
random words (``tests/oracles.py``) before anything else relies on them.

Index convention: the public surface (constructors, accessors, file format)
is 1-based to match the usual generator numbering; tuples are stored 0-based
internally.  This module is the single place where that mapping lives.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import index
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BudgetExceededError, ParseError, PresentationMismatchError, Tau2Error

DEFAULT_SIZE_BUDGET = 10**6  # matrix entries of one shape, see check_size_budget
SHOWN_COUNT_LIMIT = 10**30  # messages name a larger count by this bound, see count_text


def table_slot(n: int, t: int, i: int, j: int) -> int:
    """Position of lam(t, i, j), 1 <= i < j <= n, in the flat (t, i<j) table:
    n(n-1)/2 slots per t, and (i-1)(2n-i)/2 pairs (k, l) with k < i before row i."""
    return (t - 1) * (n * (n - 1) // 2) + (i - 1) * (2 * n - i) // 2 + (j - i - 1)


def bounded_power(base: int, exp: int) -> int | None:
    """base**exp for integers base, exp >= 0, or None when it is above
    SHOWN_COUNT_LIMIT.

    Budgets compare against this, so an input of any size is refused at
    once: a base of 2 or more with an exponent of at least the limit's bit
    length is over it, and otherwise the product stops at its first partial
    power above the limit.
    """
    if base <= 1 or exp == 0:
        return base**exp
    if exp >= SHOWN_COUNT_LIMIT.bit_length():
        return None
    total = 1
    for _ in range(exp):
        total *= base
        if total > SHOWN_COUNT_LIMIT:
            return None
    return total


def count_text(count: int | None) -> str:
    """A count for a message: exact up to SHOWN_COUNT_LIMIT, else that bound.

    Python refuses to print an integer of more than 4,300 digits, and a
    budget message must never fail on the count it reports.
    """
    if count is None or abs(count) > SHOWN_COUNT_LIMIT:
        return "more than 10**30"
    return str(count)


def check_budget(count: int | None, budget: int, what: str) -> int:
    """``count`` when it is at most ``budget``; else, a None from
    ``bounded_power`` included, the one budget refusal of the package:
    ``BudgetExceededError`` reading ``what`` with ``count_text(count)`` in
    its ``{}``, then ", budget is <budget>"."""
    if count is None or count > budget:
        raise BudgetExceededError(f"{what.format(count_text(count))}, budget is {budget}")
    return count


def check_size_budget(what: str, n: int, m: int):
    """Refuse a shape whose (m+n)*n*n matrix entries, the m forms plus the
    n x n transforms of the n generator centralizers, exceed DEFAULT_SIZE_BUDGET."""
    entries = (m + n) * n * n if max(n, m) <= DEFAULT_SIZE_BUDGET else None
    shape = f"{what} with n={count_text(n)}, m={count_text(m)}"
    check_budget(entries, DEFAULT_SIZE_BUDGET, shape + " needs {} matrix entries")


class Tau2Presentation:
    """Presentation data: generator counts n, m and the exponent table.

    ``Tau2Presentation(n, m, flat)`` is the one construction path: ``flat``
    lists one integer lam(t, i, j) per 1 <= t <= m and 1 <= i < j <= n, in
    (t, i<j) lexicographic order (``table_slot`` gives the position).  The
    counts n, m, each exponent, element coordinate and power must be
    integers in the ``operator.index`` sense; floats and strings raise
    ``TypeError``.  ``table`` is the validated flat tuple that equality and
    hashing read; row t-1 of the m x n(n-1)/2 exponent matrix is its slice
    of n(n-1)/2 slots from (t-1)*n(n-1)/2 on.
    The accessor :meth:`lam` extends the table antisymmetrically:
    lam(t,i,i) == 0 and lam(t,j,i) == -lam(t,i,j).  Degenerate shapes
    (n <= 1 or m == 0) are accepted and describe free abelian groups.

    ``forms`` holds that extension, built from ``table`` at construction:
    m antisymmetric n x n tuples with ``forms[t-1][i-1][j-1] == lam(t, i, j)``.
    The ``_facts`` slot holds ``tau2.structure``'s record of the
    structural facts of the presentation (center, derived rank,
    c-smallness of the generators), built on first use, so a presentation
    must never be mutated after construction.
    """

    __slots__ = ("n", "m", "table", "forms", "_facts")

    def __init__(self, n: int, m: int, flat: Iterable[int]):
        n, m = index(n), index(m)
        if n < 0 or m < 0:
            raise ValueError(f"generator counts must be nonnegative, got n={n}, m={m}")
        per_t = n * (n - 1) // 2
        table = tuple(map(index, flat))
        if len(table) != m * per_t:
            raise ValueError(f"exponent table needs {m * per_t} entries for n={n}, m={m}, got {len(table)}")
        self.n = n
        self.m = m
        self.table = table
        forms = []
        values = iter(table)
        for _ in range(m):
            form = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = next(values)
                    form[i][j] = v
                    form[j][i] = -v
            forms.append(tuple(map(tuple, form)))
        self.forms = tuple(forms)
        self._facts = None

    @classmethod
    def from_nonzero(cls, n: int, m: int, entries: Mapping[tuple[int, int, int], int] | None = None):
        """Build a presentation from a sparse table keyed (t, i, j) with i < j; omitted entries are 0."""
        flat = [0] * (m * (n * (n - 1) // 2))
        for key, val in (entries or {}).items():
            t, i, j = key
            if not (1 <= t <= m and 1 <= i < j <= n):
                raise ValueError(f"entry {key} outside valid (t, i<j) range")
            flat[table_slot(n, t, i, j)] = val
        return cls(n, m, flat)

    def lam(self, t: int, i: int, j: int) -> int:
        """Exponent of c_t in [a_i, a_j], extended antisymmetrically to all i, j."""
        if not (1 <= t <= self.m and 1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"lam({t}, {i}, {j}) out of range for n={self.n}, m={self.m}")
        return self.forms[t - 1][i - 1][j - 1]

    # -- elements ---------------------------------------------------------

    def element(self, alpha: Sequence[int], gamma: Sequence[int]) -> "MalcevElement":
        return MalcevElement(self, tuple(map(index, alpha)), tuple(map(index, gamma)))

    def identity(self) -> "MalcevElement":
        return self.element((0,) * self.n, (0,) * self.m)

    def generator_a(self, i: int) -> "MalcevElement":
        if not 1 <= i <= self.n:
            raise IndexError(f"a_{i} out of range")
        return MalcevElement(self, tuple(1 if k == i - 1 else 0 for k in range(self.n)), (0,) * self.m)

    def generator_c(self, t: int) -> "MalcevElement":
        if not 1 <= t <= self.m:
            raise IndexError(f"c_{t} out of range")
        return MalcevElement(self, (0,) * self.n, tuple(1 if k == t - 1 else 0 for k in range(self.m)))

    def __eq__(self, other):
        return (
            isinstance(other, Tau2Presentation)
            and self.n == other.n
            and self.m == other.m
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.n, self.m, self.table))

    def __repr__(self):
        nz = len(self.table) - self.table.count(0)
        return f"Tau2Presentation(n={self.n}, m={self.m}, {nz} nonzero exponents)"


@dataclass(frozen=True)
class MalcevElement:
    """Group element in normal-form coordinates (alpha for A, gamma for C)."""

    presentation: Tau2Presentation
    alpha: tuple[int, ...]
    gamma: tuple[int, ...]

    def __post_init__(self):
        if len(self.alpha) != self.presentation.n or len(self.gamma) != self.presentation.m:
            raise ValueError("coordinate lengths do not match the presentation")

    def is_identity(self) -> bool:
        return all(x == 0 for x in self.alpha) and all(x == 0 for x in self.gamma)

    def __mul__(self, other):
        if isinstance(other, MalcevElement):
            return multiply(self, other)
        return NotImplemented

    def __pow__(self, k: int):
        return power(self, k)

    def inverse(self) -> "MalcevElement":
        return inverse(self)


def _require_same(x: MalcevElement, y: MalcevElement):
    if x.presentation is not y.presentation and x.presentation != y.presentation:
        raise PresentationMismatchError("elements belong to different presentations")


# -- the collection law ----------------------------------------------------
#
# ``_pair_into`` is the one loop over the (i < j, t) pairs: every law below
# is a combination of half-form values H_t(x, y).  It works on coordinate
# sequences, not on elements, so numeric elements (int coordinates) and the
# symbolic elements of ``tau2.dioph`` (``Poly`` coordinates) are collected
# by the same code.  Coordinates only need +, * by an int or a coordinate,
# and a truth value that is false exactly for zero.  Product and power skip
# the call when its first vector is zero: most of them in an odot window are
# of central elements, and there the call would be the whole cost.


def _pair_into(p: Tau2Presentation, gamma: list, xa, ya, scale: int):
    """Add scale * H_t(x, y) = scale * sum_{i<j} lam(t,i,j) x_i y_j to
    gamma[t-1] for every t, in place."""
    for i in range(1, p.n + 1):
        xi = xa[i - 1]
        if not xi:
            continue
        for j in range(i + 1, p.n + 1):
            yj = ya[j - 1]
            if not yj:
                continue
            prod = xi * yj
            for t in range(1, p.m + 1):
                lam = p.lam(t, i, j)
                if lam:
                    gamma[t - 1] += scale * lam * prod


def collect_product(p: Tau2Presentation, xa, xg, ya, yg) -> tuple[list, list]:
    """alpha and gamma of xy: gamma(xy) = gamma(x) + gamma(y) - H(y, x)."""
    alpha = [a + b for a, b in zip(xa, ya)]
    gamma = [g + h for g, h in zip(xg, yg)]
    if any(ya):
        _pair_into(p, gamma, ya, xa, -1)
    return alpha, gamma


def collect_power(p: Tau2Presentation, xa, xg, k: int) -> tuple[list, list]:
    """alpha and gamma of x^k for any integer k; k = -1 gives the inverse:
    gamma(x^k) = k*gamma(x) - C(k,2)*H(x, x)."""
    binom = k * (k - 1) // 2
    alpha = [k * a for a in xa]
    gamma = [k * g for g in xg]
    if binom and any(xa):
        _pair_into(p, gamma, xa, xa, -binom)
    return alpha, gamma


def collect_commutator(p: Tau2Presentation, xa, ya, zero) -> list:
    """gamma of [x, y]: H(x, y) - H(y, x), summed onto ``zero`` (``Poly()``
    for symbolic coordinates).  The commutator is central and sees only the
    alpha parts."""
    gamma = [zero] * p.m
    _pair_into(p, gamma, xa, ya, 1)
    _pair_into(p, gamma, ya, xa, -1)
    return gamma


def multiply(x: MalcevElement, y: MalcevElement) -> MalcevElement:
    """Product in normal-form coordinates (closed collection formula)."""
    _require_same(x, y)
    alpha, gamma = collect_product(x.presentation, x.alpha, x.gamma, y.alpha, y.gamma)
    return MalcevElement(x.presentation, tuple(alpha), tuple(gamma))


def inverse(x: MalcevElement) -> MalcevElement:
    """Group inverse: solves multiply(x, result) == identity."""
    alpha, gamma = collect_power(x.presentation, x.alpha, x.gamma, -1)
    return MalcevElement(x.presentation, tuple(alpha), tuple(gamma))


def power(x: MalcevElement, k: int) -> MalcevElement:
    """k-th power, all integer k, by the closed form of ``collect_power``.

    Cross-validated against repeated multiplication in the tests.
    """
    alpha, gamma = collect_power(x.presentation, x.alpha, x.gamma, index(k))
    return MalcevElement(x.presentation, tuple(alpha), tuple(gamma))


def commutator(x: MalcevElement, y: MalcevElement) -> MalcevElement:
    """[x, y] = x^-1 y^-1 x y, via the bilinear closed form of ``collect_commutator``."""
    _require_same(x, y)
    p = x.presentation
    return MalcevElement(p, (0,) * p.n, tuple(collect_commutator(p, x.alpha, y.alpha, 0)))


# -- line-oriented input ------------------------------------------------------


def records(text: str) -> Iterator[tuple[int, str]]:
    """(line number, record) for each line of ``text`` that is not blank once
    its ``#`` comment and surrounding whitespace are removed: the line syntax
    of every input format.  Line numbers are 1-based, so errors can name them."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def int_fields(fields: Iterable[str], message: str, line: int | None = None) -> list[int]:
    """The integer fields of one record, read in one call; a field that is no
    integer raises ``ParseError(message, line)``.  A signed decimal numeral
    longer than Python's ``int(str)`` digit limit raises a ``ParseError``
    that names the limit instead."""
    values = []
    for field in fields:
        try:
            values.append(int(field))
        except ValueError:
            text = field.strip()
            digits = text[1:] if text[:1] in ("+", "-") else text
            if digits.isdecimal():
                limit = sys.get_int_max_str_digits()
                raise ParseError(f"integer of {len(digits)} digits is over the {limit}-digit limit", line) from None
            raise ParseError(message, line) from None
    return values


def int_text(value: int) -> str:
    """``str(value)`` for output, the twin of ``int_fields``: an integer
    over Python's int-to-str digit limit, which ``int_fields`` could not
    read back, is refused through ``check_budget``."""
    try:
        return str(value)
    except ValueError:
        size = abs(value)
        e = int(math.log10(size))  # floor(log10(size)), up to rounding by one
        e += (10 ** (e + 1) <= size) - (10**e > size)
        check_budget(e + 1, sys.get_int_max_str_digits(), "output integer of {} digits is over the digit limit")


def parse_generator(p: Tau2Presentation, name: str, line: int | None = None) -> tuple[str, int] | None:
    """(kind, 1-based index) of a generator name ``aN`` or ``cN``, or None when
    ``name`` has another shape.  An index outside 1..n or 1..m raises
    ``ParseError``."""
    if len(name) < 2 or name[0] not in "ac" or not name[1:].isdecimal():
        return None
    (idx,) = int_fields((name[1:],), "generator index must be an integer", line)
    if not 1 <= idx <= (p.n if name[0] == "a" else p.m):
        raise ParseError(f"generator {name} out of range", line)
    return name[0], idx


# -- structural rank identities -------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    """Computed ranks plus the two identities every presentation satisfies:

    rank(G/Z) + rank(Z) == n + m     and     rank(G') <= m <= rank(Z).

    Both hold by construction: rank(Z) = m + d and rank(G/Z) = n - d for the
    center's d = rank of D, and rank(G') is the rank of a matrix with m
    columns.  So the two flags cannot catch a wrong rank; the tests check
    the ranks against Bareiss ranks instead.
    """

    rank_center: int
    rank_g_mod_center: int
    rank_derived: int
    rank_g_mod_c: int
    span_identity_holds: bool
    sandwich_holds: bool


def invariant_report(p: Tau2Presentation) -> InvariantReport:
    from . import structure  # local import: structure builds on this module

    d_rank = structure.center(p).rank
    rank_center = p.m + d_rank
    rank_g_mod_center = p.n - d_rank
    rank_derived = structure.derived_report(p)[0]
    return InvariantReport(
        rank_center=rank_center,
        rank_g_mod_center=rank_g_mod_center,
        rank_derived=rank_derived,
        rank_g_mod_c=p.n,
        span_identity_holds=rank_g_mod_center + rank_center == p.n + p.m,
        sandwich_holds=rank_derived <= p.m <= rank_center,
    )


# -- presentation file format ----------------------------------------------
#
#   # comment             (the line syntax of ``records``)
#   n = 2
#   m = 1
#   lambda 1 1 2 = 1        (t i j = value; i < j; omitted entries are 0)
#
# Duplicate lambda records are an error; n and m must appear first.


def parse_presentation(text: str) -> Tau2Presentation:
    """Read the file format above.

    Refuses n, m over the size budget (``check_size_budget``) as soon as both
    are set, before any lambda record is stored.
    """
    n = m = None
    sizes: dict[str, int] = {}
    entries: dict[tuple[int, int, int], int] = {}
    for lineno, line in records(text):
        if line.startswith("lambda"):
            if n is None or m is None:
                raise ParseError("lambda record before n and m are set", lineno)
            lhs, eq, rhs = line[len("lambda"):].partition("=")
            if not eq:
                raise ParseError("lambda record needs '= value'", lineno)
            parts = lhs.split()
            if len(parts) != 3:
                raise ParseError("lambda record needs three indices: t i j", lineno)
            t, i, j, val = int_fields((*parts, rhs), "lambda indices and value must be integers", lineno)
            if not (1 <= t <= m):
                raise ParseError(f"t={t} out of range 1..{m}", lineno)
            if not (1 <= i < j <= n):
                raise ParseError(f"need 1 <= i < j <= {n}, got i={i}, j={j}", lineno)
            if (t, i, j) in entries:
                raise ParseError(f"duplicate lambda record for ({t}, {i}, {j})", lineno)
            entries[(t, i, j)] = val
        else:
            key, eq, rhs = line.partition("=")
            key = key.strip()
            if not eq or key not in ("n", "m"):
                raise ParseError(f"unrecognized directive {line!r}", lineno)
            (val,) = int_fields((rhs,), f"{key} must be an integer", lineno)
            if val < 0:
                raise ParseError(f"{key} must be nonnegative", lineno)
            if key in sizes:
                raise ParseError(f"{key} set twice", lineno)
            sizes[key] = val
            if len(sizes) == 2:
                n, m = sizes["n"], sizes["m"]
                check_size_budget("presentation", n, m)
    if n is None or m is None:
        raise ParseError("presentation must set both n and m")
    return Tau2Presentation.from_nonzero(n, m, entries)


def read_input_file(path, what: str) -> str:
    """Text of an input file; unreadable or non-UTF-8 files raise package errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise Tau2Error(f"cannot read {what} file {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} file {path} is not valid UTF-8: {exc}")


def load_presentation(path) -> Tau2Presentation:
    return parse_presentation(read_input_file(path, "presentation"))
