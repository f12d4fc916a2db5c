"""Centralizers, center, c-smallness, regularity, certificates.

The load-bearing oracle is the brute-force box scan: commuting is checked
letter-for-letter through the group arithmetic and compared against the
kernel-lattice description on an exhaustive box of alpha coordinates.
"""

import itertools
import random

import pytest

from tau2 import structure
from tau2.core import Tau2Presentation, commutator
from tau2.errors import PreconditionError
from tau2.intlin import IntMatrix, LatticeBasis, kernel_basis, lattice_contains, lattice_equal, rank
from tau2.randmodel import TAU2_PROPERTIES, Tau2ModelParams, count_bound_p
from tau2.structure import (
    _generator_csmall,
    _stacked_center_matrix,
    all_commutators_nontrivial,
    all_generators_csmall,
    center,
    centralizer,
    commutation_matrix,
    derived_matrix,
    derived_report,
    is_c_small,
    is_regular,
    scalar_ring_is_Z_certificate,
    structure_report,
)

from conftest import random_element, random_presentation, signed_permutation_orbits
from oracles import (
    derived_matrix_by_pairs,
    enumerate_tau2,
    find_csmall_noncommuting_pair,
    in_derived_isolator,
    is_C_c_small,
)


def scan_centralizer_agrees(p, g, box=3):
    lat = centralizer(g)
    for alpha in itertools.product(range(-box, box + 1), repeat=p.n):
        y = p.element(alpha, (0,) * p.m)
        commutes = commutator(g, y).is_identity()
        assert commutes == lattice_contains(lat, alpha), (p, g, alpha)


class TestCommutationMatrix:
    def test_heisenberg_a1(self, heisenberg):
        assert commutation_matrix(heisenberg.generator_a(1)).entries == ((0, 1),)

    def test_identity_and_central(self, heisenberg):
        assert commutation_matrix(heisenberg.identity()).is_zero()
        assert commutation_matrix(heisenberg.generator_c(1)).is_zero()

    def test_defines_commuting(self):
        rng = random.Random(20)
        for _ in range(100):
            p = random_presentation(rng, rng.randint(1, 3), rng.randint(1, 3), 2)
            g = random_element(rng, p, bound=2)
            mat = commutation_matrix(g)
            for alpha in itertools.product(range(-2, 3), repeat=p.n):
                y = p.element(alpha, (0,) * p.m)
                assert commutator(g, y).is_identity() == all(
                    x == 0 for x in mat.mul_vec(alpha)
                )


def sum_formula_commutation_matrix(g):
    """L(g) entry by entry from ``lam``: row t, column j is
    sum_i alpha_i(g) * lam(t, i, j)."""
    p = g.presentation
    return tuple(
        tuple(
            sum(g.alpha[i - 1] * p.lam(t, i, j) for i in range(1, p.n + 1))
            for j in range(1, p.n + 1)
        )
        for t in range(1, p.m + 1)
    )


class TestCommutationMatrixOracle:
    """Generators take a shortcut (row k of each form); every alpha must
    still give the sum formula."""

    def test_matches_sum_formula(self):
        rng = random.Random(17)
        for _ in range(150):
            n, m = rng.randint(1, 4), rng.randint(0, 3)
            p = random_presentation(rng, n, m, 3)
            k = rng.randrange(n)
            unit = [0] * n
            unit[k] = 1
            alphas = [
                unit,
                [-x for x in unit],
                [2 * x for x in unit],
                [0] * n,
                [rng.randint(-3, 3) for _ in range(n)],
                [rng.randint(-3, 3) for _ in range(n)],
            ]
            for alpha in alphas:
                g = p.element(alpha, [rng.randint(-3, 3) for _ in range(m)])
                mat = commutation_matrix(g)
                assert (mat.rows, mat.cols) == (m, n)
                assert mat.entries == sum_formula_commutation_matrix(g), (p, alpha)


class TestGeneratorMatrix:
    """The commutation matrix of a generator a_k; its column k is zero."""

    def test_heisenberg_columns(self, heisenberg):
        assert commutation_matrix(heisenberg.generator_a(1)).entries == ((0, 1),)
        assert commutation_matrix(heisenberg.generator_a(2)).entries == ((-1, 0),)
        assert rank(commutation_matrix(heisenberg.generator_a(1))) == 1

    def test_zero_table(self):
        p = Tau2Presentation.from_nonzero(3, 2)
        assert commutation_matrix(p.generator_a(2)).is_zero()


class TestCentralizer:
    def test_heisenberg_a1(self, heisenberg):
        assert centralizer(heisenberg.generator_a(1)).vectors == ((1, 0),)

    def test_central_element_full_lattice(self, heisenberg):
        lat = centralizer(heisenberg.generator_c(1))
        assert lat.vectors == ((1, 0), (0, 1))

    def test_abelian_full_lattice(self):
        p = Tau2Presentation.from_nonzero(2, 1)
        assert centralizer(random_element(random.Random(0), p)).rank == 2

    def test_box_scan_exhaustive_small(self):
        # every presentation with n = 2, m in {1, 2} and exponents in {-1,0,1}
        for m in (1, 2):
            for values in itertools.product((-1, 0, 1), repeat=m):
                p = Tau2Presentation(2, m, values)
                for g in [
                    p.generator_a(1),
                    p.generator_a(2),
                    p.element((1, -2), (1,) * m),
                    p.identity(),
                ]:
                    scan_centralizer_agrees(p, g)

    def test_box_scan_random(self):
        rng = random.Random(22)
        for _ in range(50):
            p = random_presentation(rng, 3, 3, 2)
            for g in [p.generator_a(1), random_element(rng, p, bound=3)]:
                scan_centralizer_agrees(p, g)


class TestCenter:
    def test_heisenberg(self, heisenberg):
        c = center(heisenberg)
        assert c.vectors == () and c.rank == 0 and heisenberg.m + c.rank == 1

    def test_abelian(self):
        p = Tau2Presentation.from_nonzero(3, 1)
        c = center(p)
        assert c.rank == 3 and p.m + c.rank == 4

    def test_partial(self):
        p = Tau2Presentation.from_nonzero(3, 1, {(1, 1, 2): 1})
        assert center(p).vectors == ((0, 0, 1),)

    def test_center_elements_commute_with_everything(self):
        rng = random.Random(23)
        for _ in range(50):
            p = random_presentation(rng, rng.randint(2, 3), rng.randint(1, 3), 2)
            d = center(p)
            for v in d.vectors:
                g = p.element(v, (0,) * p.m)
                for alpha in itertools.product(range(-2, 3), repeat=p.n):
                    y = p.element(alpha, (0,) * p.m)
                    assert commutator(g, y).is_identity()


class TestCSmall:
    def test_heisenberg_generators(self, heisenberg):
        for g in (heisenberg.generator_a(1), heisenberg.generator_a(2)):
            assert is_c_small(g)
            assert is_C_c_small(g)

    def test_identity_not_csmall_in_nonabelian(self, heisenberg):
        assert not is_c_small(heisenberg.identity())

    def test_identity_csmall_in_abelian(self):
        p = Tau2Presentation.from_nonzero(2, 1)
        assert is_c_small(p.identity())
        assert not is_C_c_small(p.identity())

    def test_csmall_centralizer_shape(self):
        # certified c-small elements: every commuting y has alpha in
        # Z*alpha(g) + d-lattice, checked on a box scan
        rng = random.Random(24)
        found = 0
        while found < 20:
            p = random_presentation(rng, rng.randint(2, 3), rng.randint(1, 3), 2)
            g = random_element(rng, p, bound=2)
            if not is_c_small(g):
                continue
            found += 1
            d = center(p)
            for alpha in itertools.product(range(-3, 4), repeat=p.n):
                y = p.element(alpha, (0,) * p.m)
                if commutator(g, y).is_identity():
                    from tau2.intlin import LatticeBasis

                    target = LatticeBasis.from_vectors(p.n, (g.alpha,) + d.vectors)
                    assert lattice_contains(target, alpha)


def lattice_C_c_small(g):
    """Oracle for is_C_c_small: the centralizer lattice equals Z*alpha(g)."""
    target = LatticeBasis.from_vectors(g.presentation.n, (g.alpha,))
    return lattice_equal(centralizer(g), target)


class TestCSmallRelativeToC:
    def test_n_zero(self):
        for m in (0, 2):
            assert is_C_c_small(Tau2Presentation.from_nonzero(0, m).identity())

    def test_n_one(self):
        p = Tau2Presentation.from_nonzero(1, 1)
        assert is_C_c_small(p.generator_a(1))
        assert not is_C_c_small(p.element((2,), (0,)))
        assert not is_C_c_small(p.identity())

    def test_heisenberg_alphas(self, heisenberg):
        for alpha, want in (((2, 0), False), ((1, 1), True), ((0, 0), False)):
            assert is_C_c_small(heisenberg.element(alpha, (0,))) == want

    def test_matches_lattice_oracle(self):
        # every alpha in a box over random presentations: the rank rule and
        # the lattice comparison give the same answer, on every generator too
        rng = random.Random(29)
        counts = [0, 0]
        for bound in (1, 2, 3, 20):
            for n in range(6):
                box = 2 if n <= 3 else 1
                for m in range(5):
                    for _ in range(2):
                        p = random_presentation(rng, n, m, bound)
                        for alpha in itertools.product(range(-box, box + 1), repeat=n):
                            g = p.element(alpha, (0,) * m)
                            want = lattice_C_c_small(g)
                            assert is_C_c_small(g) == want, (p, alpha)
                            counts[want] += 1
                        if n >= 2:
                            for k in range(1, n + 1):
                                a_k = p.generator_a(k)
                                assert is_C_c_small(a_k) == lattice_C_c_small(a_k)
        # both answers occur thousands of times
        assert min(counts) > 3000, counts


class TestRankCriterion:
    """is_C_c_small on the generators: rank L(a_k) == n-1."""

    def test_heisenberg(self, heisenberg):
        assert is_C_c_small(heisenberg.generator_a(1))
        assert is_C_c_small(heisenberg.generator_a(2))

    def test_zero_table(self):
        p = Tau2Presentation.from_nonzero(2, 1)
        assert not is_C_c_small(p.generator_a(1))

    def test_low_rank(self):
        p = Tau2Presentation.from_nonzero(3, 1, {(1, 1, 2): 1})
        assert not is_C_c_small(p.generator_a(1))

    def test_criterion_implies_exact(self):
        # sufficient direction: criterion true => exact test true and center
        # has no extra basis vectors; the converse is not asserted
        rng = random.Random(25)
        hits = 0
        for _ in range(400):
            p = random_presentation(rng, rng.randint(2, 3), rng.randint(1, 3), 2)
            for k in range(1, p.n + 1):
                if is_C_c_small(p.generator_a(k)):
                    hits += 1
                    assert is_c_small(p.generator_a(k))
                    assert center(p).rank == 0
        assert hits > 10  # the criterion actually fires on random input

    def test_index_errors(self, heisenberg):
        with pytest.raises(IndexError):
            is_C_c_small(heisenberg.generator_a(3))


class TestGeneratorCertificate:
    """``_generator_csmall``: a rank certificate for a_k, then ``is_c_small``."""

    def test_agrees_with_lattice_test(self):
        # Every generator of every orbit representative of four small spaces
        # and of random draws around m = n - 1: the helper on the presentation
        # and is_c_small on a copy with an empty record give the same answer.
        cases = [(n, m, flat) for n, m, ell in ((2, 1, 1), (3, 2, 1), (3, 3, 1), (3, 2, 2))
                 for flat in signed_permutation_orbits(n, m, ell)]
        rng = random.Random(33)
        for _ in range(3000):
            n = rng.randint(2, 5)
            m = rng.randint(max(n - 2, 0), n + 1)
            ell = rng.choice((1, 2, 3, 100))
            cases.append((n, m, [rng.randint(-ell, ell) for _ in range(m * n * (n - 1) // 2)]))
        tally = {}
        for n, m, flat in cases:
            p = Tau2Presentation(n, m, flat)
            for k in range(1, n + 1):
                want = is_c_small(Tau2Presentation(n, m, flat).generator_a(k))
                assert _generator_csmall(p, k) == want, (n, m, flat, k)
                key = (m >= n - 1, want)
                tally[key] = tally.get(key, 0) + 1
        assert sum(tally.values()) >= 11000
        # both answers occur hundreds of times on the shapes the certificate admits
        assert min(tally[True, True], tally[True, False]) > 500, tally

    def test_certified_generators_skip_the_centralizer(self, monkeypatch):
        reached = []
        real = structure.centralizer
        monkeypatch.setattr(structure, "centralizer", lambda g: reached.append(g.alpha) or real(g))
        # Every L(a_k) minus its zero column k has rank n - 1 = 2.
        table = {(1, 1, 2): 1, (1, 2, 3): 1, (2, 1, 3): 1, (2, 2, 3): 1}
        assert all_generators_csmall(Tau2Presentation.from_nonzero(3, 2, table))
        assert structure_report(Tau2Presentation.from_nonzero(3, 2, table)).csmall_flags == (True,) * 3
        assert reached == []
        # Row 1 of the forms is (0, 1, 1) and (0, 2, 2): a1's reduced matrix
        # has rank 1, so a1, and only a1, takes the lattice path.
        table = {(1, 1, 2): 1, (1, 1, 3): 1, (2, 1, 2): 2, (2, 1, 3): 2, (2, 2, 3): 1}
        p = Tau2Presentation.from_nonzero(3, 2, table)
        assert structure_report(p).csmall_flags[1:] == (True, True)
        assert reached == [(1, 0, 0)]
        # m < n - 1: the certificate cannot reach rank n - 1, so no rank is
        # computed and every generator takes the lattice path.
        reached.clear()
        monkeypatch.setattr(structure, "_rank_mod_p", lambda *args: pytest.fail("rank below m >= n - 1"))
        q = Tau2Presentation.from_nonzero(3, 1, {(1, 1, 2): 1, (1, 1, 3): 1, (1, 2, 3): 1})
        assert all_generators_csmall(q) == all(structure_report(q).csmall_flags)
        assert sorted(reached) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_one_writer_of_the_generator_memo(self, monkeypatch):
        # is_c_small records no generator's c-smallness, not even for a
        # generator a_k: it leaves only the center it reads, and the
        # certificates the center read on its way.
        rng = random.Random(34)
        for _ in range(40):
            p = random_presentation(rng, rng.randint(2, 4), rng.randint(1, 4), 3)
            for k in range(1, p.n + 1):
                is_c_small(p.generator_a(k))
            facts = p._facts
            assert facts.csmall == [None] * p.n
            assert facts.center is not None
            assert facts.derived_rank is None and facts.commutators_nontrivial is None
        # a1's reduced matrix has rank 1, so a1 alone is not certified, and
        # _generator_csmall records the lattice test's answer for it.
        table = {(1, 1, 2): 1, (1, 1, 3): 1, (2, 1, 2): 2, (2, 1, 3): 2, (2, 2, 3): 1}
        p = Tau2Presentation.from_nonzero(3, 2, table)
        assert not all_generators_csmall(p)
        assert p._facts.certificates[0] is False
        assert p._facts.csmall[0] is False
        reached = []
        monkeypatch.setattr(structure, "centralizer", lambda g: reached.append(g.alpha))
        assert not all_generators_csmall(p)
        assert structure_report(p).csmall_flags == (False, True, True)
        assert reached == []

    @pytest.mark.parametrize("n, m, ell", [(3, 2, 2), (3, 3, 1)])
    def test_certified_count_meets_the_main_bound(self, n, m, ell, monkeypatch):
        # With is_c_small answering False, all_generators_csmall is True
        # exactly when the certificate fires for every a_k.  The paper's
        # 'main' count bounds from below the presentations on which every
        # L(a_k) has rank n - 1.  Entries this small keep every minor far
        # below the prime, so there the rank modulo the prime is that rank,
        # and the certificate must fire on at least that many.
        monkeypatch.setattr(structure, "is_c_small", lambda g: False)
        params = Tau2ModelParams(n, m, ell)
        certified = sum(all_generators_csmall(p) for p in enumerate_tau2(params))
        assert certified >= count_bound_p(n, m, ell, "main")[0] > 0


class TestCenterFromCertificate:
    """A certified generator settles the empty center; every route to the
    center must give the kernel of the stacked matrix."""

    def test_matches_the_stacked_kernel(self, monkeypatch):
        # Each presentation is checked fresh and after the seven properties
        # in a shuffled order; "settled" counts those whose center was read
        # off the generators' certificates, with no stacked kernel built.
        # That is exactly the presentations with n >= 2 and some L(a_k)
        # without column k of rank n - 1, counted here by exact rank
        # (entries this small keep every minor below the prime).
        stacked = []
        real = structure._stacked_center_matrix
        monkeypatch.setattr(structure, "_stacked_center_matrix", lambda p: stacked.append(p) or real(p))
        rng = random.Random(35)
        names = list(TAU2_PROPERTIES)
        settled = certified = 0
        for _ in range(1500):
            n = rng.randint(0, 6)
            m = rng.randint(max(n - 2, 0), n + 2) if rng.random() < 0.8 else rng.randint(0, 6)
            ell = rng.choice((1, 2, 5))
            flat = [rng.randint(-ell, ell) for _ in range(m * n * (n - 1) // 2)]
            p = Tau2Presentation(n, m, flat)
            want = kernel_basis(_stacked_center_matrix(p))
            assert center(Tau2Presentation(n, m, flat)) == want
            rng.shuffle(names)
            stacked.clear()
            for name in names:
                TAU2_PROPERTIES[name](p)
            settled += not stacked
            certified += n >= 2 and any(
                rank(IntMatrix(m, n - 1, tuple(form[k][:k] + form[k][k + 1 :] for form in p.forms))) == n - 1
                for k in range(n)
            )
            assert center(p) == want, (n, m, flat, names)
            assert structure_report(Tau2Presentation(n, m, flat)).center_d_basis == want.vectors
        assert settled == certified == 793

    def test_one_generator_keeps_its_center(self):
        # At n = 1 the certificate holds vacuously, with no columns left,
        # but a_1 is central: D = Z*e_1.
        for run in (lambda p: None, all_generators_csmall, structure_report):
            p = Tau2Presentation(1, 2, [])
            run(p)
            assert center(p).vectors == ((1,),)
            assert all_generators_csmall(p)

    def test_csmall_by_lattice_does_not_settle_the_center(self):
        # ker L(a_1) = {alpha_2 = 0} = Z*e_1 + Z*e_3 misses the certificate,
        # and a_1 is c-small only because D = Z*e_3 fills the kernel.
        for run in (lambda p: _generator_csmall(p, 1), all_generators_csmall, structure_report):
            p = Tau2Presentation.from_nonzero(3, 2, {(1, 1, 2): 1, (2, 1, 2): 1})
            run(p)
            assert _generator_csmall(p, 1)
            assert center(p).vectors == ((0, 0, 1),)


class TestDerived:
    def test_heisenberg(self, heisenberg):
        assert derived_matrix(heisenberg).entries == ((1,),)
        assert derived_report(heisenberg) == (1, True, True)

    def test_wide_center(self):
        p = Tau2Presentation.from_nonzero(2, 2, {(1, 1, 2): 1})
        assert derived_report(p) == (1, False, True)

    def test_zero(self):
        p = Tau2Presentation.from_nonzero(3, 2)
        assert derived_report(p)[0] == 0

    def test_row_order_lexicographic(self):
        p = Tau2Presentation.from_nonzero(
            3, 1, {(1, 1, 2): 1, (1, 1, 3): 2, (1, 2, 3): 3}
        )
        assert derived_matrix(p).entries == ((1,), (2,), (3,))

    def test_table_transpose_matches_pairs(self):
        # n in {0, 1} and m = 0 give no pairs or no columns; (12, 40) is wide
        rng = random.Random(27)
        shapes = [(n, m) for n in range(5) for m in range(4)] + [(12, 40), (40, 2)]
        shapes += [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(40)]
        for n, m in shapes:
            p = random_presentation(rng, n, m, 50)
            want = derived_matrix_by_pairs(p)
            got = derived_matrix(p)
            assert got == want and (got.rows, got.cols) == (n * (n - 1) // 2, m), (n, m)
            assert all(type(row) is tuple and len(row) == m for row in got.entries), (n, m)


class TestIsolator:
    def test_examples(self, heisenberg):
        assert in_derived_isolator(heisenberg.generator_c(1))
        assert not in_derived_isolator(heisenberg.generator_a(1))
        p = Tau2Presentation.from_nonzero(2, 2, {(1, 1, 2): 1})
        assert not in_derived_isolator(p.generator_c(2))
        assert in_derived_isolator(p.generator_c(1))

    def test_commutators_are_in_isolator(self):
        rng = random.Random(26)
        for _ in range(100):
            p = random_presentation(rng, rng.randint(2, 3), rng.randint(1, 3), 3)
            x, y = random_element(rng, p), random_element(rng, p)
            assert in_derived_isolator(commutator(x, y))


class TestRegular:
    def test_heisenberg(self, heisenberg):
        assert is_regular(heisenberg)

    def test_wide_center_never_regular(self):
        # m above n(n-1)/2: no presentation is regular, zero exceptions
        for m in (2, 3):
            for values in itertools.product((-1, 0, 1), repeat=m):
                p = Tau2Presentation(2, m, values)
                assert not is_regular(p)
                assert not derived_report(p)[1]

    def test_abelian_not_regular(self):
        assert not is_regular(Tau2Presentation.from_nonzero(2, 1))


class TestScalarCertificate:
    def test_heisenberg(self, heisenberg):
        assert scalar_ring_is_Z_certificate(heisenberg)

    def test_abelian(self):
        assert not scalar_ring_is_Z_certificate(Tau2Presentation.from_nonzero(2, 1))

    def test_full_rank_three_generator(self):
        p = Tau2Presentation.from_nonzero(
            3, 2, {(1, 1, 2): 1, (2, 1, 3): 1, (1, 2, 3): 1, (2, 2, 3): -1}
        )
        for k in (1, 2, 3):
            assert rank(commutation_matrix(p.generator_a(k))) == 2
        assert scalar_ring_is_Z_certificate(p)

    def test_requires_noncommuting(self):
        p = Tau2Presentation.from_nonzero(3, 1, {(1, 1, 2): 1})
        assert not scalar_ring_is_Z_certificate(p)


class TestNoCSmallPair:
    def test_heisenberg_has_pair(self, heisenberg):
        pair = find_csmall_noncommuting_pair(heisenberg, 2)
        assert pair is not None
        # the generator pair itself is a witness
        a1, a2 = heisenberg.generator_a(1), heisenberg.generator_a(2)
        assert is_C_c_small(a1) and is_C_c_small(a2)
        assert not commutator(a1, a2).is_identity()

    def test_wide_shape_has_none(self):
        rng = random.Random(27)
        for _ in range(10):
            p = random_presentation(rng, 5, 2, 2)
            assert derived_report(p)[0] <= (p.n - 1) / 2
            assert find_csmall_noncommuting_pair(p, 2) is None

    def test_abelian_vacuous(self):
        assert find_csmall_noncommuting_pair(Tau2Presentation.from_nonzero(3, 1), 2) is None

    def test_box_validation(self, heisenberg):
        with pytest.raises(PreconditionError):
            find_csmall_noncommuting_pair(heisenberg, 0)


class TestStructureReport:
    def test_heisenberg_fields(self, heisenberg):
        r = structure_report(heisenberg)
        assert r.center_rank == 1
        assert r.csmall_flags == (True, True)
        assert r.all_commutators_nonzero
        assert r.derived_rank == 1 and r.derived_finite_index and r.commutators_form_basis
        assert r.is_regular and r.scalar_ring_is_Z_certified


class TestFormsAndMemo:
    def test_matrices_match_lam_definitions(self):
        # The matrices are slices of the stored forms; the loops over lam()
        # below are their definitions.
        rng = random.Random(30)
        for _ in range(60):
            p = random_presentation(rng, rng.randint(2, 5), rng.randint(0, 3), 5)
            ns, ms = range(1, p.n + 1), range(1, p.m + 1)
            for g in [random_element(rng, p, bound=4)] + [p.generator_a(k) for k in ns]:
                assert commutation_matrix(g).entries == tuple(
                    tuple(sum(p.lam(t, i, j) * g.alpha[i - 1] for i in ns) for j in ns) for t in ms
                )
            assert _stacked_center_matrix(p).entries == tuple(
                tuple(p.lam(t, j, i) for i in ns) for t in ms for j in ns
            )
            derived = derived_matrix(p)
            assert (derived.rows, derived.cols) == (p.n * (p.n - 1) // 2, p.m)
            assert derived.entries == tuple(
                tuple(p.lam(t, i, j) for t in ms) for i, j in itertools.combinations(ns, 2)
            )

    def test_report_independent_of_memo_order(self, monkeypatch):
        # The seven properties give the same answers and do the same work,
        # counted as calls of kernel_basis, _rank_mod_p and is_c_small, in
        # every order: all 5,040 orders on three presentations (every
        # certificate fires; a1's alone misses; m < n - 1, so none can
        # fire), 200 random orders on one draw of each shape with n from
        # 2 to 5 and m from n - 2 to n + 1 (ell 1, 3 and 100), and of
        # n = 0 and n = 1.  Each order runs on a fresh presentation.
        calls = dict.fromkeys(("kernel_basis", "_rank_mod_p", "is_c_small"), 0)

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(structure, name, counted(name, getattr(structure, name)))

        def work(make, order):
            p = make()
            for name in calls:
                calls[name] = 0
            answers = {name: TAU2_PROPERTIES[name](p) for name in order}
            return answers, dict(calls)

        def check(make, orders):
            want = work(make, TAU2_PROPERTIES)
            for order in orders:
                assert work(make, order) == want, (make(), order)

        for n, m, entries in (
            (3, 2, {(1, 1, 2): 1, (1, 2, 3): 1, (2, 1, 3): 1, (2, 2, 3): 1}),
            (3, 2, {(1, 1, 2): 1, (1, 1, 3): 1, (2, 1, 2): 2, (2, 1, 3): 2, (2, 2, 3): 1}),
            (4, 2, {(1, 1, 2): 1, (1, 3, 4): 1, (2, 1, 3): 1, (2, 2, 4): -1}),
        ):
            make = lambda: Tau2Presentation.from_nonzero(n, m, entries)
            check(make, itertools.permutations(TAU2_PROPERTIES))
        rng = random.Random(36)
        shapes = [(n, m) for n in range(2, 6) for m in range(n - 2, n + 2)]
        for n, m in shapes + [(0, 0), (0, 2), (1, 0), (1, 2)]:
            for ell in (1, 3, 100):
                flat = [rng.randint(-ell, ell) for _ in range(m * n * (n - 1) // 2)]
                orders = (rng.sample(list(TAU2_PROPERTIES), 7) for _ in range(200))
                check(lambda: Tau2Presentation(n, m, flat), orders)

        params = Tau2ModelParams(3, 2, 1)
        count = 0
        for fresh, warmed in zip(enumerate_tau2(params), enumerate_tau2(params)):
            is_regular(warmed)
            for k in range(warmed.n, 0, -1):
                _generator_csmall(warmed, k)
            scalar_ring_is_Z_certificate(warmed)
            derived_report(warmed)
            center(warmed)
            assert structure_report(warmed) == structure_report(fresh)
            count += 1
        assert count == 729

    def test_memo_bounded_by_generators(self):
        rng = random.Random(31)
        for _ in range(5):
            flat = [rng.randint(-3, 3) for _ in range(6)]
            p = Tau2Presentation(3, 2, flat)
            for alpha in itertools.product(range(-2, 3), repeat=p.n):
                fresh = Tau2Presentation(3, 2, flat)
                assert is_c_small(p.element(alpha, (1, 1))) == is_c_small(fresh.element(alpha, (0, 0)))
            structure_report(p)
            # the record's fields are fixed, and its two lists hold one
            # entry per generator
            facts = p._facts
            assert not hasattr(facts, "__dict__")
            assert type(facts).__slots__ == (
                "certificates", "center", "csmall", "derived_rank", "commutators_nontrivial"
            )
            assert len(facts.certificates) == len(facts.csmall) == p.n
            assert None not in facts.csmall

    def test_commutator_flag_reads_lam_once_per_presentation(self, monkeypatch):
        # All seven properties share one scan of the lambda vectors.  Each
        # pair up to the first trivial commutator reads lam up to its first
        # nonzero lambda_t, (index of that t) + 1 reads, or m reads when all
        # its lambda_t are zero; a second round reads nothing.
        reads = []
        lam = Tau2Presentation.lam
        monkeypatch.setattr(Tau2Presentation, "lam", lambda p, t, i, j: reads.append(1) or lam(p, t, i, j))
        rng = random.Random(32)
        full_scans = early_stops = 0
        for _ in range(40):
            n, m = rng.randint(2, 5), rng.randint(1, 3)
            p = random_presentation(rng, n, m, rng.choice((1, 3)))
            pairs = list(itertools.combinations(range(n), 2))
            trivial = [k for k, (i, j) in enumerate(pairs) if not any(form[i][j] for form in p.forms)]
            scanned = pairs[: trivial[0] + 1] if trivial else pairs
            expected = sum(
                next((t + 1 for t, form in enumerate(p.forms) if form[i][j]), m) for i, j in scanned
            )
            full_scans += not trivial
            early_stops += expected < m * len(scanned)
            reads.clear()
            for prop in TAU2_PROPERTIES.values():
                prop(p)
            assert len(reads) == expected
            reads.clear()
            for prop in TAU2_PROPERTIES.values():
                prop(p)
            structure_report(p)
            assert reads == []
        assert full_scans >= 10
        assert early_stops >= 10

    def test_commutator_flag_looks_past_a_zero_first_form(self):
        # Every lambda(1, i, j) is zero, so each pair is settled by lambda(2, i, j).
        p = Tau2Presentation.from_nonzero(3, 2, {(2, 1, 2): 1, (2, 1, 3): -2, (2, 2, 3): 5})
        assert all_commutators_nontrivial(p)
        q = Tau2Presentation.from_nonzero(3, 2, {(2, 1, 2): 1, (2, 1, 3): -2})
        assert not all_commutators_nontrivial(q)
