"""Exact linear algebra: normal forms, kernels, lattices.

Oracles used here:

* reconstruction identities (U*M == H, U*M*V == S) checked by direct exact
  multiplication, with |det| == 1 via independent Bareiss determinants;
* rank cross-checked against fraction-free elimination and against sympy,
  including matrices whose rank modulo the certificate prime is too small;
* kernel membership cross-checked by brute-force box scans;
* the extended gcd checked against ``math.gcd`` and Bezout's identity.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tau2 import intlin
from tau2.errors import DimensionMismatchError
from tau2.intlin import (
    IntMatrix,
    LatticeBasis,
    _P,
    _rank_mod_p,
    _xgcd,
    hnf,
    in_rational_span,
    kernel_basis,
    lattice_contains,
    lattice_equal,
    rank,
    snf,
)

from oracles import determinant, rank_fraction_free


def random_matrix(rng, max_dim=6, lo=-50, hi=50):
    rows = rng.randint(0, max_dim)
    cols = rng.randint(0, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols
    )


def assert_hnf_shape(h: IntMatrix):
    last_pivot = -1
    seen_zero_row = False
    for row in h.entries:
        nz = [c for c, x in enumerate(row) if x != 0]
        if not nz:
            seen_zero_row = True
            continue
        assert not seen_zero_row, "nonzero row after a zero row"
        c = nz[0]
        assert c > last_pivot, "pivot columns must increase"
        assert row[c] > 0, "pivots must be positive"
        last_pivot = c
    # entries above each pivot reduced into [0, pivot)
    pivots = []
    for row in h.entries:
        nz = [c for c, x in enumerate(row) if x != 0]
        if nz:
            pivots.append((len(pivots), nz[0]))
    for r, c in pivots:
        for above in range(r):
            assert 0 <= h.entries[above][c] < h.entries[r][c]


class TestTranspose:
    @staticmethod
    def oracle(m: IntMatrix) -> IntMatrix:
        return IntMatrix(
            m.cols, m.rows, tuple(tuple(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols))
        )

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1)])
    def test_edge_shapes(self, shape):
        rows, cols = shape
        m = IntMatrix.from_rows([[r * cols + c for c in range(cols)] for r in range(rows)], cols)
        t = m.transpose()
        assert t == self.oracle(m)
        assert (t.rows, t.cols) == (cols, rows)
        assert t.transpose() == m

    def test_random_shapes(self):
        rng = random.Random(23)
        for _ in range(300):
            m = random_matrix(rng, max_dim=7)
            t = m.transpose()
            assert t == self.oracle(m)
            assert all(isinstance(row, tuple) for row in t.entries)
            assert t.transpose() == m


class TestHnf:
    def test_worked_example(self):
        m = IntMatrix.from_rows([[2, 4], [1, 1]])
        h, u = hnf(m)
        assert h.entries == ((1, 1), (0, 2))
        assert u.mul(m) == h
        assert abs(determinant(u)) == 1

    def test_identity_fixed(self):
        m = IntMatrix.identity(3)
        h, u = hnf(m)
        assert h == m
        assert u == IntMatrix.identity(3)

    def test_zero_matrix(self):
        m = IntMatrix.zero(2, 2)
        h, u = hnf(m)
        assert h == m
        assert u == IntMatrix.identity(2)

    def test_random_reconstruction(self):
        rng = random.Random(1001)
        for _ in range(300):
            m = random_matrix(rng)
            h, u = hnf(m)
            assert u.mul(m) == h
            assert abs(determinant(u)) == 1
            assert_hnf_shape(h)

    def test_canonical_for_row_lattice(self):
        # permuting rows or adding one row to another must not change the HNF
        rng = random.Random(1002)
        for _ in range(100):
            m = random_matrix(rng, max_dim=4, lo=-9, hi=9)
            if m.rows < 2:
                continue
            rows = m.tolists()
            h1, _ = hnf(m)
            rng.shuffle(rows)
            i, j = rng.sample(range(len(rows)), 2)
            rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
            h2, _ = hnf(IntMatrix.from_rows(rows, m.cols))
            assert h1 == h2


class TestSnf:
    def test_diag_2_3(self):
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        dec = snf(m)
        assert dec.diagonal == (1, 6)
        assert dec.u.mul(m).mul(dec.v) == dec.s

    def test_identity(self):
        m = IntMatrix.identity(4)
        assert snf(m).diagonal == (1, 1, 1, 1)

    def test_rotation(self):
        m = IntMatrix.from_rows([[0, 1], [-1, 0]])
        dec = snf(m)
        assert dec.diagonal == (1, 1)
        assert dec.u.mul(m).mul(dec.v) == dec.s

    def test_random_reconstruction_and_chain(self):
        rng = random.Random(1003)
        for _ in range(300):
            m = random_matrix(rng)
            dec = snf(m)
            assert dec.u.mul(m).mul(dec.v) == dec.s
            assert abs(determinant(dec.u)) == 1
            assert abs(determinant(dec.v)) == 1
            diag = dec.diagonal
            # off-diagonal zero
            for i in range(m.rows):
                for j in range(m.cols):
                    if i != j:
                        assert dec.s.entries[i][j] == 0
            # nonnegative divisibility chain
            for d in diag:
                assert d >= 0
            nz = [d for d in diag if d != 0]
            assert all(d == 0 for d in diag[len(nz):])
            for a, b in zip(nz, nz[1:]):
                assert b % a == 0

    @pytest.mark.parametrize(
        "entries, want",
        [
            ((4, 6, 10, 15), (1, 2, 30, 60)),
            ((2, 1, 2, 1), (1, 1, 2, 2)),
            ((0, 3, 0, 2), (1, 6, 0, 0)),
            ((-9, 6, 0, -4), (1, 6, 36, 0)),
            ((12, 8, 6, 1, 1), (1, 1, 2, 12, 24)),
        ],
    )
    def test_diagonal_with_broken_chain(self, entries, want):
        # the Hermite passes only reorder and re-sign a diagonal input, so the
        # gcd/lcm sweep alone has to repair its chain
        n = len(entries)
        m = IntMatrix.from_rows([[d if i == j else 0 for j in range(n)] for i, d in enumerate(entries)])
        dec = snf(m)
        assert dec.diagonal == want
        assert dec.u.mul(m).mul(dec.v) == dec.s
        assert abs(determinant(dec.u)) == abs(determinant(dec.v)) == 1

    @pytest.mark.parametrize("shape", [(0, 0), (0, 1), (0, 4), (1, 0), (4, 0)])
    def test_empty_shapes(self, shape):
        rows, cols = shape
        dec = snf(IntMatrix.zero(rows, cols))
        assert dec.s == IntMatrix.zero(rows, cols)
        assert dec.u == IntMatrix.identity(rows) and dec.v == IntMatrix.identity(cols)
        assert dec.diagonal == () and dec.rank == 0

    def test_matrix_whose_chain_fold_is_undone_by_the_next_pass(self):
        # fixing the chain by adding row j to row i and reducing again loops
        # forever here: the next row pass reduces above the pivot
        m = IntMatrix.from_rows(
            [
                [-1, -1, 1, 0, -1, 1],
                [-1, -1, 1, 1, 1, -1],
                [1, 1, 0, -1, -1, -1],
                [1, -1, 0, 0, -1, 1],
                [-1, 1, 0, 1, 1, -1],
                [-1, 1, 1, 1, -1, 0],
            ]
        )
        dec = snf(m)
        assert dec.diagonal == (1, 1, 1, 1, 2, 2)
        assert abs(determinant(m)) == 4
        assert dec.u.mul(m).mul(dec.v) == dec.s
        assert abs(determinant(dec.u)) == abs(determinant(dec.v)) == 1

    def test_every_small_2x2_against_determinantal_divisors(self):
        # d1 = gcd of the entries and d1 * d2 = |det|, independently of any
        # reduction
        for entries in itertools.product(range(-3, 4), repeat=4):
            m = IntMatrix.from_rows([entries[:2], entries[2:]])
            d1 = math.gcd(*entries)
            det = abs(entries[0] * entries[3] - entries[1] * entries[2])
            dec = snf(m)
            assert dec.diagonal == ((d1, det // d1) if d1 else (0, 0)), entries
            assert dec.u.mul(m).mul(dec.v) == dec.s, entries

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        rng = random.Random(1004)
        for _ in range(40):
            m = random_matrix(rng, max_dim=5, lo=-20, hi=20)
            if m.rows == 0 or m.cols == 0:
                continue
            ours = [d for d in snf(m).diagonal if d != 0]
            theirs = smith_normal_form(sympy.Matrix(m.tolists()))
            ref = sorted(
                abs(theirs[i, i]) for i in range(min(m.rows, m.cols)) if theirs[i, i] != 0
            )
            assert sorted(ours) == ref


class TestRank:
    def test_examples(self):
        assert rank(IntMatrix.identity(2)) == 2
        assert rank(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1
        assert rank(IntMatrix.zero(3, 3)) == 0
        assert rank(IntMatrix.zero(4, 0)) == rank(IntMatrix.zero(0, 4)) == 0

    def test_three_paths_agree(self):
        rng = random.Random(1005)
        for _ in range(200):
            m = random_matrix(rng)
            r = rank(m)
            assert r == rank_fraction_free(m)
            assert r == snf(m).rank

    def test_agrees_with_fraction_free_on_many_shapes(self):
        # full-rank draws are decided by the modular certificate, products
        # through a narrow middle by the Hermite fallback
        rng = random.Random(1013)
        for i in range(20_000):
            rows, cols = rng.randint(0, 6), rng.randint(0, 6)
            bound = rng.choice((1, 3, 100, 10**6))
            if i % 2:
                inner = rng.randint(0, max(0, min(rows, cols) - 1))
                a = [[rng.randint(-bound, bound) for _ in range(inner)] for _ in range(rows)]
                b = IntMatrix.from_rows(
                    [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(inner)], cols
                )
                m = IntMatrix.from_rows(a, inner).mul(b)
            else:
                m = IntMatrix.from_rows(
                    [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols
                )
            assert rank(m) == rank_fraction_free(m), m

    def test_prime_dividing_every_maximal_minor(self):
        cases = [
            ([[_P, 0], [0, 1]], 2),
            ([[_P]], 1),
            ([[1, 2], [3, 6 + _P]], 2),
            ([[2 * _P, _P, 0], [0, 0, 0], [1, 1, 1]], 2),
        ]
        for entries, want in cases:
            m = IntMatrix.from_rows(entries)
            assert _rank_mod_p(m.entries, m.cols) < min(m.rows, m.cols)
            assert rank(m) == rank_fraction_free(m) == want


class TestKernel:
    def test_examples(self):
        assert kernel_basis(IntMatrix.from_rows([[1, 0]], 2)).vectors == ((0, 1),)
        assert kernel_basis(IntMatrix.from_rows([[1, 1]], 2)).vectors == ((1, -1),)
        assert kernel_basis(IntMatrix.identity(3)).vectors == ()

    def test_prime_multiples_have_zero_kernel(self):
        m = IntMatrix.from_rows([[_P], [2 * _P]])
        assert _rank_mod_p(m.entries, m.cols) == 0
        assert kernel_basis(m).vectors == ()
        m = IntMatrix.from_rows([[_P, 0], [0, 1], [0, 0]])
        assert kernel_basis(m).vectors == ()

    def test_tall_matrix_with_kernel_matches_transform(self):
        # rows >= cols but rank < cols: the certificate fails and the kernel
        # must come from the transform rows of hnf(m^T)
        rng = random.Random(1014)
        for _ in range(200):
            cols = rng.randint(1, 5)
            rows = rng.randint(cols, 7)
            inner = rng.randint(0, cols - 1)
            a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(inner)] for _ in range(rows)], inner)
            b = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(inner)], cols)
            m = a.mul(b)
            h, u = hnf(m.transpose())
            r = sum(1 for row in h.entries if any(row))
            want = LatticeBasis.from_vectors(cols, u.entries[r:])
            assert want.rank == cols - rank_fraction_free(m) > 0
            assert kernel_basis(m) == want

    def test_zero_column_skips_the_certificate(self, monkeypatch):
        # A zero column puts its unit vector in the kernel, so the full-rank
        # certificate cannot fire there and is not tried.
        calls = []
        real = intlin._rank_mod_p
        monkeypatch.setattr(intlin, "_rank_mod_p", lambda *args: calls.append(args) or real(*args))
        rng = random.Random(1016)
        for _ in range(100):
            cols = rng.randint(1, 5)
            rows = rng.randint(cols, 8)
            zero = rng.randrange(cols)
            m = IntMatrix.from_rows(
                [[0 if j == zero else rng.randint(-9, 9) for j in range(cols)] for _ in range(rows)], cols
            )
            h, u = hnf(m.transpose())
            r = sum(1 for row in h.entries if any(row))
            assert kernel_basis(m) == LatticeBasis.from_vectors(cols, u.entries[r:])
        assert calls == []
        # a tall matrix without a zero column still tries the certificate
        assert kernel_basis(IntMatrix.identity(3)).vectors == ()
        assert len(calls) == 1

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(1006)
        for _ in range(200):
            m = random_matrix(rng)
            basis = kernel_basis(m)
            assert basis.rank == m.cols - rank(m)
            for v in basis.vectors:
                assert all(x == 0 for x in m.mul_vec(v))

    def test_exact_under_transform_swell(self):
        # Dense centralizer-shaped matrices (fewer rows than columns, entries
        # up to 100) whose transposed reduction swells the transform past 500
        # bits; the kernel must still be exact and saturated.
        rng = random.Random(1022)
        swollen = 0
        for _ in range(120):
            rows, cols = rng.randint(6, 8), rng.randint(9, 11)
            m = IntMatrix.from_rows([[rng.randint(-100, 100) for _ in range(cols)] for _ in range(rows)], cols)
            _, u = hnf(m.transpose())
            if max(abs(x) for row in u.entries for x in row).bit_length() <= 500:
                continue
            swollen += 1
            basis = kernel_basis(m)
            for v in basis.vectors:
                assert not any(m.mul_vec(v))
            k = cols - rank_fraction_free(m)
            assert basis.rank == k
            # saturated: the k x k minors of the basis have gcd 1
            g = 0
            for chosen in itertools.combinations(range(cols), k):
                minor = IntMatrix.from_rows([[v[j] for j in chosen] for v in basis.vectors], k)
                g = math.gcd(g, determinant(minor))
                if g == 1:
                    break
            assert g == 1
            if swollen == 6:
                break
        assert swollen == 6

    def test_saturation_box_scan(self):
        # kernels are saturated: membership in the kernel lattice must match
        # the raw equation m*v == 0 on an exhaustive small box
        rng = random.Random(1007)
        for _ in range(60):
            cols = rng.randint(1, 4)
            rows = rng.randint(0, 3)
            m = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)], cols
            )
            basis = kernel_basis(m)
            box = 3 if cols <= 3 else 2
            for v in itertools.product(range(-box, box + 1), repeat=cols):
                in_kernel = all(x == 0 for x in m.mul_vec(v))
                assert in_kernel == lattice_contains(basis, v)


class TestLattice:
    def test_entries_must_be_integers(self):
        # 2.5 is neither truncated to 2 nor is "3" converted: both raise
        for bad in (2.5, 2.0, "3"):
            with pytest.raises(TypeError):
                IntMatrix.from_rows([[1, bad]])
            with pytest.raises(TypeError):
                LatticeBasis.from_vectors(2, [(1, bad)])
            with pytest.raises(TypeError):
                lattice_contains(LatticeBasis.from_vectors(2, [(1, 0)]), (bad, 0))
            with pytest.raises(TypeError):
                in_rational_span([(1, 0)], (bad, 0))
        assert IntMatrix.from_rows([[True, 2]]).entries == ((1, 2),)

    def test_contains_examples(self):
        l = LatticeBasis.from_vectors(2, [(2, 0)])
        assert lattice_contains(l, (4, 0))
        assert not lattice_contains(l, (1, 0))
        l2 = LatticeBasis.from_vectors(2, [(1, 1), (0, 2)])
        assert lattice_contains(l2, (1, 3))

    def test_equality_examples(self):
        a = LatticeBasis.from_vectors(2, [(1, 0), (0, 1)])
        b = LatticeBasis.from_vectors(2, [(1, 1), (0, 1)])
        assert lattice_equal(a, b)
        assert not lattice_equal(
            LatticeBasis.from_vectors(2, [(2, 0)]), LatticeBasis.from_vectors(2, [(1, 0)])
        )
        assert lattice_equal(LatticeBasis.from_vectors(2, []), LatticeBasis.from_vectors(2, []))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lattice_contains(LatticeBasis.from_vectors(2, [(1, 0)]), (1, 0, 0))
        with pytest.raises(DimensionMismatchError):
            lattice_equal(LatticeBasis.from_vectors(2, []), LatticeBasis.from_vectors(3, []))

    def test_from_vectors_is_nonzero_hnf_rows(self):
        # from_vectors keeps no transform; its basis must still be the
        # nonzero rows of hnf, including for rank-deficient generators
        rng = random.Random(808)
        for _ in range(400):
            rows, cols = rng.randint(0, 8), rng.randint(0, 8)
            k = rng.randint(0, min(rows, cols))
            # a product through k inner dimensions has rank at most k
            left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
            right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
            m = IntMatrix.from_rows(
                [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if k else [0] * cols for row in left],
                cols,
            )
            h, _ = hnf(m)
            nonzero = tuple(r for r in h.entries if any(r))
            assert LatticeBasis.from_vectors(cols, m.entries).vectors == nonzero
            assert len(nonzero) == rank(m) == rank_fraction_free(m) <= k

    def test_unimodular_rebase_invariance(self):
        rng = random.Random(1008)
        for _ in range(100):
            dim = rng.randint(1, 4)
            k = rng.randint(1, dim)
            vecs = [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(k)]
            l1 = LatticeBasis.from_vectors(dim, vecs)
            # rebase: add a multiple of one generator to another, permute, negate
            if k >= 2:
                i, j = rng.sample(range(k), 2)
                c = rng.randint(-3, 3)
                vecs[i] = [a + c * b for a, b in zip(vecs[i], vecs[j])]
            rng.shuffle(vecs)
            vecs[0] = [-a for a in vecs[0]]
            l2 = LatticeBasis.from_vectors(dim, vecs)
            assert lattice_equal(l1, l2)
            # mutual containment is the defining property
            for v in l1.vectors:
                assert lattice_contains(l2, v)
            for v in l2.vectors:
                assert lattice_contains(l1, v)

    def test_equivalence_relation_on_samples(self):
        rng = random.Random(1009)
        lattices = []
        for _ in range(12):
            vecs = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(rng.randint(0, 3))]
            lattices.append(LatticeBasis.from_vectors(3, vecs))
        for a in lattices:
            assert lattice_equal(a, a)
            for b in lattices:
                assert lattice_equal(a, b) == lattice_equal(b, a)
                for c in lattices:
                    if lattice_equal(a, b) and lattice_equal(b, c):
                        assert lattice_equal(a, c)


class TestRationalSpan:
    def test_examples(self):
        assert in_rational_span([(2, 0)], (1, 0))
        assert not in_rational_span([(1, 0)], (0, 1))
        assert in_rational_span([(1, 1), (1, -1)], (3, 5))

    def test_agrees_with_rank_definition(self):
        rng = random.Random(1010)
        for _ in range(150):
            dim = rng.randint(1, 4)
            rows = [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(rng.randint(0, 3))]
            v = [rng.randint(-5, 5) for _ in range(dim)]
            expected = rank(IntMatrix.from_rows(rows, dim)) == rank(
                IntMatrix.from_rows(rows + [v], dim)
            )
            assert in_rational_span(rows, v) == expected


@st.composite
def matrices(draw):
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = draw(st.integers(min_value=0, max_value=5))
    entries = draw(
        st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return IntMatrix.from_rows(entries, cols)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_snf_reconstruction_property(m):
    dec = snf(m)
    assert dec.u.mul(m).mul(dec.v) == dec.s
    assert abs(determinant(dec.u)) == 1
    assert abs(determinant(dec.v)) == 1
    assert dec.rank == rank_fraction_free(m)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_hnf_reconstruction_property(m):
    h, u = hnf(m)
    assert u.mul(m) == h
    assert abs(determinant(u)) == 1
    assert_hnf_shape(h)


def test_xgcd_bezout_and_sign():
    rng = random.Random(1012)
    pairs = [(0, 0), (0, 7), (7, 0), (0, -7), (-7, 0), (-12, -18), (12, -18), (-12, 18), (5, 5), (-5, 5)]
    pairs += [(rng.randint(-10**12, 10**12), rng.randint(-10**12, 10**12)) for _ in range(500)]
    for a, b in pairs:
        g, s, t = _xgcd(a, b)
        assert g == math.gcd(a, b)
        assert s * a + t * b == g
