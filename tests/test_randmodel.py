"""Samplers, enumeration, counting bounds, abelianization, Monte Carlo."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import tau2.randmodel as randmodel
from tau2.core import Tau2Presentation
from tau2.errors import BudgetExceededError, PreconditionError
from tau2.intlin import snf
from tau2.randmodel import (
    DEFAULT_ENUM_BUDGET,
    POLYCYCLIC_PROPERTIES,
    TAU2_PROPERTIES,
    PolycyclicModelParams,
    PolycyclicPresentation,
    Tau2ModelParams,
    abelianization,
    abelianization_matrix,
    count_bound_p,
    exact_fraction,
    montecarlo,
    orbit_representatives,
    sample_polycyclic_presentation,
    sample_tau2,
    symmetry_generators,
    trial_rng,
    wilson_interval,
)

from conftest import signed_permutation_orbits
from oracles import enumerate_tau2, lindep_count_check, smith_diagonal_by_minors


class TestSampler:
    def test_ell_zero_always_abelian(self):
        rng = random.Random(0)
        params = Tau2ModelParams(3, 2, 0)
        for _ in range(20):
            p = sample_tau2(params, rng)
            assert all(
                p.lam(t, i, j) == 0
                for t in (1, 2)
                for i in (1, 2, 3)
                for j in (1, 2, 3)
            )

    def test_seed_replay(self):
        params = Tau2ModelParams(3, 2, 4)
        a = sample_tau2(params, random.Random(123))
        b = sample_tau2(params, random.Random(123))
        assert a == b

    def test_uniformity_n2_m1(self):
        # three presentations at ell=... bound 1 on a single slot; chi-square
        # with 2 degrees of freedom, generous threshold
        params = Tau2ModelParams(2, 1, 1)
        rng = random.Random(99)
        counts = {-1: 0, 0: 0, 1: 0}
        draws = 10_000
        for _ in range(draws):
            counts[sample_tau2(params, rng).lam(1, 1, 2)] += 1
        expected = draws / 3
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 16.0, counts

    def test_params_validation(self):
        with pytest.raises(PreconditionError):
            Tau2ModelParams(1, 1, 1)
        with pytest.raises(PreconditionError):
            Tau2ModelParams(2, 0, 1)
        with pytest.raises(PreconditionError):
            Tau2ModelParams(2, 1, -1)


class TestExponentDraws:
    """``_draw_exponents`` must give the values and leave the generator in the
    state of as many ``randint(-ell, ell)`` calls: every Monte Carlo result
    depends on it."""

    @pytest.mark.parametrize(
        "ell",
        [0, 1, 2, 4, 16, 2**31 - 1, 2**64, 10**30, 10**300],
        ids=["0", "1", "2", "4", "16", "2**31-1", "2**64", "10**30", "10**300"],
    )
    def test_matches_randint_values_and_state(self, ell):
        for seed in range(100):
            count = seed % 41
            ours, twin = random.Random(seed), random.Random(seed)
            assert randmodel._draw_exponents(ours, ell, count) == [twin.randint(-ell, ell) for _ in range(count)]
            assert ours.getstate() == twin.getstate()

    @pytest.mark.parametrize("ell", [0, 1, 5])
    def test_sample_tau2_matches_randint_stream(self, ell):
        params = Tau2ModelParams(3, 2, ell)
        for seed in range(20):
            ours, twin = random.Random(seed), random.Random(seed)
            p = sample_tau2(params, ours)
            assert p == Tau2Presentation(3, 2, [twin.randint(-ell, ell) for _ in range(params.slots)])
            assert ours.getstate() == twin.getstate()


class TestEnumerate:
    @pytest.mark.parametrize(
        "n,m,ell,total", [(2, 1, 1, 3), (2, 2, 1, 9), (3, 2, 1, 729)]
    )
    def test_counts(self, n, m, ell, total):
        params = Tau2ModelParams(n, m, ell)
        assert params.sample_space_size == total
        seen = set()
        for p in enumerate_tau2(params):
            seen.add(p)
        assert len(seen) == total

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_tau2(Tau2ModelParams(3, 3, 10), budget=1000))


# mixed-radix numbering of the flat tables in base 2*ell+1, the order of
# enumerate_tau2, digit by digit
def _table_of(index: int, params: Tau2ModelParams) -> list[int]:
    base = 2 * params.ell + 1
    digits = []
    for _ in range(params.slots):
        index, digit = divmod(index, base)
        digits.append(digit - params.ell)
    return digits[::-1]


def _index_of(flat: list[int], ell: int) -> int:
    index = 0
    for value in flat:
        index = index * (2 * ell + 1) + value + ell
    return index


def _flat(p: Tau2Presentation) -> tuple[int, ...]:
    return tuple(form[i][j] for form in p.forms for i in range(p.n) for j in range(i + 1, p.n))


def _decode_walk(params: Tau2ModelParams) -> list[tuple[tuple[int, ...], int]]:
    """Oracle for ``orbit_representatives``: the same bitmap walk, but every
    popped index is decoded digit by digit and each image is built as a
    table and re-encoded.  [(representative's table, orbit size)]."""
    gens = symmetry_generators(params.n, params.m)
    seen = bytearray(params.sample_space_size)
    out = []
    rep = seen.find(0)
    while rep >= 0:
        seen[rep] = 1
        stack = [rep]
        size = 0
        while stack:
            v = _table_of(stack.pop(), params)
            size += 1
            for gen in gens:
                image = _index_of([sign * v[source] for source, sign in gen], params.ell)
                if not seen[image]:
                    seen[image] = 1
                    stack.append(image)
        out.append((tuple(_table_of(rep, params)), size))
        rep = seen.find(0, rep + 1)
    return out


# Every model shape with ell <= 3 and at most 3,200 presentations, plus the
# largest group that fits 20k presentations, (3, 3, 1): 2,304 relabellings.
ORBIT_SHAPES = [
    (n, m, ell)
    for n in range(2, 5)
    for m in range(1, 10)
    for ell in range(1, 4)
    if (2 * ell + 1) ** (m * n * (n - 1) // 2) <= 3200
] + [(3, 3, 1)]


class TestOrbits:
    @pytest.mark.parametrize("n,m,ell", ORBIT_SHAPES)
    def test_weighted_counts_match_brute_force(self, n, m, ell):
        params = Tau2ModelParams(n, m, ell)
        props = list(TAU2_PROPERTIES.values())
        brute = [0] * len(props)
        for p in enumerate_tau2(params):
            for k, prop in enumerate(props):
                brute[k] += prop(p)
        weights = [w for _, w in orbit_representatives(params)]
        assert sum(weights) == params.sample_space_size
        assert exact_fraction(list(TAU2_PROPERTIES), params) == (tuple(brute), params.sample_space_size)

    @pytest.mark.parametrize("n,m,ell", [(2, 2, 2), (2, 3, 2), (3, 1, 2), (3, 2, 1), (4, 1, 1)])
    def test_orbits_are_those_of_the_whole_group(self, n, m, ell):
        # the generators reach every signed permutation: each representative
        # is its orbit's smallest table, with the orbit's full size
        reps = {_flat(p): w for p, w in orbit_representatives(Tau2ModelParams(n, m, ell))}
        assert reps == signed_permutation_orbits(n, m, ell)

    def test_registered_properties_are_invariant(self):
        rng = random.Random(2024)
        for _ in range(60):
            n, m, ell = rng.randint(2, 4), rng.randint(1, 3), rng.randint(1, 3)
            flat = [rng.randint(-ell, ell) for _ in range(m * n * (n - 1) // 2)]
            p = Tau2Presentation(n, m, flat)
            for gen in symmetry_generators(n, m):
                assert sorted(source for source, _ in gen) == list(range(len(flat)))
                image = Tau2Presentation(n, m, [sign * flat[source] for source, sign in gen])
                for name, prop in TAU2_PROPERTIES.items():
                    assert prop(image) == prop(p), (name, n, m, flat, gen)

    # ell = 0 (base 1, one presentation), odd slot counts (an uneven split)
    # and one-slot spaces (range halves) on top of ORBIT_SHAPES
    @pytest.mark.parametrize(
        "n,m,ell", ORBIT_SHAPES + [(2, 1, 0), (3, 2, 0), (4, 3, 0), (2, 1, 7), (3, 1, 3), (2, 3, 2), (2, 5, 1)]
    )
    def test_walk_matches_decoding_oracle(self, n, m, ell):
        params = Tau2ModelParams(n, m, ell)
        walk = [(_flat(p), size) for p, size in orbit_representatives(params)]
        assert walk == _decode_walk(params)

    @pytest.mark.parametrize(
        "n,m,ell", [(2, 1, 3), (2, 2, 2), (2, 3, 2), (3, 1, 3), (3, 2, 1), (4, 1, 1), (3, 3, 1), (3, 2, 0)]
    )
    def test_image_tables_give_each_generators_image(self, n, m, ell):
        params = Tau2ModelParams(n, m, ell)
        base = 2 * ell + 1
        split, tables = randmodel._image_tables(params)
        gens = symmetry_generators(n, m)
        assert len(tables) == len(gens)
        assert split == base ** (params.slots // 2)
        assert all(len(half) <= base ** -(-params.slots // 2) for pair in tables for half in pair)
        rng = random.Random(13)
        for _ in range(200):
            index = rng.randrange(params.sample_space_size)
            flat = _table_of(index, params)
            h, low = divmod(index, split)
            for gen, (hi, lo) in zip(gens, tables):
                image = [sign * flat[source] for source, sign in gen]
                assert hi[h] + lo[low] == _index_of(image, ell), (index, gen)

    def test_one_slot_space_allocates_little_beyond_the_bitmap(self):
        # 2,000,001 presentations: the bitmap is 2 MB, and one-slot halves are
        # ranges, not 2,000,001-entry lists
        params = Tau2ModelParams(2, 1, 10**6)
        tracemalloc.start()
        try:
            p, size = next(orbit_representatives(params))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (_flat(p), size) == ((-(10**6),), 2)
        assert peak < 1.5 * params.sample_space_size

    def test_budget_checked_before_the_bitmap(self):
        with pytest.raises(BudgetExceededError):
            next(orbit_representatives(Tau2ModelParams(3, 3, 10)))


class TestCountBound:
    def test_n2_m1_formula(self):
        # single factor L^1 - L^0 - L^0 = L - 2
        for ell in (1, 2, 5):
            p, _ = count_bound_p(2, 1, ell, "main")
            assert p == 2 * ell - 2
            p1, _ = count_bound_p(2, 1, ell, "main", "2l+1")
            assert p1 == 2 * ell - 1

    def test_n3_m2_values(self):
        p, bound = count_bound_p(3, 2, 1, "main")
        assert p == (4 - 1 - 1) * (4 - 2 - 1) * (4 - 2 - 2) == 0
        assert bound == 0
        p1, bound1 = count_bound_p(3, 2, 1, "main", "2l+1")
        assert p1 == (9 - 1 - 1) * (9 - 3 - 1) * (9 - 3 - 3) == 105
        assert bound1 == Fraction(105, 729)

    def test_bound_tends_to_one(self):
        _, b = count_bound_p(3, 2, 200, "main", "2l+1")
        assert 0.99 < float(b) <= 1.0
        lower = [float(count_bound_p(3, 2, ell, "main")[1]) for ell in (2, 10, 50, 200)]
        assert lower == sorted(lower) and lower[-1] > 0.9

    def test_regularity_variant(self):
        # r = min(m, 3) = 2, N = 3: p = L^2 (L^2 - L) L^2 at L = 2*ell+1
        p, bound = count_bound_p(3, 2, 1, "regularity")
        assert p == 9 * 6 * 9 == 486
        assert bound == Fraction(486, 729)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            count_bound_p(3, 1, 1, "main")  # m < n-1
        with pytest.raises(PreconditionError):
            count_bound_p(2, 1, 1, "bogus")
        with pytest.raises(PreconditionError):
            count_bound_p(2, 1, 1, "main", "3l")


class TestLindepCount:
    def test_examples(self):
        assert lindep_count_check([-1, 0, 1], 2, [(1, 0)]) == (3, 3)
        assert lindep_count_check([-1, 0, 1], 2, []) == (1, 1)
        count, bound = lindep_count_check([0, 1], 3, [(1, 0, 0), (0, 1, 0)])
        assert count <= bound == 4

    def test_dependent_input_rejected(self):
        with pytest.raises(PreconditionError):
            lindep_count_check([-1, 0, 1], 2, [(1, 0), (2, 0)])

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            lindep_count_check(list(range(-5, 6)), 8, [], budget=10**6)

    def test_never_exceeds_bound_random(self):
        rng = random.Random(50)
        for _ in range(100):
            t = rng.randint(1, 4)
            values = sorted(rng.sample(range(-3, 4), rng.randint(1, 3)))
            vecs = []
            from tau2.intlin import IntMatrix, rank

            for _ in range(rng.randint(0, t)):
                cand = tuple(rng.randint(-3, 3) for _ in range(t))
                if rank(IntMatrix.from_rows(vecs + [cand], t)) == len(vecs) + 1:
                    vecs.append(cand)
            count, bound = lindep_count_check(values, t, vecs)
            assert count <= bound


def _sample_polycyclic(n, s, ell, flavor, rng):
    return sample_polycyclic_presentation(PolycyclicModelParams(n, s, ell, flavor), rng)


class TestPolycyclicSampler:
    def test_nilpotent_no_power_relations(self):
        pres = _sample_polycyclic(3, (None, None, None), 2, "nilpotent", random.Random(1))
        assert pres.power == {}
        # free exponents only above the conjugated index
        assert set(pres.conj_b) == {(1, 2, 3)}
        assert set(pres.conj_c) == {(1, 2, 3)}

    def test_polycyclic_index_ranges(self):
        pres = _sample_polycyclic(3, (None, None, None), 2, "polycyclic", random.Random(2))
        assert set(pres.conj_b) == {(1, 2, 2), (1, 2, 3), (1, 3, 2), (1, 3, 3), (2, 3, 3)}

    def test_power_relations_sampled_when_finite(self):
        pres = _sample_polycyclic(3, (4, None, None), 1, "polycyclic", random.Random(3))
        assert set(pres.power) == {(1, 2), (1, 3)}

    def test_ell0_conjugation_trivial(self):
        pres = _sample_polycyclic(3, (None, None, None), 0, "nilpotent", random.Random(4))
        assert all(v == 0 for v in pres.conj_b.values())
        assert all(v == 0 for v in pres.conj_c.values())

    def test_seed_replay(self):
        a = _sample_polycyclic(4, (None,) * 4, 3, "polycyclic", random.Random(7))
        b = _sample_polycyclic(4, (None,) * 4, 3, "polycyclic", random.Random(7))
        assert a == b

    def test_draw_order(self):
        # powers (i, k), then conj_b, then conj_c, each in (i, j, k) order
        params = PolycyclicModelParams(4, (2, None, 3, None), 9, "polycyclic")
        pres = sample_polycyclic_presentation(params, random.Random(8))
        rng = random.Random(8)
        power = {(i, k): rng.randint(-9, 9) for i in (1, 3) for k in range(i + 1, 5)}
        conj_b, conj_c = (
            {(i, j, k): rng.randint(-9, 9) for i in range(1, 5) for j in range(i + 1, 5) for k in range(i + 1, 5)}
            for _ in range(2)
        )
        assert (pres.power, pres.conj_b, pres.conj_c) == (power, conj_b, conj_c)
        assert list(pres.conj_b) == list(conj_b) and list(pres.power) == list(power)
        assert pres.s == (2, None, 3, None) and pres.flavor == "polycyclic"

    @pytest.mark.parametrize("flavor, ell", [("nilpotent", 9), ("nilpotent", 0), ("polycyclic", 0)])
    def test_draw_order_every_flavor(self, flavor, ell):
        # the same order as test_draw_order, and the stream ends where as
        # many randint calls leave it
        params = PolycyclicModelParams(4, (2, None, 3, None), ell, flavor)
        ours, rng = random.Random(8), random.Random(8)
        pres = sample_polycyclic_presentation(params, ours)
        power = {(i, k): rng.randint(-ell, ell) for i in (1, 3) for k in range(i + 1, 5)}
        first = (lambda i, j: j + 1) if flavor == "nilpotent" else (lambda i, j: i + 1)
        conj_b, conj_c = (
            {(i, j, k): rng.randint(-ell, ell) for i in range(1, 5) for j in range(i + 1, 5) for k in range(first(i, j), 5)}
            for _ in range(2)
        )
        assert (pres.power, pres.conj_b, pres.conj_c) == (power, conj_b, conj_c)
        assert [list(pres.power), list(pres.conj_b), list(pres.conj_c)] == [list(power), list(conj_b), list(conj_c)]
        assert ours.getstate() == rng.getstate()

    def test_flavor_validation(self):
        # the parameters refuse a shape the sampler cannot draw from
        with pytest.raises(PreconditionError, match="n >= 3"):
            PolycyclicModelParams(2, (None, None), 1, "nilpotent")
        with pytest.raises(PreconditionError, match="n >= 2"):
            PolycyclicModelParams(1, (None,), 1, "polycyclic")
        with pytest.raises(PreconditionError, match="flavor"):
            PolycyclicModelParams(3, (None,) * 3, 1, "bogus")
        with pytest.raises(PreconditionError, match="power exponents"):
            PolycyclicModelParams(3, (None,) * 2, 1, "nilpotent")
        with pytest.raises(PreconditionError, match="exponent bound"):
            PolycyclicModelParams(3, (None,) * 3, -1, "nilpotent")
        assert PolycyclicModelParams(3, [None, 2, None], 1, "nilpotent").s == (None, 2, None)

    def test_power_exponents_must_be_integers(self):
        # s = 2.5 was once read as 2, and the abelianization counted it finite
        for s in ((2.5, None, None), (None, "3", None), (None, None, 2.0)):
            with pytest.raises(TypeError):
                PolycyclicModelParams(3, s, 1, "polycyclic")
        with pytest.raises(TypeError):
            montecarlo(["abelianization_finite"], PolycyclicModelParams(3, (2.5, None, None), 1, "polycyclic"), 3, 0)
        seven = type("Seven", (), {"__index__": lambda self: 7})()
        assert PolycyclicModelParams(3, (seven, None, 2), 1, "polycyclic").s == (7, None, 2)

    @pytest.mark.parametrize("s", [(0, None, None), (-2, None, None), (None, 3, 0)])
    def test_nonpositive_power_exponent_refused(self, s):
        # a power relation a_i^s with s <= 0 is no torsion exponent
        for flavor in ("nilpotent", "polycyclic"):
            with pytest.raises(PreconditionError, match="positive"):
                PolycyclicModelParams(3, s, 1, flavor)

    def test_size_budget(self):
        # n*n*n: n=100 is exactly 10**6 and draws; n=101 is refused when the
        # parameters are built, so no sampler call ever sees it
        pres = _sample_polycyclic(100, (2,) * 100, 1, "polycyclic", random.Random(0))
        assert len(pres.power) == 100 * 99 // 2
        for flavor in ("polycyclic", "nilpotent"):
            with pytest.raises(BudgetExceededError, match="n\\*n\\*n = 1030301"):
                PolycyclicModelParams(101, (None,) * 101, 1, flavor)


class TestAbelianization:
    def test_nilpotent_row_shape(self):
        # conjugation x1^-1 x2 x1 = x2 x3^b contributes a row b * e3
        pres = PolycyclicPresentation(
            3, (None, None, None), {}, {(1, 2, 3): 5}, {(1, 2, 3): 0}, "nilpotent"
        )
        rows = abelianization_matrix(pres).entries
        assert (0, 0, -5) in rows
        factors, finite = abelianization(pres)
        assert factors == (5,) and not finite

    def test_all_zero_infinite(self):
        pres = PolycyclicPresentation(3, (None,) * 3, {}, {}, {}, "nilpotent")
        assert abelianization(pres) == ((), False)

    def test_polycyclic_n2_rows(self):
        pres = PolycyclicPresentation(
            2, (None, None), {}, {(1, 2, 2): 2}, {(1, 2, 2): 5}, "polycyclic"
        )
        rows = abelianization_matrix(pres).entries
        assert (0, 1 - 2) in rows and (0, 1 - 5) in rows
        factors, finite = abelianization(pres)
        # gcd(1, 4) = 1 kills x2, x1 survives: quotient is Z
        assert factors == (1,) and not finite

    def test_power_relation_contributes(self):
        pres = PolycyclicPresentation(
            2, (3, None), {(1, 2): 1}, {(1, 2, 2): 2}, {(1, 2, 2): 2}, "polycyclic"
        )
        rows = abelianization_matrix(pres).entries
        assert (3, -1) in rows and (0, -1) in rows
        factors, finite = abelianization(pres)
        assert finite and math.prod(factors) == 3

    def test_matches_smith_diagonal_of_all_relations(self):
        # the invariant factors of every relation row, read off the gcds of
        # their minors, with no reduction
        rng = random.Random(17)
        for _ in range(200):
            flavor = rng.choice(["polycyclic", "nilpotent"])
            n = rng.randint(3 if flavor == "nilpotent" else 2, 4)
            s = [rng.choice([None, rng.randint(1, 6)]) for _ in range(n)]
            pres = _sample_polycyclic(n, s, rng.randint(0, 3), flavor, rng)
            factors = tuple(d for d in smith_diagonal_by_minors(abelianization_matrix(pres)) if d != 0)
            assert abelianization(pres) == (factors, len(factors) == n)

    def test_nilpotent_relation_matrices_with_zero_rows(self):
        # a nilpotent conjugation row with j = n has no free exponent and its
        # mandatory x_n cancels: 2(n-1) all-zero rows in every draw, which
        # the Smith passes drop after the first one
        rng = random.Random(23)
        for n in (3, 4):
            for _ in range(25):
                s = [rng.choice([None, rng.randint(1, 6)]) for _ in range(n)]
                m = abelianization_matrix(_sample_polycyclic(n, s, rng.randint(0, 3), "nilpotent", rng))
                assert sum(not any(row) for row in m.entries) >= 2 * (n - 1)
                assert snf(m) == smith_diagonal_by_minors(m)

    def test_finite_example(self):
        # x1^2 = 1, x2 conjugates to x2^-1: quotient Z/2 x Z/2
        pres = PolycyclicPresentation(
            2, (2, 2), {}, {(1, 2, 2): -1}, {(1, 2, 2): -1}, "polycyclic"
        )
        factors, finite = abelianization(pres)
        assert finite
        assert math.prod(factors) == 4


class TestWilson:
    def test_contains_estimate(self):
        rng = random.Random(60)
        for _ in range(200):
            trials = rng.randint(1, 1000)
            successes = rng.randint(0, trials)
            low, high = wilson_interval(successes, trials)
            assert 0.0 <= low <= successes / trials <= high <= 1.0

    def test_shrinks_with_trials(self):
        l1, h1 = wilson_interval(5, 10)
        l2, h2 = wilson_interval(500, 1000)
        assert (h2 - l2) < (h1 - l1)


class TestMonteCarlo:
    def test_exact_anchor_contained(self):
        params = Tau2ModelParams(2, 2, 1)
        (hits,), total = exact_fraction(["csmall_conjunction"], params)
        assert (hits, total) == (8, 9)
        (successes,), trials = montecarlo(["csmall_conjunction"], params, 10_000, seed=42)
        low, high = wilson_interval(successes, trials)
        assert low <= 8 / 9 <= high

    def test_single_trial(self):
        (successes,), trials = montecarlo(["center_is_C"], Tau2ModelParams(2, 1, 1), 1, seed=5)
        assert successes / trials in (0.0, 1.0)
        assert trials == 1

    def test_trials_budget(self, monkeypatch):
        # more trials than exact mode's cap are refused before any draw
        def no_draw(*args):
            raise AssertionError("sampler called")

        monkeypatch.setattr(randmodel, "sample_tau2", no_draw)
        monkeypatch.setattr(randmodel, "sample_polycyclic_presentation", no_draw)
        cases = [
            (Tau2ModelParams(2, 1, 1), "regular"),
            (PolycyclicModelParams(3, (None,) * 3, 1, "nilpotent"), "abelianization_finite"),
        ]
        for params, prop in cases:
            for trials in (10**12, DEFAULT_ENUM_BUDGET + 1):
                with pytest.raises(BudgetExceededError, match="trials"):
                    montecarlo([prop], params, trials, seed=0)
        # the cap itself is allowed: against a cap of 5, 5 trials run and 6 do not
        monkeypatch.undo()
        monkeypatch.setattr(randmodel, "DEFAULT_ENUM_BUDGET", 5)
        assert montecarlo(["regular"], Tau2ModelParams(2, 1, 1), 5, seed=0)[1] == 5
        with pytest.raises(BudgetExceededError):
            montecarlo(["regular"], Tau2ModelParams(2, 1, 1), 6, seed=0)

    def test_trials_of_any_size_refused(self, default_digit_limit):
        # 10**5000 is over the digit limit: the message names it by count_text's bound
        with pytest.raises(BudgetExceededError) as exc:
            montecarlo(["regular"], Tau2ModelParams(2, 1, 1), 10**5000, seed=0)
        assert str(exc.value) == "more than 10**30 trials requested, budget is 10000000"

    def test_exact_fraction_refuses_relation_models(self):
        with pytest.raises(PreconditionError, match="^exact enumeration is only supported for the tau2 model$"):
            exact_fraction(["abelianization_finite"], PolycyclicModelParams(3, None, 1, "nilpotent"))

    def test_unknown_property(self):
        with pytest.raises(PreconditionError, match="unknown property"):
            montecarlo(["bogus"], Tau2ModelParams(2, 1, 1), 10, seed=0)
        with pytest.raises(PreconditionError, match="'bogus'"):
            exact_fraction(["regular", "bogus"], Tau2ModelParams(2, 1, 1))
        with pytest.raises(PreconditionError):
            montecarlo(["center_is_C"], PolycyclicModelParams(3, (None,) * 3, 1, "nilpotent"), 5, 0)

    def test_determinism_and_thread_independence(self):
        params = Tau2ModelParams(3, 2, 2)
        a = montecarlo(["regular"], params, 400, seed=7)
        b = montecarlo(["regular"], params, 400, seed=7)
        assert a == b

    def test_trial_rng_streams_differ(self):
        assert trial_rng(1, 0).random() != trial_rng(1, 1).random()
        assert trial_rng(1, 5).random() == trial_rng(1, 5).random()

    def test_interval_coverage_over_seeds(self):
        # the exact fraction must land inside the 95% interval in >= 90% of
        # seeded runs
        params = Tau2ModelParams(2, 2, 1)
        (hits,), total = exact_fraction(["csmall_conjunction"], params)
        exact = Fraction(hits, total)
        covered = 0
        runs = 20
        for seed in range(runs):
            (successes,), trials = montecarlo(["csmall_conjunction"], params, 400, seed=seed)
            low, high = wilson_interval(successes, trials)
            if low <= float(exact) <= high:
                covered += 1
        assert covered >= int(0.9 * runs)

    def test_interval_coverage_all_properties(self):
        # same agreement requirement for every registered property, on two
        # small sample spaces; one pass counts all properties
        names = list(TAU2_PROPERTIES)
        for params, runs, trials in (
            (Tau2ModelParams(2, 2, 1), 10, 300),
            (Tau2ModelParams(3, 2, 1), 5, 300),
        ):
            hits, total = exact_fraction(names, params)
            estimates = [montecarlo(names, params, trials, seed=seed) for seed in range(runs)]
            for k, name in enumerate(names):
                exact = Fraction(hits[k], total)
                covered = sum(
                    1
                    for mc_hits, mc_trials in estimates
                    if (lambda low, high: low <= float(exact) <= high)(
                        *wilson_interval(mc_hits[k], mc_trials)
                    )
                )
                assert covered >= int(0.9 * runs), (name, params, covered)

    def test_all_registered_properties_run(self):
        params = Tau2ModelParams(2, 2, 1)
        hits, trials = montecarlo(list(TAU2_PROPERTIES), params, 50, seed=3)
        assert len(hits) == len(TAU2_PROPERTIES)
        assert all(0.0 <= h / trials <= 1.0 for h in hits)
        poly = PolycyclicModelParams(3, (None,) * 3, 2, "nilpotent")
        hits, trials = montecarlo(list(POLYCYCLIC_PROPERTIES), poly, 50, seed=3)
        assert len(hits) == len(POLYCYCLIC_PROPERTIES)
        assert all(0.0 <= h / trials <= 1.0 for h in hits)


class TestHardAssertions:
    def test_wide_center_always_irregular(self):
        # m > n(n-1)/2: non-regular with infinite-index derived subgroup on
        # every presentation, enumerated exhaustively
        from tau2.structure import derived_report, is_regular

        for m in (2, 3):
            params = Tau2ModelParams(2, m, 1)
            for p in enumerate_tau2(params):
                assert not is_regular(p)
                assert not derived_report(p)[1]

    def test_monotone_conjunction_trend(self):
        fractions = []
        for ell in (1, 2):
            (hits,), total = exact_fraction(["csmall_conjunction"], Tau2ModelParams(3, 2, ell))
            fractions.append(Fraction(hits, total))
        assert fractions[0] <= fractions[1]
        _, bound = count_bound_p(3, 2, 2, "main")
        assert fractions[1] >= bound

    def test_derived_rank_fraction_exceeds_counting_bound(self):
        # exact fraction with full derived rank at n=3, m=2, ell=1: the
        # three exponent vectors must not lie on one line through 0; lines
        # in the one-bounded box have 3 points, so 729 - (4*27 - 3) = 624
        (hits,), total = exact_fraction(["derived_rank_is_r"], Tau2ModelParams(3, 2, 1))
        assert (hits, total) == (624, 729)
        _, bound = count_bound_p(3, 2, 1, "regularity")
        assert Fraction(hits, total) >= bound == Fraction(2, 3)
