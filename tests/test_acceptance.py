"""Acceptance suite: every release-gating criterion, one test each.

Each test prints a single PASS line (visible with ``pytest -s``) including
its runtime, and fails hard if its stated budget or tolerance is violated.
Run with:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction

from tau2.core import (
    Tau2Presentation,
    commutator,
    inverse,
    multiply,
)
from tau2.dioph import encode_system, odot_equations, ring_window_report
from tau2.intlin import (
    IntMatrix,
    hnf,
    kernel_basis,
    lattice_contains,
    rank,
    snf,
)
from tau2.randmodel import (
    PolycyclicModelParams,
    Tau2ModelParams,
    count_bound_p,
    exact_fraction,
    montecarlo,
    sample_polycyclic_presentation,
    abelianization,
    wilson_interval,
)
from tau2.structure import (
    centralizer,
    derived_report,
    is_regular,
    scalar_ring_is_Z_certificate,
)
from tau2.core import invariant_report

from conftest import random_element, random_presentation, random_word
from oracles import (
    determinant,
    find_csmall_noncommuting_pair,
    from_word,
    invariant_ranks_by_bareiss,
    is_C_c_small,
    lindep_count_check,
    rank_fraction_free,
    rewrite_oracle,
    smith_diagonal_by_minors,
)


class _Budget:
    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"[{self.number:>2}/12] {self.label}: PASS in {elapsed:.1f}s (budget {self.seconds}s)")
            assert elapsed < self.seconds, f"runtime {elapsed:.1f}s over budget {self.seconds}s"
        else:
            print(f"[{self.number:>2}/12] {self.label}: FAIL after {elapsed:.1f}s")
        return False


def test_01_word_oracle_equivalence():
    with _Budget(1, "collection formula vs rewriting oracle", 10):
        rng = random.Random(101)
        for _ in range(1200):
            p = random_presentation(rng, rng.randint(0, 3), rng.randint(0, 3), 3)
            w = random_word(rng, p)
            assert from_word(p, w) == rewrite_oracle(p, w)


def test_02_group_axiom_suite():
    with _Budget(2, "group axioms on random triples", 10):
        rng = random.Random(102)
        for _ in range(10_000):
            p = random_presentation(rng, rng.randint(0, 4), rng.randint(0, 4), 5)
            x, y, z = (random_element(rng, p) for _ in range(3))
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
            assert multiply(x, inverse(x)).is_identity()
            assert multiply(p.identity(), x) == x == multiply(x, p.identity())
            chain = multiply(multiply(inverse(x), inverse(y)), multiply(x, y))
            assert commutator(x, y) == chain
            assert commutator(multiply(x, z), y) == multiply(
                commutator(x, y), commutator(z, y)
            )


def _exhaustive_small_presentations():
    out = []
    for m in (1, 2):
        for values in itertools.product((-1, 0, 1), repeat=m):
            out.append(Tau2Presentation(2, m, values))
    return out


def test_03_centralizer_brute_force():
    with _Budget(3, "centralizer kernel vs box scan", 120):
        rng = random.Random(103)

        def check(p, g):
            lat = centralizer(g)
            for alpha in itertools.product(range(-3, 4), repeat=p.n):
                y = p.element(alpha, (0,) * p.m)
                assert commutator(g, y).is_identity() == lattice_contains(lat, alpha)

        for p in _exhaustive_small_presentations():
            for g in [
                p.generator_a(1),
                p.generator_a(2),
                p.identity(),
                random_element(rng, p, bound=3),
            ]:
                check(p, g)
        for _ in range(50):
            p = random_presentation(rng, 3, 3, 2)
            for g in [
                p.generator_a(1),
                p.generator_a(2),
                p.generator_a(3),
                random_element(rng, p, bound=3),
                random_element(rng, p, bound=3),
            ]:
                check(p, g)


def test_04_rank_identities_no_exceptions():
    with _Budget(4, "rank identities hold on every presentation", 60):
        presentations = _exhaustive_small_presentations()
        rng = random.Random(104)
        presentations += [random_presentation(rng, 3, 3, 2) for _ in range(50)]
        for p in presentations:
            r = invariant_report(p)
            assert r.span_identity_holds
            assert r.sandwich_holds
            # both identities hold by construction; the ranks behind them can fail
            assert (r.rank_g_mod_center, r.rank_derived) == invariant_ranks_by_bareiss(p)


def test_05_exact_asymptotic_anchor():
    with _Budget(5, "exact fractions, interval coverage, counting bound", 300):
        params22 = Tau2ModelParams(2, 2, 1)
        (hits,), total = exact_fraction(["csmall_conjunction"], params22)
        assert (hits, total) == (8, 9)
        (successes,), trials = montecarlo(["csmall_conjunction"], params22, 10_000, seed=42)
        low, high = wilson_interval(successes, trials)
        assert low <= 8 / 9 <= high

        fractions = []
        for ell in (1, 2, 3):
            (h,), t = exact_fraction(["csmall_conjunction"], Tau2ModelParams(3, 2, ell))
            fractions.append(Fraction(h, t))
        assert fractions == sorted(fractions), "fractions must be non-decreasing in ell"
        bounds = [
            count_bound_p(3, 2, 1, "main", "2l")[1],
            count_bound_p(3, 2, 1, "main", "2l+1")[1],
        ]
        assert any(fractions[0] >= b for b in bounds), (fractions[0], bounds)
        for ell, frac in zip((1, 2, 3), fractions):
            lower = count_bound_p(3, 2, ell, "main")[1]
            if lower >= 0:
                assert frac >= lower, (ell, frac, lower)


def test_06_regularity_dichotomy():
    with _Budget(6, "regularity dichotomy at the m threshold", 60):
        from oracles import enumerate_tau2

        narrow = list(enumerate_tau2(Tau2ModelParams(2, 1, 1)))
        good = [p for p in narrow if is_regular(p) and derived_report(p)[1]]
        assert len(good) == 2 and len(narrow) == 3
        assert all(p.lam(1, 1, 2) != 0 for p in good)
        for m in (2, 3):
            for p in enumerate_tau2(Tau2ModelParams(2, m, 1)):
                assert not is_regular(p)
                assert not derived_report(p)[1]


def test_07_ring_window():
    with _Budget(7, "integer arithmetic window inside the group", 60):
        heis = Tau2Presentation.from_nonzero(2, 1, {(1, 1, 2): 1})
        a1, a2 = heis.generator_a(1), heis.generator_a(2)
        assert not ring_window_report(a1, a2, 5)

        rng = random.Random(107)
        passed = 0
        while passed < 20:
            p = random_presentation(rng, 3, 2, 10)
            if not scalar_ring_is_Z_certificate(p):
                continue
            assert not ring_window_report(p.generator_a(1), p.generator_a(2), 5)
            passed += 1

        corrupted = Tau2Presentation.from_nonzero(2, 1, {(1, 1, 2): 2})
        bad_system = encode_system(
            corrupted, odot_equations(corrupted.generator_a(1), corrupted.generator_a(2))
        )
        assert ring_window_report(a1, a2, 5, odot_system=bad_system)


def test_08_dependence_counting_bound():
    with _Budget(8, "dependence-counting bound never violated", 30):
        rng = random.Random(108)
        done = 0
        while done < 100:
            t = rng.randint(1, 4)
            size = rng.randint(1, 3)
            values = sorted(rng.sample(range(-4, 5), size))
            vecs = []
            target = rng.randint(0, t)
            for _ in range(8):
                if len(vecs) == target:
                    break
                cand = tuple(rng.randint(-3, 3) for _ in range(t))
                if rank(IntMatrix.from_rows(vecs + [cand], t)) == len(vecs) + 1:
                    vecs.append(cand)
            count, bound = lindep_count_check(values, t, vecs)
            assert count <= bound
            done += 1


def test_09_no_csmall_pair_wide_shape():
    with _Budget(9, "no non-commuting small-centralizer pairs when rank allows none", 120):
        rng = random.Random(109)
        for _ in range(50):
            p = random_presentation(rng, 5, 2, 2)
            assert derived_report(p)[0] <= (p.n - 1) / 2
            assert find_csmall_noncommuting_pair(p, 2) is None
        heis = Tau2Presentation.from_nonzero(2, 1, {(1, 1, 2): 1})
        pair = find_csmall_noncommuting_pair(heis, 2)
        assert pair is not None
        a1, a2 = heis.generator_a(1), heis.generator_a(2)
        assert is_C_c_small(a1) and is_C_c_small(a2)
        assert not commutator(a1, a2).is_identity()


def test_10_polycyclic_model_trends():
    with _Budget(10, "finite-abelianization trends in the relation models", 120):
        trials = 10_000
        ells = (1, 4, 16)

        def fractions(flavor, s):
            out = []
            for ell in ells:
                params = PolycyclicModelParams(3, s, ell, flavor)
                (hits,), total = montecarlo(["abelianization_finite"], params, trials, seed=110)
                out.append(hits / total)
            return out

        for flavor in ("nilpotent", "polycyclic"):
            # degenerate anchor: with every power exponent infinite the leading
            # generator never appears in a relation row, so no abelianization
            # is finite at any ell
            assert fractions(flavor, (None, None, None)) == [0.0] * len(ells), flavor
            # and at ell=0 every abelianization is infinite
            rng = random.Random(1100)
            params = PolycyclicModelParams(3, (None,) * 3, 0, flavor)
            for _ in range(200):
                pres = sample_polycyclic_presentation(params, rng)
                assert not abelianization(pres)[1]
        # shapes with finite power exponents have a real trend toward 1
        for flavor, s in (("polycyclic", (2, None, None)), ("nilpotent", (2, 3, None))):
            fracs = fractions(flavor, s)
            assert fracs == sorted(fracs), (flavor, s, fracs)
            assert fracs[0] < fracs[-1], (flavor, s, fracs)
            assert fracs[-1] >= 0.95, (flavor, s, fracs)


def test_11_linear_algebra_suite():
    with _Budget(11, "Hermite reconstruction, invariant factors by minors, rank cross-checks", 30):
        rng = random.Random(111)
        for _ in range(1000):
            rows = rng.randint(0, 6)
            cols = rng.randint(0, 6)
            m = IntMatrix.from_rows(
                [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)], cols
            )
            h, u = hnf(m)
            assert u.mul(m) == h
            assert abs(determinant(u)) == 1
            smith = snf(m)
            assert smith == smith_diagonal_by_minors(m)
            diag = [d for d in smith if d != 0]
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0
            assert rank(m) == rank_fraction_free(m) == len(diag)
        # kernel saturation on an exhaustive box
        for _ in range(40):
            cols = rng.randint(1, 4)
            m = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rng.randint(0, 3))],
                cols,
            )
            basis = kernel_basis(m)
            for v in itertools.product(range(-3, 4), repeat=cols):
                assert (all(x == 0 for x in m.mul_vec(v))) == lattice_contains(basis, v)


def test_12_cli_byte_determinism(tmp_path):
    with _Budget(12, "seeded commands byte-identical across runs and threads", 120):
        pres = tmp_path / "heis.pres"
        pres.write_text("n = 2\nm = 1\nlambda 1 1 2 = 1\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "model = tau2\nn = 3\nm = 2\nell = 1 2\n"
            "properties = csmall_conjunction regular\ntrials = 500\nseed = 12\n"
        )
        eqs = tmp_path / "eqs.txt"
        eqs.write_text("[x,y] = c1\n")

        def run(args):
            proc = subprocess.run(
                [sys.executable, "-m", "tau2.cli", *args],
                capture_output=True,
                check=True,
            )
            return proc.stdout

        for args in (
            ["analyze", str(pres)],
            ["encode", str(pres), str(eqs), "--box", "1"],
            ["odot", str(pres), "a1", "a2", "--window", "3"],
        ):
            assert run(args) == run(args)
        outputs = {
            run(["--threads", t, "experiment", str(cfg)]) for t in ("1", "1", "4", "4")
        }
        assert len(outputs) == 1
