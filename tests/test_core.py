"""Presentations, normal-form arithmetic, and the rewriting oracle.

The closed multiplication/power/commutator formulas are validated against
the literal letter-rewriting oracle and against repeated multiplication
before anything else in the package gets to rely on them.
"""

import itertools
import pathlib
import random

import pytest

import tau2
from tau2 import randmodel
from tau2.core import (
    InvariantReport,
    MalcevElement,
    Tau2Presentation,
    _pair_into,
    check_budget,
    commutator,
    int_fields,
    int_text,
    invariant_report,
    inverse,
    multiply,
    parse_presentation,
    power,
    table_slot,
)
from tau2 import structure
from tau2.cli import _parse_config
from tau2.dioph import Poly, box_solve, encode_system, parse_element, parse_equations, parse_system, ring_window_report
from tau2.errors import BudgetExceededError, ParseError, PresentationMismatchError
from tau2.intlin import LatticeBasis
from tau2.randmodel import PolycyclicModelParams, Tau2ModelParams

from conftest import random_element, random_presentation, random_word
from oracles import format_presentation, from_word, invariant_ranks_by_bareiss, parse_word, rewrite_oracle


class TestPresentation:
    def test_heisenberg(self, heisenberg):
        assert heisenberg.n == 2 and heisenberg.m == 1
        assert heisenberg.lam(1, 1, 2) == 1

    def test_free_abelian(self):
        p = Tau2Presentation(2, 0, ())
        assert p.m == 0
        assert commutator(p.generator_a(1), p.generator_a(2)).is_identity()

    def test_antisymmetric_accessor(self, heisenberg):
        assert heisenberg.lam(1, 2, 1) == -1
        assert heisenberg.lam(1, 1, 1) == 0
        assert heisenberg.lam(1, 2, 2) == 0

    def test_table_validation(self):
        # the keyed front end refuses every key outside 1 <= t <= m, 1 <= i < j <= n
        for key in [(1, 2, 2), (1, 2, 1), (2, 1, 2), (0, 1, 2), (1, 0, 2), (1, 1, 3)]:
            with pytest.raises(ValueError, match="outside"):
                Tau2Presentation.from_nonzero(2, 1, {key: 1})
        with pytest.raises(ValueError, match="outside"):
            Tau2Presentation.from_nonzero(2, 1, {(1, 1, 2): 1, (1, 2, 1): -1})
        with pytest.raises(ValueError):
            Tau2Presentation.from_nonzero(-1, 0, {})

    def test_lam_reads_flat_table(self):
        rng = random.Random(40)
        for _ in range(30):
            n, m = rng.randint(0, 5), rng.randint(0, 3)
            slots = [(t, i, j) for t in range(1, m + 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            flat = [rng.randint(-9, 9) for _ in slots]
            p = Tau2Presentation(n, m, flat)
            assert p == Tau2Presentation.from_nonzero(n, m, dict(zip(slots, flat)))
            for (t, i, j), value in zip(slots, flat):
                assert p.lam(t, i, j) == value
                assert p.lam(t, j, i) == -value
            for t in range(1, m + 1):
                for i in range(1, n + 1):
                    assert p.lam(t, i, i) == 0
            for bad in [(0, 1, 1), (m + 1, 1, 1), (1, 0, 1), (1, 1, n + 1), (1, -1, 1)]:
                with pytest.raises(IndexError):
                    p.lam(*bad)

    def test_element_shape_and_generator_range(self, heisenberg):
        with pytest.raises(ValueError, match="coordinate lengths do not match"):
            MalcevElement(heisenberg, (1,), (0,))
        with pytest.raises(IndexError, match="c_2 out of range"):
            heisenberg.generator_c(2)

    def test_constructor_validation(self):
        # a table with missing or extra entries, or a negative count, is refused
        for n, m, flat in [(3, 2, (1,) * 5), (3, 2, (1,) * 7), (2, 1, ()), (2, 1, (1, 2)), (2, 0, (1,))]:
            with pytest.raises(ValueError, match=f"needs {m * n * (n - 1) // 2} entries"):
                Tau2Presentation(n, m, flat)
        with pytest.raises(ValueError, match="nonnegative"):
            Tau2Presentation(-1, 0, ())
        with pytest.raises(ValueError, match="nonnegative"):
            Tau2Presentation(2, -1, ())

    def test_counts_must_be_integers(self):
        # a float count is refused even where the table it asks for is empty
        for args in ((2.0, 0, []), (2, 1.0, [1])):
            with pytest.raises(TypeError):
                Tau2Presentation(*args)
        three = type("Three", (), {"__index__": lambda self: 3})()
        p = Tau2Presentation(three, three, [0] * 9)
        assert (p.n, p.m) == (3, 3) and type(p.n) is int and type(p.m) is int

    def test_table_is_the_flat_input(self):
        # the constructor, the keyed front end and the reader build
        # the same table, and equality and hashing agree across the three
        rng = random.Random(42)
        for _ in range(200):
            n, m = rng.randint(0, 6), rng.randint(0, 4)
            order = [(t, i, j) for t in range(1, m + 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            flat = [rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-(10**40), 10**40))) for _ in order]
            built = [
                Tau2Presentation(n, m, flat),
                Tau2Presentation(n, m, iter(flat)),
                Tau2Presentation.from_nonzero(n, m, {key: v for key, v in zip(order, flat) if v}),
                parse_presentation(format_presentation(Tau2Presentation(n, m, flat))),
            ]
            for p in built:
                assert p.table == tuple(flat) and type(p.table) is tuple, (n, m, flat)
                assert p == built[0] and hash(p) == hash(built[0])
                assert repr(p) == f"Tau2Presentation(n={n}, m={m}, {sum(map(bool, flat))} nonzero exponents)"
            if any(flat):
                k = next(k for k, v in enumerate(flat) if v)
                other = Tau2Presentation(n, m, flat[:k] + [-flat[k]] + flat[k + 1 :])
                assert other != built[0] and other.table != built[0].table

    def test_exponents_must_be_integers(self):
        # no silent truncation or conversion: 2.5, -1.5 and "7" are not exponents
        for bad in (2.5, -1.5, 2.0, "7"):
            with pytest.raises(TypeError):
                Tau2Presentation(2, 1, [bad])
            with pytest.raises(TypeError):
                Tau2Presentation.from_nonzero(2, 1, {(1, 1, 2): bad})

        class Seven:
            def __index__(self):
                return 7

        # anything with __index__ is an integer, stored as a plain int
        for p in (Tau2Presentation(2, 1, [Seven()]), Tau2Presentation.from_nonzero(2, 1, {(1, 1, 2): Seven()})):
            assert p.lam(1, 1, 2) == 7 and type(p.lam(1, 1, 2)) is int and p.lam(1, 2, 1) == -7

    def test_model_parameters_must_be_integers(self):
        # the model parameters follow the same rule: a float or a string is no count
        for bad in (2.5, -1.5, 2.0, "7"):
            for args in ((bad, 1, 1), (2, bad, 1), (2, 1, bad)):
                with pytest.raises(TypeError):
                    Tau2ModelParams(*args)
            for args in ((bad, None, 1), (3, None, bad)):
                with pytest.raises(TypeError):
                    PolycyclicModelParams(*args, "nilpotent")

        seven = type("Seven", (), {"__index__": lambda self: 7})()
        params = Tau2ModelParams(2, 1, seven)
        assert type(params.ell) is int and params.sample_space_size == 15
        params = PolycyclicModelParams(seven, None, seven, "nilpotent")
        assert (params.n, params.ell, params.s) == (7, 7, (None,) * 7) and type(params.n) is int

    def test_element_coordinates_and_powers_must_be_integers(self, heisenberg):
        # the same rule as the constructor: no truncation of 2.5, no conversion of "3"
        with pytest.raises(TypeError):
            heisenberg.element((2.5, "3"), (-1.5,))
        for alpha, gamma in (((2, "3"), (0,)), ((2, 3), (-1.5,)), ((2.0, 3), (0,))):
            with pytest.raises(TypeError):
                heisenberg.element(alpha, gamma)
        a1 = heisenberg.generator_a(1)
        for k in (2.7, 2.0, "2"):
            with pytest.raises(TypeError):
                power(a1, k)
            with pytest.raises(TypeError):
                a1**k
        seven = type("Seven", (), {"__index__": lambda self: 7})()
        assert heisenberg.element((seven, 0), (seven,)).alpha == (7, 0)
        assert power(a1, seven) == heisenberg.element((7, 0), (0,))

    def test_table_slot_is_enumeration_order(self):
        for n in range(7):
            for m in range(4):
                order = [(t, i, j) for t in range(1, m + 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
                assert [table_slot(n, *key) for key in order] == list(range(len(order))), (n, m)

    def test_from_nonzero_matches_full_table(self):
        rng = random.Random(41)
        for _ in range(500):
            n, m = rng.randint(0, 6), rng.randint(0, 3)
            order = [(t, i, j) for t in range(1, m + 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            flat = [rng.choice((0, 0, 0, rng.randint(-50, 50))) for _ in order]
            sparse = {key: v for key, v in zip(order, flat) if v}
            keys = list(sparse)
            rng.shuffle(keys)
            p = Tau2Presentation.from_nonzero(n, m, {key: sparse[key] for key in keys})
            assert p == Tau2Presentation(n, m, flat), (n, m, flat)
            for (t, i, j), v in zip(order, flat):
                assert p.lam(t, i, j) == v and p.lam(t, j, i) == -v

    def test_degenerate_shapes_allowed(self):
        for n, m in [(0, 0), (0, 3), (1, 2)]:
            p = Tau2Presentation.from_nonzero(n, m)
            assert p.identity().is_identity()

    def test_mixing_presentations_is_an_error(self, heisenberg):
        other = Tau2Presentation.from_nonzero(2, 1, {(1, 1, 2): 2})
        with pytest.raises(PresentationMismatchError):
            multiply(heisenberg.identity(), other.identity())
        with pytest.raises(PresentationMismatchError):
            commutator(heisenberg.generator_a(1), other.generator_a(2))

    def test_equal_presentations_mix(self, heisenberg):
        # the identity fast path must not turn equal presentations into a mismatch
        twin = Tau2Presentation.from_nonzero(2, 1, {(1, 1, 2): 1})
        assert twin is not heisenberg
        z = multiply(heisenberg.generator_a(2), twin.generator_a(1))
        assert z.alpha == (1, 1) and z.gamma == (-1,)
        assert commutator(heisenberg.generator_a(1), twin.generator_a(2)) == heisenberg.generator_c(1)


class TestArithmetic:
    def test_a2_times_a1(self, heisenberg):
        z = multiply(heisenberg.generator_a(2), heisenberg.generator_a(1))
        assert z.alpha == (1, 1) and z.gamma == (-1,)

    def test_identity_neutral(self, heisenberg):
        rng = random.Random(0)
        x = random_element(rng, heisenberg)
        assert multiply(x, heisenberg.identity()) == x
        assert multiply(heisenberg.identity(), x) == x

    def test_abelian_gamma_adds(self):
        p = Tau2Presentation.from_nonzero(2, 2)
        x = p.element((1, 2), (3, 4))
        y = p.element((5, -1), (0, 2))
        assert multiply(x, y).gamma == (3, 6)

    def test_inverse_example(self, heisenberg):
        x = multiply(heisenberg.generator_a(1), heisenberg.generator_a(2))
        inv = inverse(x)
        assert inv.alpha == (-1, -1) and inv.gamma == (-1,)
        assert multiply(x, inv).is_identity()

    def test_power_examples(self, heisenberg):
        x = random_element(random.Random(1), heisenberg)
        assert power(x, 0).is_identity()
        a1 = heisenberg.generator_a(1)
        assert power(a1, 3).alpha == (3, 0) and power(a1, 3).gamma == (0,)

    def test_power_matches_repeated_multiplication(self):
        rng = random.Random(2)
        for _ in range(60):
            p = random_presentation(rng, rng.randint(0, 4), rng.randint(0, 4), 5)
            x = random_element(rng, p)
            for k in range(-20, 21):
                acc = p.identity()
                for _ in range(abs(k)):
                    acc = multiply(acc, x if k > 0 else inverse(x))
                assert power(x, k) == acc

    def test_group_axioms_random(self):
        rng = random.Random(3)
        for _ in range(2000):
            p = random_presentation(rng, rng.randint(0, 4), rng.randint(0, 4), 5)
            x, y, z = (random_element(rng, p) for _ in range(3))
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
            assert multiply(x, inverse(x)).is_identity()
            assert multiply(inverse(x), x).is_identity()


class TestCommutator:
    def test_generators(self, heisenberg):
        c = commutator(heisenberg.generator_a(1), heisenberg.generator_a(2))
        assert c == heisenberg.generator_c(1)

    def test_self_commutator_trivial(self, heisenberg):
        x = random_element(random.Random(4), heisenberg)
        assert commutator(x, x).is_identity()

    def test_worked_three_generator_example(self):
        p = Tau2Presentation.from_nonzero(
            3, 2, {(1, 1, 2): 1, (2, 1, 3): 1, (1, 2, 3): 2, (2, 2, 3): 3}
        )
        x = p.element((1, 1, 0), (0, 0))
        y = p.generator_a(3)
        got = commutator(x, y)
        chain = multiply(multiply(inverse(x), inverse(y)), multiply(x, y))
        assert got == chain
        assert got.gamma == (2, 4)

    def test_matches_multiply_chain_and_antisymmetry(self):
        rng = random.Random(5)
        for _ in range(500):
            p = random_presentation(rng, rng.randint(0, 4), rng.randint(0, 4), 5)
            x, y = random_element(rng, p), random_element(rng, p)
            chain = multiply(multiply(inverse(x), inverse(y)), multiply(x, y))
            assert commutator(x, y) == chain
            assert commutator(x, y) == inverse(commutator(y, x))

    def test_bilinearity(self):
        rng = random.Random(6)
        for _ in range(300):
            p = random_presentation(rng, rng.randint(2, 4), rng.randint(1, 4), 5)
            x, x2, y = (random_element(rng, p) for _ in range(3))
            lhs = commutator(multiply(x, x2), y)
            rhs = multiply(commutator(x, y), commutator(x2, y))
            assert lhs == rhs

    def test_central_part_invisible(self):
        rng = random.Random(7)
        for _ in range(300):
            p = random_presentation(rng, rng.randint(1, 4), rng.randint(1, 4), 5)
            x, y = random_element(rng, p), random_element(rng, p)
            c = p.element((0,) * p.n, [rng.randint(-5, 5) for _ in range(p.m)])
            assert commutator(multiply(x, c), y) == commutator(x, y)


class TestHalfForm:
    """``_pair_into``, the one loop over (i < j, t) pairs, against a direct
    double sum over ``p.forms``, and the exponents each law reads through it."""

    @staticmethod
    def vector(rng, n, symbol=None):
        """Entries in [-5, 5], all zero one time in five; with a symbol, as
        linear ``Poly`` coordinates v*Si + w that are zero where v is."""
        values = [0] * n if rng.random() < 0.2 else [rng.randint(-5, 5) for _ in range(n)]
        if symbol is None:
            return values
        return [Poly({(f"{symbol}{i}",): v, (): v and rng.randint(-5, 5)}) for i, v in enumerate(values)]

    @pytest.mark.parametrize("symbolic", [False, True], ids=["int", "Poly"])
    def test_matches_double_sum(self, symbolic):
        rng = random.Random(21)
        zero = Poly() if symbolic else 0
        for _ in range(300):
            p = random_presentation(rng, rng.randint(0, 5), rng.randint(0, 4), 5)
            xa = self.vector(rng, p.n, "X" if symbolic else None)
            ya = self.vector(rng, p.n, "Y" if symbolic else None)
            scale = rng.randint(-5, 5)
            start = [Poly.const(c) if symbolic else c for c in (rng.randint(-5, 5) for _ in range(p.m))]
            half = [
                sum((form[i][j] * xa[i] * ya[j] for i in range(p.n) for j in range(i + 1, p.n)), zero)
                for form in p.forms
            ]
            gamma = list(start)
            _pair_into(p, gamma, xa, ya, scale)
            assert gamma == [g + scale * h for g, h in zip(start, half)]

    def test_laws_read_each_needed_exponent_once(self, monkeypatch):
        """Each law reads lam(t, i, j), i < j, once per t and per pair that
        carries a nonzero product; the commutator's two passes read the
        ordered pairs i != j of an i != j loop."""
        reads = []
        lam = Tau2Presentation.lam
        monkeypatch.setattr(Tau2Presentation, "lam", lambda p, t, i, j: reads.append((t, i, j)) or lam(p, t, i, j))

        def read_by(law):
            reads.clear()
            law()
            return sorted(reads)

        rng = random.Random(22)
        for _ in range(200):
            p = random_presentation(rng, rng.randint(0, 5), rng.randint(0, 4), 5)
            x, y = (p.element(self.vector(rng, p.n), [0] * p.m) for _ in range(2))
            k = rng.randint(-3, 3)
            pairs = [(i, j) for i in range(1, p.n + 1) for j in range(1, p.n + 1) if i != j]
            want = lambda ok: sorted((t, min(ij), max(ij)) for t in range(1, p.m + 1) for ij in pairs if ok(*ij))
            assert read_by(lambda: multiply(x, y)) == want(lambda i, j: i < j and y.alpha[i - 1] and x.alpha[j - 1])
            assert read_by(lambda: power(x, k)) == (
                want(lambda i, j: i < j and x.alpha[i - 1] and x.alpha[j - 1]) if k * (k - 1) else []
            )
            assert read_by(lambda: commutator(x, y)) == want(lambda i, j: x.alpha[i - 1] and y.alpha[j - 1])


class TestWords:
    def test_empty_word(self, heisenberg):
        assert from_word(heisenberg, []).is_identity()
        assert rewrite_oracle(heisenberg, []).is_identity()

    def test_commutator_word(self, heisenberg):
        w = [("a", 1, -1), ("a", 2, -1), ("a", 1, 1), ("a", 2, 1)]
        assert from_word(heisenberg, w) == heisenberg.generator_c(1)
        assert rewrite_oracle(heisenberg, w) == heisenberg.generator_c(1)

    def test_central_letters_commute(self, heisenberg):
        w = [("c", 1, 1), ("a", 1, 1)]
        e = from_word(heisenberg, w)
        assert e.alpha == (1, 0) and e.gamma == (1,)
        assert rewrite_oracle(heisenberg, w) == e

    def test_oracle_equivalence_random(self):
        rng = random.Random(8)
        checked = 0
        while checked < 1200:
            p = random_presentation(rng, rng.randint(0, 3), rng.randint(0, 3), 3)
            w = random_word(rng, p)
            assert from_word(p, w) == rewrite_oracle(p, w)
            checked += 1

    def test_invalid_letters(self, heisenberg):
        with pytest.raises(ValueError):
            from_word(heisenberg, [("a", 3, 1)])
        with pytest.raises(ValueError):
            from_word(heisenberg, [("b", 1, 1)])
        with pytest.raises(ValueError):
            from_word(heisenberg, [("a", 1, 2)])

    def test_parse_word(self, heisenberg):
        assert parse_word(heisenberg, "1") == ()
        assert parse_word(heisenberg, "a1*a2^-1") == (("a", 1, 1), ("a", 2, -1))
        assert parse_word(heisenberg, "a1^3") == (("a", 1, 1),) * 3
        assert parse_element(heisenberg, "a1 c1^2").gamma == (2,)
        with pytest.raises(ParseError):
            parse_word(heisenberg, "a9")
        with pytest.raises(ParseError):
            parse_word(heisenberg, "x1")
        # a superscript digit is a digit to str.isdigit but no integer to int()
        for text in ("a\u00b2", "c\u00b9", "a1^\u00b2"):
            with pytest.raises(ParseError):
                parse_word(heisenberg, text)

    def test_dangling_caret_is_a_parse_error(self, heisenberg):
        # a caret needs an exponent, as in the equation parser's "x = a1^"
        for text in ("a1^", "a1^ a2", "a1^*a2", "c1 a2^"):
            with pytest.raises(ParseError, match="bad exponent"):
                parse_word(heisenberg, text)
            with pytest.raises(ParseError):
                parse_element(heisenberg, text)

    def test_parse_element_matches_expanded_word(self):
        # closed-form powers per token agree with the +/-1 letter expansion
        rng = random.Random(10)
        for _ in range(200):
            p = random_presentation(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
            tokens = []
            for _ in range(rng.randint(0, 4)):
                kind = rng.choice("ac")
                idx = rng.randint(1, p.n if kind == "a" else p.m)
                tokens.append(f"{kind}{idx}^{rng.randint(-5, 5)}")
            text = " ".join(tokens) or "1"
            assert parse_element(p, text) == from_word(p, parse_word(p, text))

    def test_parse_element_large_exponent(self, heisenberg):
        e = parse_element(heisenberg, "a1^100000000*a2^-3")
        assert e.alpha == (10**8, -3) and e.gamma == (0,)


def every_small_presentation():
    """Every presentation with n, m <= 3 and exponents in {-1, 0, 1}."""
    for n in range(4):
        for m in range(4):
            for values in itertools.product((-1, 0, 1), repeat=m * n * (n - 1) // 2):
                yield Tau2Presentation(n, m, values)


class TestInvariantReport:
    def test_heisenberg(self, heisenberg):
        r = invariant_report(heisenberg)
        assert r == InvariantReport(
            rank_center=1,
            rank_g_mod_center=2,
            rank_derived=1,
            rank_g_mod_c=2,
            span_identity_holds=True,
            sandwich_holds=True,
        )

    def test_abelian(self):
        r = invariant_report(Tau2Presentation.from_nonzero(2, 2))
        assert r.rank_center == 4 and r.rank_g_mod_center == 0 and r.rank_derived == 0
        assert r.span_identity_holds and r.sandwich_holds

    def test_partial_center(self):
        p = Tau2Presentation.from_nonzero(3, 1, {(1, 1, 2): 1})
        r = invariant_report(p)
        assert r.rank_center == 2 and r.rank_g_mod_center == 2
        assert r.span_identity_holds and r.sandwich_holds

    def test_identities_hold_exhaustively(self):
        # The two identities hold by construction, so the ranks behind them
        # are checked against Bareiss ranks too.
        for p in every_small_presentation():
            r = invariant_report(p)
            assert r.span_identity_holds, (p.n, p.forms)
            assert r.sandwich_holds, (p.n, p.forms)
            assert (r.rank_g_mod_center, r.rank_derived) == invariant_ranks_by_bareiss(p), (p.n, p.forms)

    @pytest.mark.parametrize("broken", ["kernel_basis", "rank"])
    def test_bareiss_ranks_catch_a_wrong_rank(self, monkeypatch, broken):
        # a center basis short of its last vector, or a derived rank one too
        # small, keeps both identities but not the Bareiss ranks
        real = getattr(structure, broken)
        if broken == "kernel_basis":
            monkeypatch.setattr(structure, broken, lambda m: LatticeBasis(m.cols, real(m).vectors[:-1]))
        else:
            monkeypatch.setattr(structure, broken, lambda m: max(real(m) - 1, 0))
        wrong = 0
        for p in every_small_presentation():
            r = invariant_report(p)
            assert r.span_identity_holds and r.sandwich_holds
            wrong += (r.rank_g_mod_center, r.rank_derived) != invariant_ranks_by_bareiss(p)
        assert wrong


class TestPresentationFormat:
    def test_round_trip(self, heisenberg):
        text = format_presentation(heisenberg)
        assert parse_presentation(text) == heisenberg

    def test_random_round_trips(self):
        rng = random.Random(9)
        for _ in range(50):
            p = random_presentation(rng, rng.randint(0, 4), rng.randint(0, 4), 7)
            assert parse_presentation(format_presentation(p)) == p

    def test_shuffled_records_parse_same(self):
        rng = random.Random(10)
        for _ in range(50):
            p = random_presentation(rng, rng.randint(0, 5), rng.randint(0, 3), 7)
            lines = format_presentation(p).splitlines()
            records = lines[2:]
            rng.shuffle(records)
            assert parse_presentation("\n".join(lines[:2] + records) + "\n") == p

    def test_size_budget_messages(self):
        # presentation files and the tau2 model share one check and keep their wording
        with pytest.raises(BudgetExceededError) as exc:
            parse_presentation("n = 99\nm = 4\n")
        assert str(exc.value) == "presentation with n=99, m=4 needs 1009503 matrix entries, budget is 1000000"
        with pytest.raises(BudgetExceededError) as exc:
            Tau2ModelParams(99, 4, 1)
        assert str(exc.value) == "model with n=99, m=4 needs 1009503 matrix entries, budget is 1000000"

    def test_comments_and_defaults(self):
        p = parse_presentation("# comment\nn = 2\nm = 2\nlambda 1 1 2 = 5\n\n")
        assert p.lam(1, 1, 2) == 5 and p.lam(2, 1, 2) == 0

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("n = 2\n", "both n and m"),
            ("n = 2\nm = 1\nlambda 1 1 2 = 1\nlambda 1 1 2 = 2\n", "duplicate"),
            ("n = 2\nm = 1\nlambda 1 2 1 = 1\n", "i < j"),
            ("n = 2\nm = 1\nlambda 2 1 2 = 1\n", "out of range"),
            ("lambda 1 1 2 = 1\nn = 2\nm = 1\n", "before"),
            ("n = x\nm = 1\n", "integer"),
            ("n = 2\nm = 1\nbogus = 3\n", "unrecognized"),
            ("n = -1\nm = 1\n", "nonnegative"),
            ("n = 2\nm = 1\nn = 3\n", "n set twice"),
            ("m = 1\nm = 1\nn = 2\n", "m set twice"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_presentation(text)

    def test_duplicate_at_first_and_last_slot(self):
        # the first slot is lam(1, 1, 2), the last lam(m, n-1, n)
        for n, m in ((3, 1), (3, 2), (5, 3), (9, 4)):
            text = f"n = {n}\nm = {m}\nlambda 1 1 2 = 4\nlambda {m} {n - 1} {n} = 5\n"
            p = parse_presentation(text)
            assert p.table[0] == 4 and p.table[-1] == 5 and p.table.count(0) == len(p.table) - 2
            for t, i, j in ((1, 1, 2), (m, n - 1, n)):
                with pytest.raises(ParseError) as exc:
                    parse_presentation(text + f"lambda {t} {i} {j} = 4\n")
                assert str(exc.value) == f"line 5: duplicate lambda record for ({t}, {i}, {j})", (n, m)

    def test_size_budget(self):
        # (m+n)*n*n against 10**6: 102*99*99 = 999702 passes, 103*99*99 does not
        assert parse_presentation("n = 99\nm = 3\n").m == 3
        with pytest.raises(BudgetExceededError, match="1009503 matrix entries"):
            parse_presentation("n = 99\nm = 4\n")
        assert parse_presentation("n = 100\nm = 0\n").n == 100
        # no forms at all still leaves the n x n transforms to pay for
        with pytest.raises(BudgetExceededError):
            parse_presentation("n = 100000\nm = 0\n")
        # refused as soon as n and m are known, before any later line is read
        with pytest.raises(BudgetExceededError):
            parse_presentation("m = 100\nn = 100000\nlambda 1 1 2 = x\n")

    def test_error_carries_line_number(self):
        try:
            parse_presentation("n = 2\nm = 1\nlambda 1 2 1 = 1\n")
        except ParseError as exc:
            assert exc.line == 3
        else:
            pytest.fail("expected a parse error")


class TestLineSyntax:
    """Every line-oriented input format reads its lines through ``core.records``
    and its integer fields through ``core.int_fields``."""

    HEIS = Tau2Presentation.from_nonzero(2, 1, {(1, 1, 2): 1})
    # format: (reader, valid text, the same text with one non-integer field, its line)
    FORMATS = {
        "presentation": (parse_presentation, "n = 2\nm = 1\nlambda 1 1 2 = 3\n", "n = 2\nm = 1\nlambda 1 1 x = 3\n", 3),
        "config": (
            _parse_config,
            "model = tau2\nn = 2\nm = 1\nell = 1 2\nproperties = regular\ntrials = 5\nseed = 3\n",
            "model = tau2\nn = 2\nm = 1\nell = 1 2\nproperties = regular\ntrials = many\nseed = 3\n",
            6,
        ),
        "equations": (
            lambda text: parse_equations(TestLineSyntax.HEIS, text),
            "x = a1^2\n[x,y] = c1^-1\n",
            "x = a1^2\n[x,y] = c1^q\n",
            2,
        ),
        "integer system": (parse_system, "vars A B\n1*A*B + -2*B = 3\n0 = 0\n", "vars A B\n1*A*B + q*B = 3\n0 = 0\n", 2),
    }

    LONG = "1" + "0" * 4999  # over Python's 4,300-digit limit on int(str)
    # format: (text with one field of 5,000 digits, its line)
    LONG_FIELDS = {
        "presentation": (f"n = 2\nm = 1\nlambda 1 1 2 = -{LONG}\n", 3),
        "config": (f"model = tau2\nn = 2\nm = 1\nell = 1 2\nproperties = regular\ntrials = {LONG}\nseed = 3\n", 6),
        "equations": (f"x = a1^2\n[x,y] = c1^-{LONG}\n", 2),
        "integer system": (f"vars A B\n1*A*B + -{LONG}*B = 3\n0 = 0\n", 2),
    }

    @staticmethod
    def decorate(text: str) -> str:
        """A comment line and a blank line first, an inline comment on every
        record and a blank line after it: record k moves to line 2k + 1."""
        return "# comment line\n\n" + "".join(f"{line}   # inline comment\n\n" for line in text.splitlines())

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_comments_and_blank_lines_ignored(self, fmt):
        read, good, _, _ = self.FORMATS[fmt]
        assert read(self.decorate(good)) == read(good)
        assert read("\n\n" + good.replace("\n", "\n  \t\n")) == read(good)

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_non_integer_field_names_its_line(self, fmt):
        read, good, bad, line = self.FORMATS[fmt]
        read(good)
        for text, want in ((bad, line), (self.decorate(bad), 2 * line + 1)):
            with pytest.raises(ParseError) as exc:
                read(text)
            assert exc.value.line == want and str(exc.value).startswith(f"line {want}: ")

    def test_fields_from_a_generator(self):
        # the config reader passes the finite s entries as a generator
        assert int_fields((f for f in ("2", " -3 ", "+4")), "unused") == [2, -3, 4]
        with pytest.raises(ParseError) as exc:
            int_fields((f for f in ("2", "x", "5")), "fields must be integers", 7)
        assert str(exc.value) == "line 7: fields must be integers"
        text = "model = nilpotent\nn = 3\ns = 2 x inf\nell = 1\nproperties = abelianization_finite\ntrials = 1\n"
        with pytest.raises(ParseError) as exc:
            _parse_config(text)
        assert str(exc.value) == "line 3: s entries must be integers or inf"
        assert _parse_config(text.replace(" x ", " 5 "))["s"] == (2, 5, None)

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_integer_over_the_digit_limit_names_the_limit(self, fmt, default_digit_limit):
        text, line = self.LONG_FIELDS[fmt]
        with pytest.raises(ParseError) as exc:
            self.FORMATS[fmt][0](text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: integer of 5000 digits is over the 4300-digit limit"


def _heisenberg_box(radius):
    p = parse_presentation("n = 2\nm = 1\nlambda 1 1 2 = 1\n")
    return box_solve(encode_system(p, parse_equations(p, "[x,y] = c1\n")), radius)


def _heisenberg_window(radius):
    p = parse_presentation("n = 2\nm = 1\nlambda 1 1 2 = 1\n")
    return ring_window_report(p.generator_a(1), p.generator_a(2), radius)


class TestOneBudgetRefusal:
    """Every budget refuses through ``core.check_budget``, in one form:
    "<what the input needs>, budget is <budget>"."""

    SITES = {
        "size": (
            lambda: parse_presentation("n = 99\nm = 4\n"),
            "presentation with n=99, m=4 needs 1009503 matrix entries, budget is 1000000",
        ),
        "relation model": (
            lambda: PolycyclicModelParams(101, None, 1, "nilpotent"),
            "nilpotent model with n=101 needs n*n*n = 1030301, budget is 1000000",
        ),
        "sample space": (
            lambda: randmodel._check_space(Tau2ModelParams(99, 3, 1), randmodel.DEFAULT_ENUM_BUDGET),
            "sample space has more than 10**30 presentations, budget is 10000000",
        ),
        "trials": (
            lambda: randmodel._check_trials(randmodel.DEFAULT_ENUM_BUDGET + 1),
            "10000001 trials requested, budget is 10000000",
        ),
        "box": (
            lambda: _heisenberg_box(10**6),
            "box enumeration needs 16000032000024000008000001 evaluations, budget is 10000000",
        ),
        "window": (lambda: _heisenberg_window(1000), "window 1000 has 4004001 points, budget is 1000000"),
    }

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_message_form(self, site):
        call, message = self.SITES[site]
        with pytest.raises(BudgetExceededError) as exc:
            call()
        assert str(exc.value) == message

    def test_within_budget_passes_the_count_through(self):
        assert check_budget(5, 5, "{} things") == 5
        for count in (6, None):
            with pytest.raises(BudgetExceededError, match=r"^(6|more than 10\*\*30) things, budget is 5$"):
                check_budget(count, 5, "{} things")

    def test_check_budget_is_the_one_raise(self):
        sources = sorted((pathlib.Path(tau2.__file__).parent).glob("*.py"))
        raises = [
            (path.name, line.strip())
            for path in sources
            for line in path.read_text().splitlines()
            if "raise BudgetExceededError(" in line
        ]
        check = 'raise BudgetExceededError(f"{what.format(count_text(count))}, budget is {budget}")'
        assert raises == [("core.py", check)]


class TestIntText:
    """``int_text``, the output twin of ``int_fields``: an integer over
    Python's digit limit is refused through ``check_budget``, naming its
    exact digit count and the limit."""

    @pytest.mark.parametrize(
        "value", [0, -7, 10**4300 - 1, -(10**4300 - 1)], ids=["0", "-7", "10**4300-1", "-10**4300+1"]
    )
    def test_within_the_limit(self, value, default_digit_limit):
        assert int_text(value) == str(value)

    @pytest.mark.parametrize(
        "value,digits",
        [(10**4300, 4301), (-(10**4300), 4301), (2**20000, 6021), (10**6000 - 1, 6000), (10**6000, 6001)],
        ids=["10**4300", "-10**4300", "2**20000", "10**6000-1", "10**6000"],
    )
    def test_over_the_limit(self, value, digits, default_digit_limit):
        with pytest.raises(BudgetExceededError) as exc:
            int_text(value)
        assert str(exc.value) == f"output integer of {digits} digits is over the digit limit, budget is 4300"
