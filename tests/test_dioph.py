"""Equation encoding, box solving, serialization, and the ring window.

Round-trip oracle: group solutions found by brute-force arithmetic over a
coordinate box must map exactly onto the integer solutions of the encoded
system, and back.
"""

import hashlib
import itertools
import random

import pytest

from tau2 import dioph
from tau2.core import MalcevElement, Tau2Presentation, commutator, inverse, multiply, power
from tau2.dioph import (
    DiophantineSystem,
    Poly,
    WindowFailure,
    box_solve,
    check_solution,
    encode_system,
    format_system,
    odot_equations,
    parse_element,
    parse_equations,
    parse_system,
    ring_window_report,
    variable_names,
)
from tau2.errors import BudgetExceededError, ParseError, PreconditionError, PresentationMismatchError

from conftest import random_element, random_presentation
from oracles import from_word, rewrite_oracle


class TestPoly:
    def test_const_needs_an_integer(self):
        assert Poly.const(2) == Poly({(): 2})
        for value in (2.5, 2.0, "2"):
            with pytest.raises(TypeError):
                Poly.const(value)


def encode_text(p, text):
    return encode_system(p, parse_equations(p, text))


class TestCommutatorEncoder:
    """[x,y] = w, encoded by the general encoder."""

    def test_heisenberg_c1(self, heisenberg):
        system = encode_text(heisenberg, "[x,y] = c1")
        assert format_system(system) == "vars X1 X2 Y1 Y2\n1*X1*Y2 + -1*X2*Y1 = 1\n"
        assert check_solution(system, {"X1": 1, "X2": 0, "Y1": 0, "Y2": 1})

    def test_identity_rhs_homogeneous(self, heisenberg):
        system = encode_text(heisenberg, "[x,y] = 1")
        assert check_solution(system, {"X1": 0, "X2": 0, "Y1": 0, "Y2": 0})
        for poly in system.constraints:
            assert () not in poly.terms

    def test_specializing_x_to_generator_reproduces_generator_matrix(self):
        # substituting the k-th unit vector for X leaves a linear system in Y
        # whose coefficient matrix is the commutation matrix of the generator
        # a_k (its column k is zero); a zero form t gives the trivially true
        # row 0 = 0, which the encoder drops, so only nonzero forms have rows
        from tau2.intlin import IntMatrix
        from tau2.structure import commutation_matrix

        rng = random.Random(40)
        dropped = 0
        for _ in range(50):
            p = random_presentation(rng, rng.randint(2, 4), rng.randint(1, 3), 4)
            system = encode_text(p, "[x,y] = 1")
            nonzero = [any(map(any, form)) for form in p.forms]
            assert len(system.constraints) == sum(nonzero)
            dropped += len(nonzero) - sum(nonzero)
            for k in range(1, p.n + 1):
                coeffs = []
                for poly in system.constraints:
                    row = [0] * p.n
                    for mono, coeff in poly.terms.items():
                        xs = [v for v in mono if v.startswith("X")]
                        ys = [v for v in mono if v.startswith("Y")]
                        assert len(xs) == 1 and len(ys) == 1
                        if int(xs[0][1:]) == k:
                            row[int(ys[0][1:]) - 1] += coeff
                    coeffs.append(row)
                rows = [row for row, keep in zip(commutation_matrix(p.generator_a(k)).entries, nonzero) if keep]
                assert IntMatrix.from_rows(coeffs, p.n) == IntMatrix.from_rows(rows, p.n)
        assert dropped  # some presentation has a zero form

    def test_agreement_with_group_solutions(self, heisenberg):
        system = encode_text(heisenberg, "[x,y] = c1")
        box = 2
        for ax in itertools.product(range(-box, box + 1), repeat=2):
            for ay in itertools.product(range(-box, box + 1), repeat=2):
                x = heisenberg.element(ax, (0,))
                y = heisenberg.element(ay, (0,))
                group_ok = commutator(x, y) == heisenberg.generator_c(1)
                assignment = {"X1": ax[0], "X2": ax[1], "Y1": ay[0], "Y2": ay[1]}
                assert group_ok == check_solution(system, assignment)


class TestEncodeSystem:
    def test_commuting_constraint(self, heisenberg):
        system = encode_system(heisenberg, parse_equations(heisenberg, "x*y = y*x"))
        assert format_system(system) == "vars X1 X2 Y1 Y2\n1*X1*Y2 + -1*X2*Y1 = 0\n"

    def test_point_constraint(self, heisenberg):
        system = encode_system(heisenberg, parse_equations(heisenberg, "x = a1"))
        assert format_system(system) == "vars X1 X2 Xg1\n1*X1 = 1\n1*X2 = 0\n1*Xg1 = 0\n"

    def test_square_is_not_central_generator(self, heisenberg):
        system = encode_system(heisenberg, parse_equations(heisenberg, "x^2 = c1"))
        assert list(box_solve(system, 5)) == []

    def test_trivial_commutator(self, heisenberg):
        system = encode_system(heisenberg, parse_equations(heisenberg, "[x,x] = 1"))
        assert system.constraints == ()

    def test_unknown_factor_kind_is_refused(self, heisenberg):
        with pytest.raises(ValueError, match="unknown factor kind 'bogus'"):
            encode_system(heisenberg, [((("bogus",),), ())])

    def test_constant_from_another_presentation_is_refused(self, heisenberg):
        # Equations carry no presentation of their own: a constant parsed
        # over one group is refused when the equations are encoded over
        # another, by _fold, however deep the constant sits.
        g32 = Tau2Presentation.from_nonzero(3, 2, GROUP_3X2)
        for p, other in ((heisenberg, g32), (g32, heisenberg)):
            for text in ("x = a1", "[x,a2]^-3 = 1", "x*y = y*(a1*x)^2"):
                with pytest.raises(PresentationMismatchError):
                    encode_system(p, parse_equations(other, text))
            with pytest.raises(PresentationMismatchError):
                encode_system(p, odot_equations(other.generator_a(1), other.generator_a(2)))
            # a base pair split across the two groups is refused by commutator
            with pytest.raises(PresentationMismatchError):
                odot_equations(p.generator_a(1), other.generator_a(2))

    def test_group_round_trip_heisenberg_pairs(self, heisenberg):
        # brute-force both sides: group solutions in the coordinate box vs
        # integer solutions of the encoding, for a two-variable system
        eqs = parse_equations(heisenberg, "[x,y] = c1\nx*y = a1*a2")
        system = encode_system(heisenberg, eqs)
        box = 3
        expected = set()
        coords = list(itertools.product(range(-box, box + 1), repeat=3))
        target = multiply(heisenberg.generator_a(1), heisenberg.generator_a(2))
        for cx in coords:
            x = heisenberg.element(cx[:2], cx[2:])
            for cy in coords:
                y = heisenberg.element(cy[:2], cy[2:])
                if commutator(x, y) == heisenberg.generator_c(1) and multiply(x, y) == target:
                    expected.add(cx + cy)
        got = set()
        for sol in box_solve(system, box):
            got.add(
                (
                    sol["X1"],
                    sol["X2"],
                    sol["Xg1"],
                    sol["Y1"],
                    sol["Y2"],
                    sol["Yg1"],
                )
            )
        assert got == expected
        assert expected  # the scan is not vacuous

    def test_single_variable_round_trip_random(self):
        rng = random.Random(42)
        for _ in range(10):
            p = random_presentation(rng, 2, 2, 2)
            g = p.element(
                [rng.randint(-1, 1) for _ in range(2)], [rng.randint(-1, 1) for _ in range(2)]
            )
            eqs = (((("var", "x"), ("var", "x")), (("const", power(g, 2)),)),)
            system = encode_system(p, eqs)
            box = 3
            expected = set()
            for coords in itertools.product(range(-box, box + 1), repeat=4):
                x = p.element(coords[:2], coords[2:])
                if multiply(x, x) == power(g, 2):
                    expected.add(coords)
            got = {
                (sol["X1"], sol["X2"], sol["Xg1"], sol["Xg2"]) for sol in box_solve(system, box)
            }
            assert got == expected


class TestEncoderAgainstGroupEvaluation:
    """Random equation texts: parse, encode, and compare against direct
    group-arithmetic evaluation on random coordinate assignments."""

    @staticmethod
    def _rand_atom(rng, p, depth):
        r = rng.random()
        if r < 0.30:
            return rng.choice(["x", "y"])
        if r < 0.55 and p.n:
            return f"a{rng.randint(1, p.n)}"
        if r < 0.70 and p.m:
            return f"c{rng.randint(1, p.m)}"
        if r < 0.85 and depth < 2:
            side = TestEncoderAgainstGroupEvaluation._rand_side
            return f"[{side(rng, p, depth + 1)},{side(rng, p, depth + 1)}]"
        if depth < 2:
            return f"({TestEncoderAgainstGroupEvaluation._rand_side(rng, p, depth + 1)})"
        return rng.choice(["x", "y"])

    @staticmethod
    def _rand_side(rng, p, depth=0):
        parts = []
        for _ in range(rng.randint(1, 3)):
            atom = TestEncoderAgainstGroupEvaluation._rand_atom(rng, p, depth)
            if rng.random() < 0.4:
                atom = f"{atom}^{rng.randint(-3, 3)}"
            parts.append(atom)
        return "*".join(parts)

    @staticmethod
    def _evaluate(p, factors, env):
        # pow factors by repeated multiplication, independent of power()
        from tau2.core import inverse as inv

        def repeated(elem, k):
            if k < 0:
                elem, k = inv(elem), -k
            acc = p.identity()
            for _ in range(k):
                acc = multiply(acc, elem)
            return acc

        evaluate = TestEncoderAgainstGroupEvaluation._evaluate
        acc = p.identity()
        for f in factors:
            if f[0] == "const":
                elem = f[1]
            elif f[0] == "var":
                elem = env[f[1]]
            elif f[0] == "comm":
                # written out as u^-1 v^-1 u v, independent of commutator()
                u, v = evaluate(p, f[1], env), evaluate(p, f[2], env)
                elem = multiply(multiply(inv(u), inv(v)), multiply(u, v))
            else:
                elem = repeated(evaluate(p, f[1], env), f[2])
            acc = multiply(acc, elem)
        return acc

    def test_random_equations_agree_with_arithmetic(self):
        from tau2.dioph import alpha_unknown, gamma_unknown

        rng = random.Random(31337)
        for _ in range(150):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            p = random_presentation(rng, n, m, 3)
            text = f"{self._rand_side(rng, p)} = {self._rand_side(rng, p)}"
            eqs = parse_equations(p, text)
            system = encode_system(p, eqs)
            assert parse_system(format_system(system)) == system
            ((lhs, rhs),) = eqs
            for _ in range(10):
                env = {
                    v: p.element(
                        [rng.randint(-3, 3) for _ in range(n)],
                        [rng.randint(-3, 3) for _ in range(m)],
                    )
                    for v in ("x", "y")
                }
                group_truth = self._evaluate(p, lhs, env) == self._evaluate(p, rhs, env)
                assignment = {}
                for v, elem in env.items():
                    for i in range(1, n + 1):
                        assignment[alpha_unknown(v, i)] = elem.alpha[i - 1]
                    for t in range(1, m + 1):
                        assignment[gamma_unknown(v, t)] = elem.gamma[t - 1]
                restricted = {k: assignment[k] for k in system.variables}
                assert group_truth == check_solution(system, restricted), text


class TestSinglePowerPath:
    """Every ^k, of either sign and on any base, is one pow factor raised by
    the closed-form power law; a negative power needs no inversion pass."""

    @staticmethod
    def _rand_tree(rng, p, depth):
        # ("comm", u, v), ("pow", side, k), or a leaf token; a side is a list
        r = rng.random()
        side = TestSinglePowerPath._rand_side
        if depth < 4 and r < 0.25:
            return ("comm", side(rng, p, depth + 1), side(rng, p, depth + 1))
        if depth < 4 and r < 0.5:
            return ("pow", side(rng, p, depth + 1), rng.choice((-7, -3, -2, -1, 2, 5)))
        if r < 0.6:
            return ("pow", [rng.choice(("x", "y", "z", "a1"))], rng.choice((-3, -1, 2)))
        return rng.choice(["x", "y", "z", f"a{rng.randint(1, p.n)}", f"c{rng.randint(1, p.m)}"])

    @staticmethod
    def _rand_side(rng, p, depth=0):
        return [TestSinglePowerPath._rand_tree(rng, p, depth) for _ in range(rng.randint(1, 3))]

    @staticmethod
    def _render(side):
        def atom(t):
            if isinstance(t, str):
                return t
            if t[0] == "pow":
                return f"({TestSinglePowerPath._render(t[1])})^{t[2]}"
            return f"[{TestSinglePowerPath._render(t[1])},{TestSinglePowerPath._render(t[2])}]"

        return "*".join(atom(t) for t in side)

    @staticmethod
    def _evaluate(p, side, env):
        # by the numeric multiply, power and commutator of tau2.core
        evaluate = TestSinglePowerPath._evaluate
        acc = p.identity()
        for t in side:
            if isinstance(t, str):
                if t in env:
                    elem = env[t]
                elif t[0] == "a":
                    elem = p.generator_a(int(t[1:]))
                else:
                    elem = p.generator_c(int(t[1:]))
            elif t[0] == "pow":
                elem = power(evaluate(p, t[1], env), t[2])
            else:
                elem = commutator(evaluate(p, t[1], env), evaluate(p, t[2], env))
            acc = multiply(acc, elem)
        return acc

    def test_encoding_agrees_with_numeric_arithmetic(self):
        # L = R*w, where w := R^-1 L for half of the assignments, so the
        # system must accept exactly the right coordinates, not just reject
        from tau2.dioph import alpha_unknown, gamma_unknown

        rng = random.Random(2718)
        outcomes = [0, 0]
        for _ in range(120):
            p = random_presentation(rng, rng.randint(2, 3), rng.randint(1, 2), 3)
            lhs, rhs = self._rand_side(rng, p), self._rand_side(rng, p)
            text = f"{self._render(lhs)} = {self._render(rhs)}*w"
            system = encode_text(p, text)
            for _ in range(6):
                env = {v: random_element(rng, p, 3) for v in ("x", "y", "z")}
                left, right = self._evaluate(p, lhs, env), self._evaluate(p, rhs, env)
                env["w"] = multiply(power(right, -1), left) if rng.random() < 0.5 else random_element(rng, p, 3)
                group_truth = left == multiply(right, env["w"])
                assignment = {}
                for v, elem in env.items():
                    for i in range(1, p.n + 1):
                        assignment[alpha_unknown(v, i)] = elem.alpha[i - 1]
                    for t in range(1, p.m + 1):
                        assignment[gamma_unknown(v, t)] = elem.gamma[t - 1]
                restricted = {k: assignment[k] for k in system.variables}
                assert check_solution(system, restricted) == group_truth, text
                outcomes[group_truth] += 1
        assert min(outcomes) > 250, outcomes

    def test_negative_power_of_a_composite_factor_is_pinned(self):
        # Byte for byte, including the unknowns' order: the base of each
        # negative power is read inverted, so y is seen before x, then z.
        from tau2.core import parse_presentation

        p = parse_presentation(
            "n = 3\nm = 2\nlambda 1 1 2 = 1\nlambda 1 2 3 = 1\nlambda 2 1 3 = 1\nlambda 2 2 3 = 1\n"
        )
        out = format_system(encode_text(p, "(x*y)^-2*[z,x]^-1 = c1"))
        assert out.splitlines()[0] == "vars Y1 Y2 Y3 Yg1 Yg2 X1 X2 X3 Xg1 Xg2 Z1 Z2 Z3"
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "b48a154e2d60048c6a1eaa7e89dc96bfcd97f9023b4b82bba1df41fbf09a377c"


class TestBoxSolve:
    def test_solution_count_box1(self, heisenberg):
        system = encode_text(heisenberg, "[x,y] = c1")
        sols = list(box_solve(system, 1))
        # independent enumeration of X1*Y2 - X2*Y1 == 1 over {-1,0,1}^4
        brute = sum(
            1
            for a, b, c, d in itertools.product(range(-1, 2), repeat=4)
            if a * d - b * c == 1
        )
        assert len(sols) == brute == 20

    def test_budget_guard(self, heisenberg, monkeypatch):
        system = encode_text(heisenberg, "[x,y] = c1")
        monkeypatch.setattr(dioph, "DEFAULT_BOX_BUDGET", 100)
        with pytest.raises(BudgetExceededError):
            box_solve(system, 10)

    def test_empty_system(self):
        system = DiophantineSystem((), ())
        assert list(box_solve(system, 3)) == [{}]

    def test_missing_variable(self, heisenberg):
        system = encode_text(heisenberg, "[x,y] = c1")
        with pytest.raises(PreconditionError):
            check_solution(system, {"X1": 1})

    def test_lexicographic_order(self, heisenberg):
        system = encode_system(heisenberg, parse_equations(heisenberg, "x*y = y*x"))
        sols = list(box_solve(system, 1))
        keys = [tuple(s[v] for v in system.variables) for s in sols]
        assert keys == sorted(keys)

    @staticmethod
    def brute_force(system, box):
        """Every point of the box, in lexicographic order, kept if it solves."""
        return [
            dict(zip(system.variables, values))
            for values in itertools.product(range(-box, box + 1), repeat=len(system.variables))
            if check_solution(system, dict(zip(system.variables, values)))
        ]

    @staticmethod
    def random_system(rng, nvars):
        names = [f"V{k}" for k in range(nvars)]
        # some unknowns appear in no constraint: first, last or in between
        used = [v for v in names if rng.random() < 0.75] or names
        constraints = []
        for _ in range(rng.randint(0, 3)):
            poly = Poly()
            for _ in range(rng.randint(0, 3) if used else 0):
                kind = rng.random()
                if kind < 0.35:
                    mono = (rng.choice(used),)
                elif kind < 0.55:
                    v = rng.choice(used)
                    mono = (v, v)  # a square
                else:
                    mono = (rng.choice(used), rng.choice(used))
                poly = poly + Poly({tuple(sorted(mono)): rng.choice((-3, -2, -1, 1, 1, 2, 3))})
            rhs = rng.randint(-3, 3) if rng.random() < 0.8 else 0
            constraints.append(poly - Poly.const(rhs))  # no unknowns: 0 = 0 or 0 = rhs
        return DiophantineSystem(tuple(names), tuple(constraints))

    def test_matches_brute_force_on_random_systems(self):
        # Lists are compared, so the order of the solutions counts too.
        rng = random.Random(45)
        seen_free = seen_square = seen_constant = seen_solutions = 0
        for trial in range(3000):
            nvars = rng.randint(0, 5)
            box = rng.randint(0, min(3, 6 - nvars))
            system = self.random_system(rng, nvars)
            if trial % 4 == 0:
                # The vars header lists the unknowns in another order than the
                # one the constraints were written in, so the parsed system is
                # searched, and its solutions listed, in the header's order.
                header = list(system.variables)
                rng.shuffle(header)
                text = format_system(system).split("\n", 1)[1]
                system = parse_system(f"vars {' '.join(header)}\n{text}")
            expected = self.brute_force(system, box)
            assert list(box_solve(system, box)) == expected, (format_system(system), box)
            mentioned = set().union(*(poly.unknowns() for poly in system.constraints))
            seen_free += len(mentioned) < nvars
            seen_square += any(len(set(mono)) < len(mono) for poly in system.constraints for mono in poly.terms)
            seen_constant += any(not poly.unknowns() for poly in system.constraints)
            seen_solutions += bool(expected)
        assert min(seen_free, seen_square, seen_constant) > 300 and 500 < seen_solutions < 2900

    def test_matches_brute_force_on_encoded_systems(self, heisenberg):
        for text, box in (
            ("[x,y] = c1^-2\n[x,z] = c1\n", 2),
            ("x^2 = y^2\n", 1),
            ("x*y = y*x*c1^2\n", 2),
            ("[x,y] = c1\nx = a1^2*c1\n", 3),
        ):
            system = encode_system(heisenberg, parse_equations(heisenberg, text))
            assert list(box_solve(system, box)) == self.brute_force(system, box), text

    def test_budget_counts_the_whole_box(self, monkeypatch):
        # The search visits no point here (A = 9 lies outside the box), but
        # the refusal is still decided by (2*box+1)**unknowns.
        system = parse_system("vars A B C D E F\n1*A = 9\n")
        monkeypatch.setattr(dioph, "DEFAULT_BOX_BUDGET", 531440)
        with pytest.raises(BudgetExceededError, match="531441 evaluations"):
            box_solve(system, 4)
        monkeypatch.setattr(dioph, "DEFAULT_BOX_BUDGET", 531441)
        assert list(box_solve(system, 4)) == []

    @pytest.mark.parametrize("mono", [("A", "B", "B"), ("B", "B", "B"), ("A", "A", "B")])
    def test_refuses_monomials_above_degree_two(self, mono):
        # The search folds each constraint as q*x**2 + a*x == s in its last
        # unknown, which a cubic term does not fit; check_solution takes any
        # degree, so the brute force finds (A, B) = (1, 1) for 1*mono = 1.
        system = DiophantineSystem(("A", "B"), (Poly({mono: 1, (): -1}),))
        assert {"A": 1, "B": 1} in self.brute_force(system, 1)
        with pytest.raises(PreconditionError, match="degree <= 2"):
            box_solve(system, 1)


class TestSerialization:
    def test_format_system_alone_orders_the_terms(self):
        # Rows whose terms were inserted in a shuffled order, under keys that
        # list the unknowns of each cross term against vars order.  The
        # expected lines enumerate the monomials by degree, then by the vars
        # positions of their unknowns.
        rng = random.Random(46)
        for _ in range(300):
            header = rng.sample("ABCDE", rng.randint(1, 5))
            k = len(header)
            monos = [()] + [(i,) for i in range(k)] + [(i, j) for i in range(k) for j in range(i, k)]
            rows, lines = [], []
            for _ in range(rng.randint(1, 3)):
                picked = rng.sample(monos, rng.randint(0, len(monos)))
                chosen = {mono: rng.choice((-3, -2, -1, 1, 2, 3)) for mono in picked}
                lhs = " + ".join(
                    f"{chosen[mono]}*" + "*".join(header[i] for i in mono) for mono in monos[1:] if mono in chosen
                )
                lines.append(f"{lhs or '0'} = {-chosen.get((), 0)}")
                keys = list(chosen)
                rng.shuffle(keys)
                rows.append(Poly({tuple(header[i] for i in reversed(mono)): chosen[mono] for mono in keys}))
            text = "\n".join([f"vars {' '.join(header)}"] + lines) + "\n"
            assert format_system(DiophantineSystem(tuple(header), tuple(rows))) == text
            assert format_system(parse_system(text)) == text

    def test_round_trip_examples(self, heisenberg):
        for text in [
            "vars X1 X2 Y1 Y2\n1*X1*Y2 + -1*X2*Y1 = 1\n",
            "vars\n",
            "vars A B\n2*A = 0\n0 = 3\n",
        ]:
            parsed = parse_system(text)
            assert format_system(parsed) == text
            assert parse_system(format_system(parsed)) == parsed

    def test_round_trip_random_systems(self):
        rng = random.Random(43)
        for _ in range(40):
            p = random_presentation(rng, rng.randint(2, 3), rng.randint(1, 3), 3)
            gamma = [rng.randint(-3, 3) for _ in range(p.m)]
            word = "*".join(f"c{t}^{g}" for t, g in enumerate(gamma, 1))
            system = encode_text(p, f"[x,y] = {word}")
            text = format_system(system)
            assert parse_system(text) == system
            assert format_system(parse_system(text)) == text

    def test_comments_ignored(self):
        system = parse_system("# header\nvars A\n# middle\n1*A = 2\n")
        assert system.variables == ("A",)

    @pytest.mark.parametrize(
        "text",
        [
            "1*A = 2\n",  # constraint before header
            "vars A\n1*B = 0\n",  # undeclared unknown
            "vars A\n1*A\n",  # missing rhs
            "vars A\nfoo*A = 1\n",  # bad coefficient
            "vars A A\n",  # duplicate declaration
            "vars A\n1*A*A*A = 1\n",  # degree 3
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_system(text)

    def test_vars_header_must_appear_once(self):
        with pytest.raises(ParseError, match="line 2: duplicate vars header"):
            parse_system("vars X\nvars Y\n")
        with pytest.raises(ParseError, match="missing vars header"):
            parse_system("# only a comment\n")

    def test_constraint_unknowns_must_be_declared(self):
        with pytest.raises(ValueError, match="undeclared unknown Y"):
            DiophantineSystem(("X",), (Poly.unknown("Y"),))


class TestEquationParsing:
    def test_commutator_sugar(self, heisenberg):
        eqs = parse_equations(heisenberg, "[x,y] = c1")
        (lhs, rhs), = eqs
        assert lhs == (("comm", (("var", "x"),), (("var", "y"),)),)
        assert rhs[0][0] == "const"

    def test_powers_closed_form(self, heisenberg):
        a1 = heisenberg.generator_a(1)
        eqs = parse_equations(heisenberg, "x^3 = a1^-2")
        (lhs, rhs), = eqs
        assert lhs == (("pow", (("var", "x"),), 3),)
        assert rhs == (("pow", (("const", a1),), -2),)
        a1_squared_inverse = (("const", from_word(heisenberg, [("a", 1, -1)] * 2)),)
        assert encode_system(heisenberg, eqs) == encode_system(heisenberg, ((lhs, a1_squared_inverse),))
        # every power, of any sign, is one pow factor over its base; the base
        # of a negative power is read inverted, so y is seen before x
        eqs = parse_equations(heisenberg, "(x*y)^-2 = [x,a1]^3*(x)^0")
        (lhs, rhs), = eqs
        assert lhs == (("pow", (("var", "x"), ("var", "y")), -2),)
        assert rhs == (("pow", (("comm", (("var", "x"),), (("const", a1),)),), 3),)
        assert variable_names(eqs) == ("y", "x")
        # [u,v]^-1 is the commutator [v,u]
        (lhs, _), = parse_equations(heisenberg, "[x,a1]^-2 = 1")
        assert lhs == (("pow", (("comm", (("var", "x"),), (("const", a1),)),), -2),)
        assert encode_text(heisenberg, "[x,a1]^-2 = 1") == encode_text(heisenberg, "[a1,x]^2 = 1")
        system = encode_system(heisenberg, eqs)
        assert system.variables[:3] == ("Y1", "Y2", "Yg1")

    # Leaf tokens of the random sides; the first four may also be raised to a power.
    LEAVES = ("x", "y", "z", "a1", "a2", "c1")
    GENERATORS = ("a1", "a2", "a3", "c1", "c2")

    @staticmethod
    def _rand_tree(rng, depth, leaves=LEAVES):
        # ("comm", u, v), ("group", side), ("pow", atom, k) or a leaf token;
        # a side is a list of atoms
        r = rng.random()
        sides = TestEquationParsing._rand_sides
        if depth < 3 and r < 0.35:
            return ("comm", sides(rng, depth + 1, leaves), sides(rng, depth + 1, leaves))
        if depth < 3 and r < 0.45:
            return ("group", sides(rng, depth + 1, leaves))
        if r < 0.55:
            return ("pow", rng.choice(leaves[:4]), rng.choice([-2, -1, 2, 3]))
        return rng.choice(leaves)

    @staticmethod
    def _rand_sides(rng, depth, leaves=LEAVES):
        return [TestEquationParsing._rand_tree(rng, depth, leaves) for _ in range(rng.randint(1, 3))]

    @staticmethod
    def _render(side, write_out):
        def atom(t):
            if isinstance(t, str):
                return t
            if t[0] == "pow":
                return f"{t[1]}^{t[2]}"
            if t[0] == "group":
                return f"({TestEquationParsing._render(t[1], write_out)})"
            u = TestEquationParsing._render(t[1], write_out)
            v = TestEquationParsing._render(t[2], write_out)
            return f"(({u})^-1*({v})^-1*({u})*({v}))" if write_out else f"[{u},{v}]"

        return "*".join(atom(t) for t in side)

    @staticmethod
    def _letters(side):
        """The written-out word of a side of generators, as +/-1 letters."""

        def inverse(word):
            return [(kind, idx, -e) for kind, idx, e in reversed(word)]

        def atom(t):
            if isinstance(t, str):
                return [(t[0], int(t[1:]), 1)]
            if t[0] == "pow":
                return (atom(t[1]) if t[2] > 0 else inverse(atom(t[1]))) * abs(t[2])
            if t[0] == "group":
                return TestEquationParsing._letters(t[1])
            u, v = TestEquationParsing._letters(t[1]), TestEquationParsing._letters(t[2])
            return inverse(u) + inverse(v) + u + v

        return [letter for t in side for letter in atom(t)]

    def test_parse_element_matches_the_rewriting_oracle(self):
        # a side of generators, read as an odot base, is the normal form that
        # literal rewriting gives its written-out word
        rng = random.Random(4712)
        for _ in range(150):
            p = random_presentation(rng, 3, 2, 3)
            side = self._rand_sides(rng, 0, self.GENERATORS)
            assert parse_element(p, self._render(side, False)) == rewrite_oracle(p, self._letters(side))

    def test_parse_element_refusals(self, heisenberg):
        depth = dioph.MAX_NESTING_DEPTH
        assert parse_element(heisenberg, "(" * depth + "a1" + ")" * depth) == heisenberg.generator_a(1)
        assert parse_element(heisenberg, "1") == heisenberg.identity()
        with pytest.raises(ParseError, match="unknown 'x'"):
            parse_element(heisenberg, "a1*x")
        with pytest.raises(ParseError, match="nested deeper"):
            parse_element(heisenberg, "(" * (depth + 1) + "a1" + ")" * (depth + 1))
        for text in ("", " ", "a1^+2", "a1)", "a1 = a2", "[a1,a2", "a3"):
            with pytest.raises(ParseError):
                parse_element(heisenberg, text)

    def test_commutators_encode_as_written_out_words(self):
        # a [u,v] factor gives the system and the variable order of the
        # word u^-1 v^-1 u v, nested commutators included
        rng = random.Random(4711)
        for _ in range(150):
            p = random_presentation(rng, 3, rng.randint(1, 2), 3)
            lhs, rhs = self._rand_sides(rng, 0), self._rand_sides(rng, 0)
            short = parse_equations(p, f"{self._render(lhs, False)} = {self._render(rhs, False)}")
            long = parse_equations(p, f"{self._render(lhs, True)} = {self._render(rhs, True)}")
            assert variable_names(short) == variable_names(long)
            assert encode_system(p, short) == encode_system(p, long)

    def test_nested_commutators_stay_linear(self, heisenberg):
        # written out, [x,[x,...[x,a1]...]] doubles per level; as comm
        # factors it is one factor per level, and every level past the first
        # is a commutator with a central element, so y = 1
        depth = dioph.MAX_NESTING_DEPTH
        eqs = parse_equations(heisenberg, "y = " + "[x," * depth + "a1" + "]" * depth)
        (_, rhs), = eqs
        for _ in range(depth):
            (factor,) = rhs
            assert factor[0] == "comm" and factor[1] == (("var", "x"),)
            rhs = factor[2]
        assert variable_names(eqs) == ("y", "x")
        assert encode_system(heisenberg, eqs) == encode_system(heisenberg, parse_equations(heisenberg, "y = 1"))

    def test_powers_match_written_out_products(self):
        # x^k, (x*a1)^k and [x,y]^k encode exactly as the product of |k|
        # copies of the base (or of its inverse), built without the parser
        rng = random.Random(45)
        x, y = ("var", "x"), ("var", "y")
        x_inv, y_inv = ("pow", (x,), -1), ("pow", (y,), -1)
        for _ in range(6):
            p = random_presentation(rng, rng.randint(2, 3), rng.randint(1, 2), 3)
            a1, c1 = p.generator_a(1), p.generator_c(1)
            a1_inv = power(a1, -1)
            cases = (
                ("x", (x,), (x_inv,), ()),
                ("(x*a1)", (x, ("const", a1)), (("const", a1_inv), x_inv), ()),
                ("[x,y]", (x_inv, y_inv, x, y), (y_inv, x_inv, y, x), (("const", c1),)),
            )
            for text, base, base_inv, rhs in cases:
                rhs_text = "c1" if rhs else "1"
                for k in range(-6, 7):
                    closed = encode_system(p, parse_equations(p, f"{text}^{k} = {rhs_text}"))
                    factors = (base if k > 0 else base_inv) * abs(k)
                    expanded = encode_system(p, ((factors, rhs),))
                    assert closed == expanded, (text, k)

    def test_variable_names_validated(self, heisenberg):
        with pytest.raises(ParseError):
            parse_equations(heisenberg, "xY = a1")
        bad = (((("var", "xY"),), (("var", "xY"),)),)
        with pytest.raises(PreconditionError):
            encode_system(heisenberg, bad)

    @pytest.mark.parametrize("line", ["x =", "= x", "x", "[x,y = 1", "x^b = 1", "a9 = x", "x = a\u00b2"])
    def test_malformed_lines(self, heisenberg, line):
        with pytest.raises(ParseError):
            parse_equations(heisenberg, line)


class TestOdot:
    def test_requires_noncommuting(self, heisenberg):
        with pytest.raises(PreconditionError):
            odot_equations(heisenberg.generator_a(1), heisenberg.generator_a(1))

    def test_solutions_multiply_exponents(self, heisenberg):
        a1, a2 = heisenberg.generator_a(1), heisenberg.generator_a(2)
        system = encode_system(heisenberg, odot_equations(a1, a2))
        c = commutator(a1, a2)
        for t1, t2 in [(0, 3), (1, 1), (2, -2), (-3, 5)]:
            assignment = {}
            witness = {
                "u": power(c, t1),
                "v": power(c, t2),
                "w": power(c, t1 * t2),
                "p": power(a1, t1),
                "q": power(a2, t2),
            }
            for name, elem in witness.items():
                assignment[f"{name.upper()}1"] = elem.alpha[0]
                assignment[f"{name.upper()}2"] = elem.alpha[1]
                assignment[f"{name.upper()}g1"] = elem.gamma[0]
            restricted = {k: assignment[k] for k in system.variables}
            assert check_solution(system, restricted)
            # a wrong product exponent must be rejected
            bad = dict(restricted)
            bad["Wg1"] = t1 * t2 + 1
            assert not check_solution(system, bad)

    def test_box_solutions_all_have_product_shape(self, heisenberg):
        # every box solution of the full system satisfies w-exponent =
        # (u-exponent) * (v-exponent)
        a1, a2 = heisenberg.generator_a(1), heisenberg.generator_a(2)
        system = encode_system(heisenberg, odot_equations(a1, a2))
        sols = list(box_solve(system, 1))
        assert sols
        for sol in sols:
            assert sol["Wg1"] == sol["Ug1"] * sol["Vg1"]

    def test_commutator_factors_encode_as_written_out_words(self):
        # oracle: each commutator written out as u^-1 v^-1 u v, folded factor
        # by factor; same constraints and the same variable order
        rng = random.Random(615)
        cases = 0
        while cases < 200:
            p = random_presentation(rng, rng.randint(2, 4), rng.randint(1, 3), 3)
            a, b = random_element(rng, p, 3), random_element(rng, p, 3)
            if commutator(a, b).is_identity():
                continue
            cases += 1
            var = lambda name, k=1: ("var", name) if k == 1 else ("pow", (("var", name),), k)
            const = lambda elem: ("const", elem)
            written_out = (
                ((var("u"),), (var("p", -1), const(inverse(b)), var("p"), const(b))),
                ((var("p", -1), const(inverse(a)), var("p"), const(a)), ()),
                ((var("v"),), (const(inverse(a)), var("q", -1), const(a), var("q"))),
                ((var("q", -1), const(inverse(b)), var("q"), const(b)), ()),
                ((var("w"),), (var("p", -1), var("q", -1), var("p"), var("q"))),
            )
            expected = encode_system(p, written_out)
            assert encode_system(p, odot_equations(a, b)) == expected


def window_oracle(p, a, b, window, system):
    """The window check written point by point: every fact is recomputed at
    each point and the whole product system is evaluated there, with its
    unknowns named by hand.  The reference for ``ring_window_report``."""
    c = commutator(a, b)
    failures = []
    for t1 in range(-window, window + 1):
        for t2 in range(-window, window + 1):
            p_t1, q_t2 = power(a, t1), power(b, t2)
            witness = {"U": commutator(p_t1, b), "P": p_t1, "V": commutator(a, q_t2), "Q": q_t2}
            witness["W"] = commutator(p_t1, q_t2)
            assignment = {}
            for name, elem in witness.items():
                assignment.update({f"{name}{i}": x for i, x in enumerate(elem.alpha, 1)})
                assignment.update({f"{name}g{t}": x for t, x in enumerate(elem.gamma, 1)})
            if (witness["U"], witness["V"], witness["W"]) != (power(c, t1), power(c, t2), power(c, t1 * t2)):
                reason = "witness commutators off target"
            elif not (commutator(p_t1, a).is_identity() and commutator(q_t2, b).is_identity()):
                reason = "witness fails side conditions"
            elif not check_solution(system, {k: assignment[k] for k in system.variables}):
                reason = "encoded product system rejects witness"
            elif multiply(power(c, t1), power(c, t2)) != power(c, t1 + t2):
                reason = "addition window point fails"
            elif not (commutator(a, power(b, t1)) == power(c, t1) and commutator(power(b, t1), b).is_identity()):
                reason = "membership witness fails"
            elif multiply(power(c, t1), power(c, -t1)) != p.identity():
                reason = "negation window point fails"
            else:
                continue
            failures.append(WindowFailure(t1, t2, reason))
    return failures


GROUP_3X2 = {(1, 1, 2): 1, (1, 2, 3): 1, (2, 1, 3): 1, (2, 2, 3): 1}
ODOT_TEXT = "u = [p,{b}]\n[p,{a}] = 1\nv = [{a},q]\n[q,{b}] = 1\nw = [p,q]\n"
# Each corruption changes one equation of ODOT_TEXT, so that only the row
# block (u, p), only the column block (v, q) or only the point block (w) fails.
WINDOW_CORRUPTIONS = {
    "row": ("u = [p,{b}]", "u = [p,{a}]"),
    "column": ("v = [{a},q]", "v = [q,{a}]"),
    "point": ("w = [p,q]", "w = [q,p]"),
}
WINDOW_GROUPS = {
    "heisenberg": ((2, 1, {(1, 1, 2): 1}), [("a1", "a2"), ("a2", "a1"), ("a1^-1", "a1*a2"), ("a2*a1^-1", "a1*c1")]),
    "3x2": ((3, 2, GROUP_3X2), [("a1", "a2"), ("a2", "a3"), ("a3", "a1"), ("a2*a3^-1", "a1^-1")]),
}


class TestRingWindow:
    def test_heisenberg_window5(self, heisenberg):
        a1, a2 = heisenberg.generator_a(1), heisenberg.generator_a(2)
        assert not ring_window_report(a1, a2, 5)

    def test_window0(self, heisenberg):
        a1, a2 = heisenberg.generator_a(1), heisenberg.generator_a(2)
        assert not ring_window_report(a1, a2, 0)

    def test_bases_from_another_presentation_are_refused(self, heisenberg):
        # commutator(a, b) refuses mixed bases before the window and budget
        # checks, whether or not the product system is passed in
        g32 = Tau2Presentation.from_nonzero(3, 2, GROUP_3X2)
        for p, other in ((heisenberg, g32), (g32, heisenberg)):
            system = encode_system(p, odot_equations(p.generator_a(1), p.generator_a(2)))
            b1, b2 = other.generator_a(1), other.generator_a(2)
            for a, b in ((p.generator_a(1), b2), (b1, p.generator_a(2))):
                for window in (2, -1, 10**9):
                    for odot_system in (None, system):
                        with pytest.raises(PresentationMismatchError):
                            ring_window_report(a, b, window, odot_system=odot_system)
            # two bases from one presentation are checked over that presentation
            assert ring_window_report(b1, b2, 2) == []

    def test_side_condition_and_membership_read_the_column_facts(self, heisenberg, monkeypatch):
        # With [b^2, b] made c1, column t2 = 2 fails its side condition, and
        # every other point of row t1 = 2 loses the membership witness of c^2,
        # which is column 2's facts.
        a1, a2 = heisenberg.generator_a(1), heisenberg.generator_a(2)
        b_2, c1 = power(a2, 2), heisenberg.generator_c(1)
        right = dioph.commutator
        monkeypatch.setattr(dioph, "commutator", lambda x, y: c1 if (x, y) == (b_2, a2) else right(x, y))
        expected = [
            WindowFailure(t1, t2, "witness fails side conditions" if t2 == 2 else "membership witness fails")
            for t1 in range(-3, 4)
            for t2 in range(-3, 4)
            if 2 in (t1, t2)
        ]
        assert len(expected) == 13
        assert ring_window_report(a1, a2, 3) == expected

    def test_negation_fails_on_its_row(self, heisenberg, monkeypatch):
        # With c^-1 * c made c, only the negation of row t1 = -1 fails.
        a1, a2 = heisenberg.generator_a(1), heisenberg.generator_a(2)
        c = commutator(a1, a2)
        c_inv = power(c, -1)
        right = dioph.multiply
        monkeypatch.setattr(dioph, "multiply", lambda x, y: c if (x, y) == (c_inv, c) else right(x, y))
        expected = [WindowFailure(-1, t2, "negation window point fails") for t2 in range(-3, 4)]
        assert ring_window_report(a1, a2, 3) == expected

    def test_corrupted_system_fails(self, heisenberg):
        a1, a2 = heisenberg.generator_a(1), heisenberg.generator_a(2)
        corrupted = Tau2Presentation.from_nonzero(2, 1, {(1, 1, 2): 2})
        bad = encode_system(corrupted, odot_equations(corrupted.generator_a(1), corrupted.generator_a(2)))
        report = ring_window_report(a1, a2, 3, odot_system=bad)
        assert report
        assert any(f.reason == "encoded product system rejects witness" for f in report)

    def test_corrupted_system_failure_list(self, heisenberg):
        # Pinned point by point: every point but (0, 0), where all witnesses
        # are trivial, in row-major (t1, t2) order.
        a1, a2 = heisenberg.generator_a(1), heisenberg.generator_a(2)
        corrupted = Tau2Presentation.from_nonzero(2, 1, {(1, 1, 2): 2})
        bad = encode_system(corrupted, odot_equations(corrupted.generator_a(1), corrupted.generator_a(2)))
        expected = [
            WindowFailure(t1, t2, "encoded product system rejects witness")
            for t1 in range(-4, 5)
            for t2 in range(-4, 5)
            if (t1, t2) != (0, 0)
        ]
        assert ring_window_report(a1, a2, 4, odot_system=bad) == expected

    @pytest.mark.parametrize("corruption", sorted(WINDOW_CORRUPTIONS))
    @pytest.mark.parametrize("group", sorted(WINDOW_GROUPS))
    def test_corruptions_match_the_point_by_point_oracle(self, group, corruption):
        (n, m, lam), pairs = WINDOW_GROUPS[group]
        p = Tau2Presentation.from_nonzero(n, m, lam)
        old, new = WINDOW_CORRUPTIONS[corruption]
        for a_text, b_text in pairs:
            a, b = parse_element(p, a_text), parse_element(p, b_text)
            text = ODOT_TEXT.format(a=a_text, b=b_text)
            assert encode_system(p, parse_equations(p, text)) == encode_system(p, odot_equations(a, b))
            bad_text = text.replace(old.format(a=a_text, b=b_text), new.format(a=a_text, b=b_text))
            assert bad_text != text
            bad = encode_system(p, parse_equations(p, bad_text))
            for window in range(5):
                expected = window_oracle(p, a, b, window, bad)
                assert ring_window_report(a, b, window, odot_system=bad) == expected
                # it fails wherever t1 (row), t2 (column) or t1*t2 (point) is nonzero
                assert len(expected) == 2 * window * (2 * window + (corruption != "point"))
                assert ring_window_report(a, b, window) == []

    @pytest.mark.parametrize(
        "law, reason",
        [("collect_commutator", "witness commutators off target"), ("collect_product", "addition window point fails")],
    )
    def test_collection_law_wrong_at_one_point(self, heisenberg, monkeypatch, law, reason):
        # With a = a1, b = a2 and c = [a1, a2] = c1: the point (2, -3) reads
        # w = [a1^2, a2^-3] from alpha vectors (2, 0) and (0, -3), and
        # c^2 * c^-3 from gamma vectors (2,) and (-3,).  Only that point's
        # arithmetic is wrong, so only that point may fail.
        a1, a2 = heisenberg.generator_a(1), heisenberg.generator_a(2)
        right = getattr(dioph, law)

        def wrong_commutator(p, xa, ya, zero):
            gamma = right(p, xa, ya, zero)
            if (tuple(xa), tuple(ya)) == ((2, 0), (0, -3)):
                gamma[0] += 1
            return gamma

        def wrong_product(p, xa, xg, ya, yg):
            alpha, gamma = right(p, xa, xg, ya, yg)
            if (tuple(xg), tuple(yg)) == ((2,), (-3,)):
                gamma[0] += 1
            return alpha, gamma

        monkeypatch.setattr(dioph, law, wrong_commutator if law == "collect_commutator" else wrong_product)
        assert ring_window_report(a1, a2, 4) == [WindowFailure(2, -3, reason)]

    def test_elements_built_grow_linearly_in_the_window(self, monkeypatch):
        # Rows and columns build elements, points work on coordinate vectors:
        # twice the radius is four times the points but about twice the elements.
        p = Tau2Presentation.from_nonzero(3, 2, GROUP_3X2)
        a, b = p.generator_a(1), p.generator_a(2)
        built = []
        post_init = MalcevElement.__post_init__
        monkeypatch.setattr(MalcevElement, "__post_init__", lambda self: built.append(1) or post_init(self))
        counts = []
        for window in (10, 20):
            built.clear()
            assert ring_window_report(a, b, window) == []
            counts.append(len(built))
        assert counts[1] < 3 * counts[0], counts

    def test_check_solution_runs_per_row_and_column_not_per_point(self, monkeypatch):
        # The point block is evaluated at every point without check_solution's
        # refusal; check_solution itself runs once per row and once per column.
        p = Tau2Presentation.from_nonzero(3, 2, GROUP_3X2)
        calls = []
        real = dioph.check_solution
        monkeypatch.setattr(dioph, "check_solution", lambda *args: calls.append(1) or real(*args))
        window = 6
        assert ring_window_report(p.generator_a(1), p.generator_a(2), window) == []
        assert len(calls) == 2 * (2 * window + 1)

    def test_unknown_outside_the_witnesses_is_refused_before_any_point(self, heisenberg, monkeypatch):
        a1, a2 = heisenberg.generator_a(1), heisenberg.generator_a(2)
        text = ODOT_TEXT.format(a="a1", b="a2") + "x = a1\n"
        system = encode_system(heisenberg, parse_equations(heisenberg, text))
        monkeypatch.setattr(dioph, "check_solution", lambda *args: pytest.fail("a window point ran"))
        with pytest.raises(PreconditionError, match="unknown X1 "):
            ring_window_report(a1, a2, 2, odot_system=system)

    def test_preconditions(self, heisenberg):
        a1 = heisenberg.generator_a(1)
        with pytest.raises(PreconditionError):
            ring_window_report(a1, a1, 2)
        p = Tau2Presentation.from_nonzero(3, 1, {(1, 1, 2): 1})
        # a3 is central, [a1, a3] = 1; and a1 is not c-small here
        with pytest.raises(PreconditionError):
            ring_window_report(p.generator_a(1), p.generator_a(3), 2)

    def test_window_budget(self, heisenberg, monkeypatch):
        a1, a2 = heisenberg.generator_a(1), heisenberg.generator_a(2)
        # (2*500+1)**2 = 1002001 points is over the default 10**6
        with pytest.raises(BudgetExceededError, match="1002001 points"):
            ring_window_report(a1, a2, 500)
        monkeypatch.setattr(dioph, "DEFAULT_WINDOW_BUDGET", 25)
        assert ring_window_report(a1, a2, 2) == []
        monkeypatch.setattr(dioph, "DEFAULT_WINDOW_BUDGET", 24)
        with pytest.raises(BudgetExceededError):
            ring_window_report(a1, a2, 2)

    def test_random_certified_presentations(self):
        rng = random.Random(44)
        from tau2.structure import scalar_ring_is_Z_certificate

        found = 0
        while found < 5:
            p = random_presentation(rng, 3, 2, 10)
            if not scalar_ring_is_Z_certificate(p):
                continue
            found += 1
            assert not ring_window_report(p.generator_a(1), p.generator_a(2), 3)
