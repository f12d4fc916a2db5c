"""Encoding group equations as integer polynomial systems of degree <= 2.

A group equation over a presented group collects, side by side, into normal
form whose alpha coordinates are linear and whose gamma coordinates are at
most quadratic in the unknown coordinates (products only ever arise between
the linear alpha forms of two factors).  Equating coordinates of both sides
therefore yields integer constraints of degree <= 2: this module builds
them, evaluates them, searches boxes for their solutions, and serializes them.

Every equation, ``[x,y] = w`` included, takes one path: ``parse_equations``
then ``encode_system``.  Every power ``^k``, negative k included, is one
factor raised by ``tau2.core.collect_power``; there is no inversion pass.

Unknown naming: a group variable named ``x`` contributes alpha unknowns
``X1..Xn`` and gamma unknowns ``Xg1..Xgm`` (uppercased name + index, with a
``g`` infix for the central part).  Commutator equations leave the central
parts of the unknowns completely free; such unconstrained unknowns are
omitted from emitted systems, and solutions are understood modulo them.

Serialized form (parse/print round-trips exactly):

    vars X1 X2 Y1 Y2
    1*X1*Y2 + -1*X2*Y1 = 1

one constraint per line, every coefficient explicit, ``0`` for an empty
left-hand side, in the line syntax of ``tau2.core.records``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .core import (
    MalcevElement,
    Tau2Presentation,
    bounded_power,
    check_budget,
    collect_commutator,
    collect_power,
    collect_product,
    commutator,
    count_text,
    int_fields,
    int_text,
    multiply,
    parse_generator,
    power,
    records,
)
from .errors import (
    InternalInvariantError,
    ParseError,
    PreconditionError,
    PresentationMismatchError,
)
from .structure import is_c_small

DEFAULT_BOX_BUDGET = 10**7
DEFAULT_WINDOW_BUDGET = 10**6  # (2*window+1)**2 points checked by ring_window_report
# Deepest '(' / '[' nesting an equation may use.  The parser, _fold and
# variable_names recurse once or a few times per level, so this keeps them
# far below Python's recursion limit.
MAX_NESTING_DEPTH = 64

Monomial = tuple[str, ...]  # () constant, (v,) linear, (v1, v2) quadratic


def alpha_unknown(var: str, i: int) -> str:
    return f"{var.upper()}{i}"


def gamma_unknown(var: str, t: int) -> str:
    return f"{var.upper()}g{t}"


def _coordinate_unknowns(p: Tau2Presentation, var: str) -> list[str]:
    """The alpha unknowns of a group variable, then its gamma unknowns."""
    return [alpha_unknown(var, i) for i in range(1, p.n + 1)] + [gamma_unknown(var, t) for t in range(1, p.m + 1)]


class Poly:
    """Integer polynomial of degree <= 2 in named unknowns.

    It is the symbolic coordinate type of ``tau2.core``'s collection law:
    + and - between Polys, * with a Poly or an int on either side, and a
    truth value that is false for the zero polynomial.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls({(): operator.index(c)})

    @classmethod
    def unknown(cls, name: str) -> "Poly":
        return cls({(name,): 1})

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return Poly(terms)

    def __sub__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) - c
        return Poly(terms)

    def __mul__(self, other: "Poly | int") -> "Poly":
        if isinstance(other, int):
            return Poly({m: other * c for m, c in self.terms.items()})
        terms: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                if len(mono) > 2:
                    # Cannot happen for 2-step collection; anything deeper is a bug.
                    raise InternalInvariantError("degree > 2 monomial produced")
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def unknowns(self) -> set[str]:
        out: set[str] = set()
        for mono in self.terms:
            out.update(mono)
        return out

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __repr__(self):
        return f"Poly({self.terms!r})"


@dataclass(frozen=True)
class Constraint:
    """sum of coeff*mono terms == rhs; terms exclude the constant monomial."""

    terms: tuple[tuple[int, Monomial], ...]
    rhs: int


@dataclass(frozen=True)
class DiophantineSystem:
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        declared = set(self.variables)
        for con in self.constraints:
            for _, mono in con.terms:
                for v in mono:
                    if v not in declared:
                        raise ValueError(f"constraint references undeclared unknown {v}")


def _canonical_constraint(poly: Poly, order: Mapping[str, int]) -> Constraint | None:
    """Turn ``poly == 0`` into a constraint, or None when trivially 0 == 0."""
    rhs = -poly.terms.get((), 0)
    items = []
    for mono, coeff in poly.terms.items():
        if mono == ():
            continue
        key = tuple(sorted(order[v] for v in mono))
        mono_sorted = tuple(sorted(mono, key=lambda v: order[v]))
        items.append((key, coeff, mono_sorted))
    if not items and rhs == 0:
        return None
    items.sort(key=lambda it: (len(it[0]), it[0]))
    return Constraint(tuple((coeff, mono) for _, coeff, mono in items), rhs)


def _assemble(polys: Sequence[Poly], declared_order: Sequence[str]) -> DiophantineSystem:
    referenced: set[str] = set()
    for poly in polys:
        referenced.update(poly.unknowns())
    variables = tuple(v for v in declared_order if v in referenced)
    order = {v: k for k, v in enumerate(variables)}
    constraints = []
    for poly in polys:
        con = _canonical_constraint(poly, order)
        if con is not None:
            constraints.append(con)
    return DiophantineSystem(variables, tuple(constraints))


# -- general group-equation systems ------------------------------------------

Factor = tuple  # ("const", MalcevElement) | ("var", name) | ("pow", factors, k != 0) | ("comm", u, v)


def _factor_variables(factors: Sequence[Factor], inverted: bool = False):
    """Variables of the factors, or of their inverse, in the order of first
    appearance in the word written out with [u,v] = u^-1 v^-1 u v."""
    for factor in reversed(factors) if inverted else factors:
        kind = factor[0]
        if kind == "var":
            yield factor[1]
        elif kind == "pow":
            # a negative power writes out the inverse of its base
            yield from _factor_variables(factor[1], inverted != (factor[2] < 0))
        elif kind == "comm":
            # [u,v]^-1 == [v,u]; u^-1 v^-1 shows every variable before u v does
            u, v = (factor[2], factor[1]) if inverted else (factor[1], factor[2])
            yield from _factor_variables(u, True)
            yield from _factor_variables(v, True)


@dataclass(frozen=True)
class GroupEquationSystem:
    presentation: Tau2Presentation
    equations: tuple[tuple[tuple[Factor, ...], tuple[Factor, ...]], ...]

    def variable_names(self) -> tuple[str, ...]:
        """Variable names in order of first appearance."""
        seen = dict.fromkeys(v for lhs, rhs in self.equations for v in _factor_variables(lhs + rhs))
        return tuple(seen)


def _validate_var_name(name: str):
    if not name.isalpha() or not name.islower():
        raise PreconditionError(f"variable name must be lowercase alphabetic, got {name!r}")


def _fold(p: Tau2Presentation, factors: Sequence[Factor]) -> tuple[list[Poly], list[Poly]]:
    """Symbolic alpha and gamma of a product of factors, by core's collection law."""
    alpha, gamma = [Poly()] * p.n, [Poly()] * p.m
    for factor in factors:
        kind = factor[0]
        if kind == "const":
            elem = factor[1]
            if elem.presentation != p:
                raise PresentationMismatchError("constant from a different presentation")
            fa = [Poly.const(a) for a in elem.alpha]
            fg = [Poly.const(g) for g in elem.gamma]
        elif kind == "var":
            unknowns = [Poly.unknown(name) for name in _coordinate_unknowns(p, factor[1])]
            fa, fg = unknowns[: p.n], unknowns[p.n :]
        elif kind == "pow":
            fa, fg = collect_power(p, *_fold(p, factor[1]), factor[2])
        elif kind == "comm":
            # central, and seen only through the alpha parts of u and v
            fa = [Poly()] * p.n
            fg = collect_commutator(p, _fold(p, factor[1])[0], _fold(p, factor[2])[0], Poly())
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
        alpha, gamma = collect_product(p, alpha, gamma, fa, fg)
    return alpha, gamma


def encode_system(p: Tau2Presentation, system: GroupEquationSystem) -> DiophantineSystem:
    """Encode a group-equation system; integer solutions correspond exactly
    to group solutions via the coordinate unknowns of each variable."""
    if system.presentation != p:
        raise PresentationMismatchError("equation system over a different presentation")
    declared: list[str] = []
    for name in system.variable_names():
        _validate_var_name(name)
        declared += _coordinate_unknowns(p, name)
    polys: list[Poly] = []
    for lhs, rhs in system.equations:
        left_alpha, left_gamma = _fold(p, lhs)
        right_alpha, right_gamma = _fold(p, rhs)
        polys += [a - b for a, b in zip(left_alpha, right_alpha)]
        polys += [g - h for g, h in zip(left_gamma, right_gamma)]
    return _assemble(polys, declared)


# -- evaluation and box search -----------------------------------------------


def check_solution(system: DiophantineSystem, assignment: Mapping[str, int]) -> bool:
    """Exact evaluation of every constraint under a full assignment."""
    for v in system.variables:
        if v not in assignment:
            raise PreconditionError(f"assignment missing unknown {v}")
    for con in system.constraints:
        total = 0
        for coeff, mono in con.terms:
            val = coeff
            for v in mono:
                val *= assignment[v]
            total += val
        if total != con.rhs:
            return False
    return True


def box_solve(system: DiophantineSystem, box: int) -> Iterator[dict[str, int]]:
    """Iterator over every solution with every unknown in [-box, box], in
    lexicographic order.

    Refuses when (2*box+1)**#unknowns exceeds DEFAULT_BOX_BUDGET, however
    much of the box the search below skips.  The refusals are raised by the
    call itself; the search runs as the returned iterator is consumed, so a
    caller holds one solution at a time.

    Depth-first search over the unknowns in ``system.variables`` order, values
    ascending.  Each constraint belongs to the level of its last unknown and
    is evaluated as soon as that unknown is set, so a failing prefix drops its
    whole subtree.  With the prefix fixed, a constraint at level k reads
    q*x_k**2 + a*x_k == s; when q == 0 it admits the single value s/a (or,
    for a == 0, every value or none), and every candidate is then checked
    against every constraint of its level.  A level with no constraints
    admits every value.  Every monomial must have degree <= 2, as ``Poly``
    and ``parse_system`` guarantee.
    """
    if box < 0:
        raise PreconditionError("box radius must be >= 0")
    nvars = len(system.variables)
    check_budget(bounded_power(2 * box + 1, nvars), DEFAULT_BOX_BUDGET, "box enumeration needs {} evaluations")
    index = {v: k for k, v in enumerate(system.variables)}
    # levels[k]: (q, a0, cross, rest, rhs) for each constraint whose last unknown
    # is k, split as q*x_k**2 + (a0 + sum c*x_i over cross)*x_k + rest == rhs.
    levels: list[list] = [[] for _ in range(nvars)]
    for con in system.constraints:
        terms = [(coeff, [index[v] for v in mono]) for coeff, mono in con.terms]
        if any(len(idxs) > 2 for _, idxs in terms):
            raise PreconditionError("box search needs monomials of degree <= 2")
        k = max((i for _, idxs in terms for i in idxs), default=-1)
        if k < 0:
            if con.rhs != 0:
                return iter(())  # 0 == rhs fails for every point
            continue
        q = a0 = 0
        cross, rest = [], []
        for coeff, idxs in terms:
            if idxs.count(k) == 2:
                q += coeff
            elif k not in idxs:
                rest.append((coeff, idxs))
            elif len(idxs) == 2:
                cross.append((coeff, idxs[0] if idxs[1] == k else idxs[1]))
            else:
                a0 += coeff
        levels[k].append((q, a0, cross, rest, con.rhs))
    return _box_search(system.variables, levels, box)


def _box_search(names: Sequence[str], levels: list[list], box: int) -> Iterator[dict[str, int]]:
    """The depth-first search of ``box_solve`` over its prepared levels."""
    nvars = len(names)
    if not nvars:
        yield {}
        return
    values = range(-box, box + 1)
    prefix = [0] * nvars

    def admissible(k: int):
        """Values of unknown k that satisfy every constraint of level k."""
        folded = []
        for q, a, cross, rest, s in levels[k]:
            for c, i in cross:
                a += c * prefix[i]
            for c, idxs in rest:
                for i in idxs:
                    c *= prefix[i]
                s -= c
            folded.append((q, a, s))
        candidates = values
        for q, a, s in folded:
            if q == 0:
                if a:
                    x, r = divmod(s, a)
                    candidates = (x,) if r == 0 and -box <= x <= box else ()
                    break
                if s:
                    return ()
        for q, a, s in folded:
            candidates = [x for x in candidates if q * x * x + a * x == s]
        return candidates

    # Depth-first without recursion: pending[k] iterates over the values of
    # unknown k still to try under the current prefix.
    pending = [iter(admissible(0))]
    while pending:
        k = len(pending) - 1
        if k + 1 == nvars:
            for x in pending.pop():
                prefix[k] = x
                yield dict(zip(names, prefix))
            continue
        for x in pending[k]:
            prefix[k] = x
            pending.append(iter(admissible(k + 1)))
            break
        else:
            pending.pop()


# -- serialization -------------------------------------------------------------


def format_system(system: DiophantineSystem) -> str:
    lines = ["vars " + " ".join(system.variables) if system.variables else "vars"]
    for con in system.constraints:
        if con.terms:
            lhs = " + ".join(int_text(coeff) + "*" + "*".join(mono) for coeff, mono in con.terms)
        else:
            lhs = "0"
        lines.append(f"{lhs} = {int_text(con.rhs)}")
    return "\n".join(lines) + "\n"


def parse_system(text: str) -> DiophantineSystem:
    variables: tuple[str, ...] | None = None
    constraints = []
    order: dict[str, int] = {}
    for lineno, line in records(text):
        if line.startswith("vars"):
            if variables is not None:
                raise ParseError("duplicate vars header", lineno)
            variables = tuple(line.split()[1:])
            if len(set(variables)) != len(variables):
                raise ParseError("duplicate unknown in vars header", lineno)
            order = {v: k for k, v in enumerate(variables)}
            continue
        if variables is None:
            raise ParseError("constraint before vars header", lineno)
        lhs_text, eq, rhs_text = line.rpartition("=")
        if not eq:
            raise ParseError("constraint needs '= rhs'", lineno)
        lhs_text = lhs_text.strip()
        terms = [] if lhs_text == "0" else [[s.strip() for s in t.split("*")] for t in lhs_text.split("+")]
        for parts in terms:
            if len(parts) > 3:
                raise ParseError(f"bad term {'*'.join(parts)!r}", lineno)
            for v in parts[1:]:
                if v not in order:
                    raise ParseError(f"unknown variable {v!r}", lineno)
        rhs, *coeffs = int_fields(
            [rhs_text] + [parts[0] for parts in terms],
            "coefficients and right-hand side must be integers",
            lineno,
        )
        poly = Poly.const(-rhs)  # reuse canonicalization: poly == 0 form
        for coeff, parts in zip(coeffs, terms):
            term_poly = Poly.const(coeff)
            for v in parts[1:]:
                term_poly = term_poly * Poly.unknown(v)
            poly = poly + term_poly
        con = _canonical_constraint(poly, order)
        if con is None:
            con = Constraint((), 0)
        constraints.append(con)
    if variables is None:
        raise ParseError("missing vars header")
    return DiophantineSystem(variables, tuple(constraints))


# -- equation text parsing ------------------------------------------------------
#
#   [x,y] = c1          x*y = y*x          x^2 = c1          x = a1
#
# Sides are products of factors; a factor is a generator (aN/cN), a variable
# (lowercase word), a bracketed commutator [side,side], or a parenthesized
# side, optionally raised to an integer power.  '1' denotes the empty product.


_SYMBOLS = "[](),=^*"


def _tokenize(line: str, lineno: int) -> list[str]:
    tokens = []
    k = 0
    while k < len(line):
        ch = line[k]
        if ch.isspace():
            k += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(ch)
            k += 1
            continue
        if ch.isalnum() or ch == "-":
            j = k + 1
            while j < len(line) and (line[j].isalnum()):
                j += 1
            tokens.append(line[k:j])
            k = j
            continue
        raise ParseError(f"unexpected character {ch!r}", lineno)
    return tokens


class _EquationParser:
    def __init__(self, p: Tau2Presentation, tokens: list[str], lineno: int):
        self.p = p
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno
        self.depth = 0  # open '(' and '[' around the current token

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of equation", self.lineno)
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.lineno)

    def parse_equation(self):
        lhs = self.parse_side(stop={"="})
        self.expect("=")
        rhs = self.parse_side(stop=set())
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.lineno)
        return tuple(lhs), tuple(rhs)

    def parse_side(self, stop: set) -> list[Factor]:
        factors: list[Factor] = []
        first = True
        while True:
            tok = self.peek()
            if tok is None or tok in stop or tok in (",", ")", "]"):
                if first:
                    raise ParseError("empty side", self.lineno)
                return factors
            if tok == "*":
                self.take()
                continue
            factors.extend(self.parse_factor())
            first = False

    def parse_factor(self) -> list[Factor]:
        atom = self.parse_atom()
        if self.peek() == "^":
            self.take()
            exp_tok = self.take()
            (exp,) = int_fields((exp_tok,), f"bad exponent {exp_tok!r}", self.lineno)
            if exp == 0 or not atom:
                return []
            # The atom is folded once and raised by the closed form, any sign.
            return [("pow", tuple(atom), exp)]
        return atom

    def parse_atom(self) -> list[Factor]:
        tok = self.take()
        if tok in ("[", "("):
            self.depth += 1
            if self.depth > MAX_NESTING_DEPTH:
                raise ParseError(f"brackets nested deeper than {MAX_NESTING_DEPTH}", self.lineno)
            side = self.parse_side(stop=set())
            if tok == "[":
                self.expect(",")
                v = self.parse_side(stop=set())
                side = [("comm", tuple(side), tuple(v))]
            self.expect("]" if tok == "[" else ")")
            self.depth -= 1
            return side
        if tok == "1":
            return []
        gen = parse_generator(self.p, tok, self.lineno)
        if gen is not None:
            kind, idx = gen
            return [("const", self.p.generator_a(idx) if kind == "a" else self.p.generator_c(idx))]
        if tok.isalpha() and tok.islower():
            return [("var", tok)]
        raise ParseError(f"unexpected token {tok!r}", self.lineno)


def parse_equations(p: Tau2Presentation, text: str) -> GroupEquationSystem:
    equations = []
    for lineno, line in records(text):
        equations.append(_EquationParser(p, _tokenize(line, lineno), lineno).parse_equation())
    return GroupEquationSystem(p, tuple(equations))


# -- integer arithmetic inside the group ---------------------------------------


def odot_equations(p: Tau2Presentation, a: MalcevElement, b: MalcevElement) -> GroupEquationSystem:
    """The five-equation product-witness system on u, v, w (values) and
    p, q (witnesses):

        u = [p, b]    [p, a] = 1    v = [a, q]    [q, b] = 1    w = [p, q]

    For non-commuting c-small a, b its solutions are exactly
    u = [a,b]^s, v = [a,b]^t, w = [a,b]^(s*t), which is how multiplication
    of integer exponents becomes equationally definable inside the group.
    """
    if commutator(a, b).is_identity():
        raise PreconditionError("the two base elements must not commute")
    var = lambda name: (("var", name),)
    const = lambda elem: (("const", elem),)
    comm = lambda u, v: (("comm", u, v),)
    equations = (
        (var("u"), comm(var("p"), const(b))),
        (comm(var("p"), const(a)), ()),
        (var("v"), comm(const(a), var("q"))),
        (comm(var("q"), const(b)), ()),
        (var("w"), comm(var("p"), var("q"))),
    )
    return GroupEquationSystem(p, equations)


def _window_blocks(p: Tau2Presentation, system: DiophantineSystem):
    """The unknowns of u, p, v, q and w by name, and ``system`` split by the
    names its constraints read: a row block (u and p only), a column block
    (v and q only) and a point block (the rest)."""
    names = {x: _coordinate_unknowns(p, x) for x in "upvqw"}
    owner = {v: x for x, vs in names.items() for v in vs}
    for v in system.variables:
        if v not in owner:
            raise PreconditionError(f"odot system unknown {v} is not a coordinate of u, p, v, q or w")
    blocks: tuple[list, list, list] = ([], [], [])
    for con in system.constraints:
        read = {owner[v] for _, mono in con.terms for v in mono}
        blocks[0 if read <= {"u", "p"} else 1 if read <= {"v", "q"} else 2].append(con)
    systems = []
    for cons in blocks:
        read = {v for con in cons for _, mono in con.terms for v in mono}
        systems.append(DiophantineSystem(tuple(v for v in system.variables if v in read), tuple(cons)))
    return names, systems


@dataclass(frozen=True)
class WindowFailure:
    t1: int
    t2: int
    reason: str


def ring_window_report(
    p: Tau2Presentation,
    a: MalcevElement,
    b: MalcevElement,
    window: int,
    odot_system: DiophantineSystem | None = None,
) -> list[WindowFailure]:
    """Check that group equations emulate integer arithmetic on a window.

    For every |t1|, |t2| <= window, with c = [a, b]:

    * the product-witness system is satisfied by p = a^t1, q = b^t2 with
      values u = c^t1, v = c^t2, w = c^(t1*t2)  (integer multiplication);
    * c^t1 * c^t2 == c^(t1+t2), with both factors witnessed as members of
      {c^t} via x = [a, y], [y, b] = 1  (integer addition);
    * c^t1 * c^(-t1) == 1  (negation).

    Requires a and b to be non-commuting and c-small.  Passing an explicit
    ``odot_system`` overrides the one derived from the presentation (used by
    negative-control tests); its unknowns must all be coordinates of u, p, v,
    q and w.  Refuses windows of more than DEFAULT_WINDOW_BUDGET points.

    Facts that depend on t1 or t2 alone are computed once per row or column,
    on ``MalcevElement``s.  So is the product system, split by
    ``_window_blocks``: ``check_solution`` runs its row block once per t1,
    its column block once per t2 and only its point block at each point.
    The arithmetic of each point runs on coordinate vectors through core's
    collection law (``collect_commutator``, ``collect_power`` and
    ``collect_product``), so a point builds no element.  Each point still
    reports the first failing check, in the order above.
    """
    if window < 0:
        raise PreconditionError("window radius must be >= 0")
    points = bounded_power(2 * window + 1, 2)
    check_budget(points, DEFAULT_WINDOW_BUDGET, f"window {count_text(window)} has {{}} points")
    c = commutator(a, b)
    if c.is_identity():
        raise PreconditionError("base elements commute")
    if not (is_c_small(a) and is_c_small(b)):
        raise PreconditionError("base elements must be c-small")
    system = odot_system if odot_system is not None else encode_system(p, odot_equations(p, a, b))
    names, (row_block, col_block, point_block) = _window_blocks(p, system)
    point_read = set(point_block.variables)

    def coords(*named: tuple[str, MalcevElement]) -> dict[str, int]:
        return {k: x for name, elem in named for k, x in zip(names[name], elem.alpha + elem.gamma)}

    failures = []
    identity = p.identity()
    ts = range(-window, window + 1)
    # c^t for |t| <= 2*window, so that c^(t1+t2) is c_sum[row + col]
    c_sum = [power(c, t) for t in range(-2 * window, 2 * window + 1)]
    # the same, as the (alpha, gamma) lists that collect_product returns
    c_sum_coords = [(list(x.alpha), list(x.gamma)) for x in c_sum]
    # Facts of one exponent t, shared by column t2 = t and, for the membership
    # witness, by row t1 = t: b^t, c^t, whether [a, b^t] = c^t and whether [b^t, b] = 1.
    b_pow = [power(b, t) for t in ts]
    c_pow = c_sum[window : 3 * window + 1]
    ab_comm = [commutator(a, b_t) for b_t in b_pow]
    v_on_target = [v == c_t for v, c_t in zip(ab_comm, c_pow)]
    b_side = [commutator(b_t, b).is_identity() for b_t in b_pow]
    col_ok, vq_point = [], []
    for v, b_t in zip(ab_comm, b_pow):
        vq = coords(("v", v), ("q", b_t))
        col_ok.append(check_solution(col_block, vq))
        vq_point.append({k: x for k, x in vq.items() if k in point_read})
    # w = [p, q] is central: its alpha part is zero at every point
    zero_alpha = [0] * p.n
    w_alpha_names, w_gamma_names = names["w"][: p.n], names["w"][p.n :]
    for row, t1 in enumerate(ts):
        a_t1 = power(a, t1)
        c_t1 = c_pow[row]
        u = commutator(a_t1, b)
        u_on_target = u == c_t1
        a_side = commutator(a_t1, a).is_identity()
        up = coords(("u", u), ("p", a_t1))
        row_ok = check_solution(row_block, up)
        # One assignment per row: u, p and w's alpha part are fixed along the
        # row, and each point overwrites the v, q and w-gamma entries.
        assignment = {k: x for k, x in up.items() if k in point_read}
        assignment.update(zip(w_alpha_names, zero_alpha))
        member = v_on_target[row] and b_side[row]
        # negation: c^t1 * c^-t1 == 1
        negation = multiply(c_t1, c_pow[2 * window - row]) == identity
        for col, t2 in enumerate(ts):
            w_gamma = collect_commutator(p, a_t1.alpha, b_pow[col].alpha, 0)
            if (
                not u_on_target
                or not v_on_target[col]
                or collect_power(p, c.alpha, c.gamma, t1 * t2) != (zero_alpha, w_gamma)
            ):
                failures.append(WindowFailure(t1, t2, "witness commutators off target"))
                continue
            if not a_side or not b_side[col]:
                failures.append(WindowFailure(t1, t2, "witness fails side conditions"))
                continue
            assignment.update(vq_point[col])
            assignment.update(zip(w_gamma_names, w_gamma))
            if not (row_ok and col_ok[col] and check_solution(point_block, assignment)):
                failures.append(WindowFailure(t1, t2, "encoded product system rejects witness"))
                continue
            # addition: c^t1 * c^t2 == c^(t1+t2), both sides inside {c^t}
            c_t2 = c_pow[col]
            if collect_product(p, c_t1.alpha, c_t1.gamma, c_t2.alpha, c_t2.gamma) != c_sum_coords[row + col]:
                failures.append(WindowFailure(t1, t2, "addition window point fails"))
                continue
            if not member:
                failures.append(WindowFailure(t1, t2, "membership witness fails"))
                continue
            if not negation:
                failures.append(WindowFailure(t1, t2, "negation window point fails"))
    return failures
