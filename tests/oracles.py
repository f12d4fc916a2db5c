"""Reference implementations that only the tests call.

Each one decides something the package computes by a second, independent
route, or reads and writes a format the tests need and no command does:

* ``rewrite_oracle`` collects a word by literal letter-by-letter rewriting,
  the check on the closed collection law of ``tau2.core.multiply``;
  ``from_word``, ``validate_word`` and ``parse_word`` feed it words, and
  ``format_presentation`` writes the presentation file format;
* ``rank_fraction_free`` and ``determinant`` are Bareiss eliminations,
  independent of the Hermite reduction behind ``tau2.intlin.rank``;
  ``rank_mod_p_normalised`` is the rank modulo a prime by elimination with
  modular inverses, the check on the inverse-free ``tau2.intlin._rank_mod_p``;
  ``smith_diagonal_by_minors`` reads the invariant factors of
  ``tau2.intlin.snf`` off the gcds of minors, and ``invariant_ranks_by_bareiss``
  takes the ranks of ``tau2.core.invariant_report`` from Bareiss ranks;
* ``derived_matrix_by_pairs`` builds the derived matrix pair by pair from
  the forms, the check on the table transpose of
  ``tau2.structure.derived_matrix``;
* ``enumerate_tau2`` lists a sample space digit by digit, against which
  exact mode's orbit walk is checked, and ``lindep_count_check`` counts the
  vectors behind the paper's counting bounds;
* ``keyed_polycyclic_sample`` draws a relation-model presentation into
  dicts keyed by generator indices and builds its rows entry by entry, the
  check on the row slices of ``tau2.randmodel.sample_polycyclic_presentation``;
  ``keyed_polycyclic_presentation`` builds hand-made presentations the same
  way;
* ``in_derived_isolator`` decides isolator membership, and ``is_C_c_small``
  with ``find_csmall_noncommuting_pair`` finds the c-small non-commuting
  pairs behind the e-definability of Z.

Tests import them by name, as they import from ``conftest``.
"""

import itertools
from itertools import combinations, product
from math import gcd
from operator import index
from typing import Iterable, Iterator, Sequence

from tau2.core import MalcevElement, Tau2Presentation, commutator, int_fields, inverse, multiply, parse_generator
from tau2.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InternalInvariantError,
    ParseError,
    PreconditionError,
)
from tau2.intlin import IntMatrix, in_rational_span, rank
from tau2.randmodel import (
    DEFAULT_ENUM_BUDGET,
    PolycyclicModelParams,
    PolycyclicPresentation,
    Tau2ModelParams,
    _check_space,
)
from tau2.structure import commutation_matrix

Letter = tuple[str, int, int]  # (kind 'a'|'c', 1-based index, exponent +1/-1)


# -- words, the rewriting oracle and the presentation writer ------------------


def validate_word(p: Tau2Presentation, word: Iterable[Letter]) -> tuple[Letter, ...]:
    out = []
    for letter in word:
        kind, idx, exp = letter
        if kind == "a":
            if not 1 <= idx <= p.n:
                raise ValueError(f"letter a_{idx} out of range")
        elif kind == "c":
            if not 1 <= idx <= p.m:
                raise ValueError(f"letter c_{idx} out of range")
        else:
            raise ValueError(f"unknown letter kind {kind!r}")
        if exp not in (1, -1):
            raise ValueError(f"letter exponent must be +1 or -1, got {exp}")
        out.append((kind, idx, exp))
    return tuple(out)


def from_word(p: Tau2Presentation, word: Iterable[Letter]) -> MalcevElement:
    """Evaluate a word by left-to-right multiplication."""
    acc = p.identity()
    for kind, idx, exp in validate_word(p, word):
        if kind == "a":
            g = p.generator_a(idx)
        else:
            g = p.generator_c(idx)
        if exp < 0:
            g = inverse(g)
        acc = multiply(acc, g)
    return acc


def rewrite_oracle(p: Tau2Presentation, word: Iterable[Letter]) -> MalcevElement:
    """Normal form by literal string rewriting; test oracle for ``multiply``.

    Central letters are collected immediately.  Out-of-order adjacent
    A-letters are swapped with  a_j^e a_i^d -> a_i^d a_j^e [a_j^e, a_i^d],
    emitting the central commutator letters from the defining relations.
    Each swap strictly decreases the inversion count of the A-letter indices,
    so the loop terminates.
    """
    word = validate_word(p, word)
    gamma = [0] * p.m
    letters = []  # A-letters only, as (index, exponent)
    for kind, idx, exp in word:
        if kind == "c":
            gamma[idx - 1] += exp
        else:
            letters.append((idx, exp))
    changed = True
    while changed:
        changed = False
        for k in range(len(letters) - 1):
            j, e = letters[k]
            i, d = letters[k + 1]
            if j > i:
                # [a_j^e, a_i^d] = [a_j, a_i]^(e*d) = prod_t c_t^(-e*d*lam(t,i,j))
                ed = e * d
                for t in range(1, p.m + 1):
                    lam = p.lam(t, i, j)
                    if lam:
                        gamma[t - 1] -= ed * lam
                letters[k], letters[k + 1] = letters[k + 1], letters[k]
                changed = True
    alpha = [0] * p.n
    for idx, exp in letters:
        alpha[idx - 1] += exp
    return MalcevElement(p, tuple(alpha), tuple(gamma))


def parse_word(p: Tau2Presentation, text: str) -> tuple[Letter, ...]:
    """Parse a word like ``a1*a2^-1*c1`` (or whitespace-separated); ``1`` is empty.

    Exponents expand into repeated +/-1 letters, the input ``rewrite_oracle``
    needs.  Each ``aN^k``/``cN^k`` token is read here, by a tokenizer of its
    own, so the oracle shares none with ``tau2.dioph``.
    """
    if text.strip() == "1":
        return ()
    letters: list[Letter] = []
    for token in text.replace("*", " ").split():
        name, caret, exp_text = token.partition("^")
        exp = int_fields((exp_text,), f"bad exponent in token {token!r}")[0] if caret else 1
        gen = parse_generator(p, name)
        if gen is None:
            raise ParseError(f"bad generator token {token!r} (expected aN or cN)")
        sign = 1 if exp > 0 else -1
        letters.extend((*gen, sign) for _ in range(abs(exp)))
    return tuple(letters)


def format_presentation(p: Tau2Presentation) -> str:
    lines = [f"n = {p.n}", f"m = {p.m}"]
    for t in range(1, p.m + 1):
        for i in range(1, p.n + 1):
            for j in range(i + 1, p.n + 1):
                val = p.lam(t, i, j)
                if val != 0:
                    lines.append(f"lambda {t} {i} {j} = {val}")
    return "\n".join(lines) + "\n"


# -- Bareiss rank and determinant ---------------------------------------------


def rank_fraction_free(m: IntMatrix) -> int:
    """Rank by fraction-free (Bareiss) Gaussian elimination.

    Deliberately independent of the HNF/SNF reduction path; used to
    cross-check ``rank``.
    """
    a = m.tolists()
    rows, cols = m.rows, m.cols
    r = 0
    prev = 1
    for c in range(cols):
        piv = -1
        for i in range(r, rows):
            if a[i][c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r >= rows:
            break
    return r


def rank_mod_p_normalised(entries: Sequence[Sequence[int]], prime: int) -> int:
    """Rank modulo ``prime`` by elimination with unit pivots.

    Each new basis row is scaled by the inverse of its leading entry, so it
    clears a pivot column of an incoming row by plain subtraction.
    """
    basis = []
    for v in entries:
        for c, b in basis:
            f = v[c] % prime
            if f:
                v = [x - f * y for x, y in zip(v, b)]
        for c, x in enumerate(v):
            if x % prime:
                inv = pow(x, -1, prime)
                basis.append((c, [y * inv % prime for y in v]))
                break
    return len(basis)


def determinant(m: IntMatrix) -> int:
    """Exact determinant of a square matrix (Bareiss)."""
    if m.rows != m.cols:
        raise DimensionMismatchError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.tolists()
    sign = 1
    prev = 1
    for c in range(n - 1):
        if a[c][c] == 0:
            piv = -1
            for i in range(c + 1, n):
                if a[i][c] != 0:
                    piv = i
                    break
            if piv < 0:
                return 0
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[c][c] * a[i][j] - a[i][c] * a[c][j]) // prev
            a[i][c] = 0
        prev = a[c][c]
    return sign * a[n - 1][n - 1]


def derived_matrix_by_pairs(p: Tau2Presentation) -> IntMatrix:
    """The derived matrix built pair by pair from the forms: row (i, j), for
    i < j in lexicographic order, is (lam(1, i, j), ..., lam(m, i, j)).  The
    check on ``tau2.structure.derived_matrix``, which transposes the flat
    table instead."""
    rows = tuple(tuple(form[i][j] for form in p.forms) for i, j in combinations(range(p.n), 2))
    return IntMatrix(len(rows), p.m, rows)


def invariant_ranks_by_bareiss(p: Tau2Presentation) -> tuple[int, int]:
    """(rank of G/Z, rank of G') by Bareiss rank, with no kernel lattice.

    alpha(x) is central iff L(a_k) * alpha(x) == 0 for every k, so the rank
    of G/Z is the rank of the rows of every L(a_k) stacked; the rank of G'
    is the rank of the commutator exponent rows.
    """
    rows = [row for k in range(1, p.n + 1) for row in commutation_matrix(p.generator_a(k)).entries]
    stacked = IntMatrix(len(rows), p.n, tuple(rows))
    return rank_fraction_free(stacked), rank_fraction_free(derived_matrix_by_pairs(p))


def smith_diagonal_by_minors(m: IntMatrix) -> tuple[int, ...]:
    """Smith diagonal from determinantal divisors, with no reduction.

    g_k is the gcd of all k x k minors (g_0 = 1), and the k-th invariant
    factor is g_k / g_(k-1), followed by zeros once g_k = 0 (Cohen, A Course
    in Computational Algebraic Number Theory, 2.4.4).  Exponential in the
    size: for small matrices only.
    """
    diag = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(m.entries, k):
            for cols in combinations(range(m.cols), k):
                g = gcd(g, determinant(IntMatrix(k, k, tuple(tuple(r[c] for c in cols) for r in rows))))
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return tuple(diag) + (0,) * (min(m.rows, m.cols) - len(diag))


# -- sample spaces and counting -----------------------------------------------


def enumerate_tau2(
    params: Tau2ModelParams, budget: int = DEFAULT_ENUM_BUDGET
) -> Iterator[Tau2Presentation]:
    """Every presentation in the sample space, exactly once."""
    _check_space(params, budget)
    values = range(-params.ell, params.ell + 1)
    for flat in itertools.product(values, repeat=params.slots):
        yield Tau2Presentation(params.n, params.m, flat)


def lindep_count_check(
    values: Sequence[int], t: int, vectors: Sequence[Sequence[int]], budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[int, int]:
    """Count vectors v in values^t that are linearly dependent together with
    the given independent vectors; must never exceed |values|^#vectors.

    Returns (dependent_count, bound).  Raises when the given vectors are not
    independent, when the enumeration exceeds the budget, or — which would
    be a genuine bug — when the bound fails.
    """
    values = sorted(set(map(index, values)))
    vecs = [tuple(map(index, v)) for v in vectors]
    for v in vecs:
        if len(v) != t:
            raise PreconditionError(f"vector length {len(v)} != t = {t}")
    if vecs:
        if rank(IntMatrix.from_rows(vecs, t)) != len(vecs):
            raise PreconditionError("given vectors are not linearly independent")
    total = len(values) ** t
    if total > budget:
        raise BudgetExceededError(f"enumeration needs {total} vectors, budget is {budget}")
    count = 0
    for v in itertools.product(values, repeat=t):
        if vecs:
            if in_rational_span(vecs, v):
                count += 1
        else:
            if all(x == 0 for x in v):
                count += 1
    bound = len(values) ** len(vecs)
    if count > bound:
        raise InternalInvariantError(
            f"dependent count {count} exceeds bound {bound} — this must never happen"
        )
    return count, bound


# -- the relation models' keyed construction ---------------------------------


def keyed_conj_range(n: int, flavor: str, i: int, j: int) -> range:
    """The generators x_k whose free exponents enter the conjugation
    relations of (i, j): above x_j for 'nilpotent', above x_i otherwise."""
    return range(j + 1, n + 1) if flavor == "nilpotent" else range(i + 1, n + 1)


def keyed_polycyclic_draw(params: PolycyclicModelParams, rng) -> tuple[dict, dict, dict]:
    """The free exponents of one relation-model draw, one ``rng.randint(-ell,
    ell)`` per key, keyed as (i, k) in ``power`` and as (i, j, k) in
    ``conj_b`` and ``conj_c``: powers (i asc, k asc), then the two
    conjugacy families in (i, j, k) order."""
    n, ell = params.n, params.ell
    finite = [i for i in range(1, n + 1) if params.s[i - 1] is not None]
    power = {(i, k): rng.randint(-ell, ell) for i in finite for k in range(i + 1, n + 1)}
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    conj = [(i, j, k) for i, j in pairs for k in keyed_conj_range(n, params.flavor, i, j)]
    conj_b = {key: rng.randint(-ell, ell) for key in conj}
    conj_c = {key: rng.randint(-ell, ell) for key in conj}
    return power, conj_b, conj_c


def keyed_polycyclic_presentation(
    n: int, s: Sequence[int | None], flavor: str, power: dict, conj_b: dict, conj_c: dict
) -> PolycyclicPresentation:
    """The presentation whose free exponents the dicts hold (a missing key
    is 0), its relation rows built entry by entry: ab(lhs) - ab(rhs) for
    x_i^s_i = R, then x_i^-1 x_j x_i = R for every i < j, then
    x_i x_j x_i^-1 = R."""
    rows = []
    for i in range(1, n + 1):
        si = s[i - 1]
        if si is None:
            continue
        row = [0] * n
        row[i - 1] = si
        for k in range(i + 1, n + 1):
            row[k - 1] -= power.get((i, k), 0)
        rows.append(row)
    for table in (conj_b, conj_c):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                row = [0] * n
                row[j - 1] = 1
                if flavor == "nilpotent":
                    row[j - 1] -= 1  # the mandatory leading x_j cancels
                for k in keyed_conj_range(n, flavor, i, j):
                    row[k - 1] -= table.get((i, j, k), 0)
                rows.append(row)
    return PolycyclicPresentation(n, tuple(s), flavor, IntMatrix.from_rows(rows, n))


def keyed_polycyclic_sample(params: PolycyclicModelParams, rng) -> PolycyclicPresentation:
    """The reference for ``sample_polycyclic_presentation``: the keyed draw,
    then the keyed rows."""
    return keyed_polycyclic_presentation(params.n, params.s, params.flavor, *keyed_polycyclic_draw(params, rng))


# -- isolators and c-small pairs relative to C --------------------------------


def in_derived_isolator(g: MalcevElement) -> bool:
    """True when some nonzero power of g lies in the derived subgroup.

    Central powers scale gamma linearly, so this holds exactly when g has
    zero alpha part and gamma(g) lies in the rational row span of the
    derived matrix.
    """
    if any(x != 0 for x in g.alpha):
        return False
    return in_rational_span(derived_matrix_by_pairs(g.presentation).entries, g.gamma)


def is_C_c_small(g: MalcevElement) -> bool:
    """Variant with the C-span in place of the center: centralizer == {g^t c}.

    The saturated kernel ker L(g) contains alpha(g), so it equals Z*alpha(g)
    iff alpha(g) is primitive and the kernel has rank 1.  For alpha(g) == 0
    the kernel is all of Z^n, which is {0} only when n == 0.

    Since L(g) * alpha(g) == 0, a column j with alpha_j(g) != 0 is a
    rational combination of the others; dropping it keeps the rank and lets
    the m x (n-1) rest reach full rank, so ``rank`` certifies it without a
    reduction whenever m >= n-1.

    ``tau2.structure`` now applies the same rule to the generators a_k (its
    ``_generator_csmall``), but only where the rank modulo a prime reaches
    n-1, and hands every other generator to the lattice test.  This oracle
    stays independent of that split: it decides both answers through
    ``rank``, which falls back to a Hermite reduction below full rank, and
    never builds a centralizer lattice.
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
