"""Random presentation models, exact enumeration, and Monte Carlo estimation.

Two models live here:

* the quadratic-relator model: presentations with all exponents lam(t,i,j)
  independent and uniform on {-ell, ..., ell};
* polycyclic / nilpotent presentations built from power and conjugacy
  relations, again with uniform bounded exponents.

Estimation is reproducible by construction: each trial draws its own RNG
stream derived by hashing (seed, trial index), so results do not depend on
the order trials run in, and a (seed, params, trials) triple always yields
the same numbers.  Intervals are Wilson 95% intervals.

Exact enumeration and Monte Carlo make one pass over the presentations:
each is built once and tested against every requested property, so the
structure it memoises is computed once and shared.  Exact mode builds one
representative per orbit of the signed permutations of the a_i and of the
c_t, weighted by the orbit's size: relabelling or inverting generators
gives an isomorphic group with the same generating sets, so no registered
property can tell the presentations of one orbit apart.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    DEFAULT_SIZE_BUDGET,
    Tau2Presentation,
    bounded_power,
    check_budget,
    check_size_budget,
    count_text,
    table_slot,
)
from .errors import PreconditionError
from .intlin import IntMatrix, snf
from .structure import (
    all_commutators_nontrivial,
    all_generators_csmall,
    center,
    derived_report,
    is_regular,
    scalar_ring_is_Z_certificate,
)

DEFAULT_ENUM_BUDGET = 10**7
WILSON_Z = 1.96  # 95%


@dataclass(frozen=True)
class Tau2ModelParams:
    """Exponent-bound model: n >= 2 generators, m >= 1 central generators,
    all lam entries uniform on {-ell..ell}.  Sample space size
    (2*ell+1)**(m*n*(n-1)/2).  Shapes over the size budget are refused by
    ``check_size_budget``, as for presentation files.  n, m and ell are
    read through ``operator.index``, so a float or a string raises
    ``TypeError``."""

    n: int
    m: int
    ell: int

    def __post_init__(self):
        for name in ("n", "m", "ell"):
            object.__setattr__(self, name, index(getattr(self, name)))
        if self.n < 2 or self.m < 1:
            raise PreconditionError(f"model needs n >= 2 and m >= 1, got n={self.n}, m={self.m}")
        if self.ell < 0:
            raise PreconditionError("exponent bound must be >= 0")
        check_size_budget("model", self.n, self.m)

    @property
    def slots(self) -> int:
        return self.m * self.n * (self.n - 1) // 2

    @property
    def sample_space_size(self) -> int | None:
        """(2*ell+1)**slots, or None when that is above SHOWN_COUNT_LIMIT:
        ``bounded_power`` decides it without building the larger number."""
        return bounded_power(2 * self.ell + 1, self.slots)


def _draw_exponents(rng: random.Random, ell: int, count: int) -> list[int]:
    """``count`` draws uniform on {-ell..ell}, with the values and the final
    generator state of ``count`` calls of ``rng.randint(-ell, ell)``: each is
    getrandbits(k), k the bit length of 2*ell+1, redrawn while at least
    2*ell+1 (CPython's rejection rule), minus ell."""
    width = 2 * ell + 1
    k = width.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= width:
            r = bits(k)
        out.append(r - ell)
    return out


def sample_tau2(params: Tau2ModelParams, rng: random.Random) -> Tau2Presentation:
    """One uniform draw; exponents drawn by ``_draw_exponents`` in (t, i<j) order."""
    return Tau2Presentation(params.n, params.m, _draw_exponents(rng, params.ell, params.slots))


def _check_space(params: Tau2ModelParams, budget: int) -> int:
    return check_budget(params.sample_space_size, budget, "sample space has {} presentations")


def symmetry_generators(n: int, m: int) -> list[tuple[tuple[int, int], ...]]:
    """Generators of the signed permutations of the a_i and of the c_t, as
    maps of the flat exponent table (``table_slot`` order) onto itself.

    Entry s of a map is ``(source slot, sign)``: the image of a table f has
    ``sign * f[source]`` in slot s.  With lam extended antisymmetrically, a
    relabelling (sigma, delta) of the c_t and (pi, eps) of the a_i acts as
    lam'(t,i,j) = delta_t * eps_i * eps_j * lam(sigma(t), pi(i), pi(j)).
    The generators are the transposition (1 2), the cycle and the inversion
    of the first generator, on the a_i and on the c_t (permutations of the
    c_t only when m >= 2).  Equal maps are listed once.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def relabel(sigma, delta, pi, eps):
        out = []
        for t in range(m):
            for i, j in pairs:
                si, sj = pi[i], pi[j]
                sign = delta[t] * eps[i] * eps[j]
                if si > sj:  # lam(t, j, i) == -lam(t, i, j)
                    si, sj, sign = sj, si, -sign
                out.append((table_slot(n, sigma[t] + 1, si + 1, sj + 1), sign))
        return tuple(out)

    def moves(k):
        perms = [[1, 0] + list(range(2, k)), [(i + 1) % k for i in range(k)]] if k >= 2 else []
        return [(perm, [1] * k) for perm in perms] + [(list(range(k)), [-1] + [1] * (k - 1))]

    same_a = (list(range(n)), [1] * n)
    same_c = (list(range(m)), [1] * m)
    maps = [relabel(*same_c, *a_move) for a_move in moves(n)]
    maps += [relabel(*c_move, *same_a) for c_move in moves(m)]
    return list(dict.fromkeys(maps))


def _image_tables(params: Tau2ModelParams) -> tuple[int, list[tuple[Sequence[int], Sequence[int]]]]:
    """Lookup tables for the image indices of ``orbit_representatives``.

    An index splits as ``h, l = divmod(index, split)`` into its high
    ceil(slots/2) and low floor(slots/2) digits.  The index of a table's
    image under a generator is linear in the digits, so it is
    ``hi[h] + lo[l]``, where ``(hi, lo)`` is that generator's pair (in
    ``symmetry_generators`` order): ``hi`` holds the contribution of every
    high half plus the constant term, ``lo`` that of every low half.  No
    table is longer than ``base ** ceil(slots/2)``, and a one-slot half is
    a ``range``, so a one-slot space allocates no table of its size.
    """
    ell, slots = params.ell, params.slots
    base = 2 * ell + 1
    high = slots - slots // 2
    weights = [base ** (slots - 1 - s) for s in range(slots)]

    def half(coefs, offset):
        # offset + sum(c * (digit - ell)) for every choice of the half's
        # digits, in index order
        if len(coefs) == 1:
            (c,) = coefs
            return range(offset - c * ell, offset + c * (ell + 1), c)
        table = [offset]
        for c in coefs:
            steps = [c * (d - ell) for d in range(base)]
            table = [t + step for t in table for step in steps]
        return table

    tables = []
    for gen in symmetry_generators(params.n, params.m):
        # value v in slot `source` adds sign * weights[s] * v to the image's
        # index, which is ell * sum(weights) for the all-zero table
        coef = [0] * slots
        for s, (source, sign) in enumerate(gen):
            coef[source] = sign * weights[s]
        tables.append((half(coef[:high], ell * sum(weights)), half(coef[high:], 0)))
    return base ** (slots - high), tables


def orbit_representatives(params: Tau2ModelParams) -> Iterator[tuple[Tau2Presentation, int]]:
    """One (presentation, orbit size) pair per orbit of the sample space
    under ``symmetry_generators``; the sizes add up to the space's size.

    A table is numbered by its mixed-radix index in base 2*ell+1: its
    exponents, shifted by ell, are the digits in ``table_slot`` order, the
    first slot most significant.  A bitmap marks visited indices; the lowest
    unvisited index starts a walk that marks its whole orbit, and it is the
    orbit's representative, the only table of the orbit that is built.  The
    walk never decodes an index: it splits it into two digit halves once
    and reads each generator's image index off ``_image_tables``.
    """
    total = _check_space(params, DEFAULT_ENUM_BUDGET)
    ell, slots = params.ell, params.slots
    base = 2 * ell + 1
    split, tables = _image_tables(params)

    def values(index):
        v = [0] * slots
        for s in range(slots - 1, -1, -1):
            index, digit = divmod(index, base)
            v[s] = digit - ell
        return v

    seen = bytearray(total)
    rep = seen.find(0)
    while rep >= 0:
        seen[rep] = 1
        stack = [rep]
        size = 0
        while stack:
            h, l = divmod(stack.pop(), split)
            size += 1
            for hi, lo in tables:
                image = hi[h] + lo[l]
                if not seen[image]:
                    seen[image] = 1
                    stack.append(image)
        yield Tau2Presentation(params.n, params.m, values(rep)), size
        rep = seen.find(0, rep + 1)


# -- counting bounds -----------------------------------------------------------


def count_bound_p(
    n: int, m: int, ell: int, variant: str, convention: str | None = None
) -> tuple[int, Fraction]:
    """Lower-bound polynomial p(L) for the favourable-presentation counts,
    and the induced probability bound p(L) / (2*ell+1)**slots.

    variant 'main': p(L) = prod_{i<j} (L^m - L^(j-2) - L^(i-1)), requires
    m >= n-1 >= 1; counts presentations where the commutation matrix of
    every a_k has rank n-1 and no exponent vector vanishes.

    variant 'regularity': with r = min(m, n(n-1)/2) and N = n(n-1)/2,
    p(L) = L^m * prod_{k=1..r-1} (L^m - L^k) * L^(m*(N-r)); counts
    presentations whose derived matrix has rank r.

    The two L conventions in circulation (L = 2*ell and L = 2*ell+1) are both
    supported; the default follows the variant's usual choice ('2l' for
    'main', '2l+1' for 'regularity').  Bounds can be negative for tiny ell;
    they are only meaningful when nonnegative.
    """
    if variant not in ("main", "regularity"):
        raise PreconditionError(f"unknown variant {variant!r}")
    if convention is None:
        convention = "2l" if variant == "main" else "2l+1"
    if convention == "2l":
        L = 2 * ell
    elif convention == "2l+1":
        L = 2 * ell + 1
    else:
        raise PreconditionError(f"unknown L convention {convention!r}")
    big_n = n * (n - 1) // 2
    if variant == "main":
        if not (m >= n - 1 >= 1):
            raise PreconditionError("variant 'main' requires m >= n-1 >= 1")
        p = 1
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                p *= L**m - L ** (j - 2) - L ** (i - 1)
    else:
        if n < 2 or m < 1:
            raise PreconditionError("variant 'regularity' requires n >= 2 and m >= 1")
        r = min(m, big_n)
        p = L**m
        for k in range(1, r):
            p *= L**m - L**k
        p *= L ** (m * (big_n - r))
    space = (2 * ell + 1) ** (m * big_n)
    return p, Fraction(p, space)


# -- polycyclic / nilpotent presentations ---------------------------------------


@dataclass(frozen=True)
class PolycyclicPresentation:
    """Presentation with power relations x_i^{s_i} = R_{i,i} (finite s_i only)
    and conjugacy relations x_i^-1 x_j x_i = R_{j,i},  x_i x_j x_i^-1 = R_{i,j}
    for i < j, where each R is a product of generators above an index cutoff.

    flavor 'polycyclic': R_{j,i} and R_{i,j} run over x_{i+1} .. x_n.
    flavor 'nilpotent':  they start with the mandatory letter x_j and the
    free exponents run over x_{j+1} .. x_n only.

    s entries use None for an infinite (torsion-free) generator.
    """

    n: int
    s: tuple[int | None, ...]
    power: dict
    conj_b: dict
    conj_c: dict
    flavor: str

    def conj_range(self, i: int, j: int) -> range:
        if self.flavor == "nilpotent":
            return range(j + 1, self.n + 1)
        return range(i + 1, self.n + 1)


@dataclass(frozen=True)
class PolycyclicModelParams:
    """Relation model: n generators with power exponents s (None for
    infinite), free exponents uniform on {-ell..ell}, flavor 'polycyclic' or
    'nilpotent'.  Shapes the sampler cannot draw from, and shapes with
    n*n*n > DEFAULT_SIZE_BUDGET, which bounds the number of draws, are
    refused here, before any draw.  ``s = None`` makes every generator
    infinite; it is built only once n has passed the size budget.  n, ell
    and every finite s entry are read through ``operator.index``."""

    n: int
    s: tuple[int | None, ...] | None
    ell: int
    flavor: str

    def __post_init__(self):
        min_n = {"polycyclic": 2, "nilpotent": 3}.get(self.flavor)
        if min_n is None:
            raise PreconditionError(f"unknown flavor {self.flavor!r}")
        for name in ("n", "ell"):
            object.__setattr__(self, name, index(getattr(self, name)))
        if self.n < min_n:
            raise PreconditionError(f"{self.flavor} model needs n >= {min_n}")
        shape = f"{self.flavor} model with n={count_text(self.n)}"
        check_budget(bounded_power(self.n, 3), DEFAULT_SIZE_BUDGET, shape + " needs n*n*n = {}")
        s = (None,) * self.n if self.s is None else tuple(None if e is None else index(e) for e in self.s)
        object.__setattr__(self, "s", s)
        if len(s) != self.n:
            raise PreconditionError(f"need {self.n} power exponents, got {len(s)}")
        if any(e is not None and e <= 0 for e in s):
            raise PreconditionError("power exponents s must be positive or inf")
        if self.ell < 0:
            raise PreconditionError("exponent bound must be >= 0")


def sample_polycyclic_presentation(
    params: PolycyclicModelParams, rng: random.Random
) -> PolycyclicPresentation:
    """Uniform draw of all free exponents from {-ell..ell}, in one ``_draw_exponents`` call.

    Sampling order is canonical: power exponents (i asc, k asc), then the
    two conjugacy families in (i, j, k) lexicographic order.
    """
    n = params.n
    pres = PolycyclicPresentation(n, params.s, {}, {}, {}, params.flavor)
    power = [(i, k) for i in range(1, n + 1) if params.s[i - 1] is not None for k in range(i + 1, n + 1)]
    conj = [(i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1) for k in pres.conj_range(i, j)]
    draws = iter(_draw_exponents(rng, params.ell, len(power) + 2 * len(conj)))
    for table, keys in ((pres.power, power), (pres.conj_b, conj), (pres.conj_c, conj)):
        table.update(zip(keys, draws))
    return pres


def abelianization_matrix(pres: PolycyclicPresentation) -> IntMatrix:
    """Relation exponent-sum matrix: one row per relation, columns are
    generators, entries the net exponent of ab(lhs) - ab(rhs)."""
    n = pres.n
    rows = []
    for i in range(1, n + 1):
        si = pres.s[i - 1]
        if si is None:
            continue
        row = [0] * n
        row[i - 1] = si
        for k in range(i + 1, n + 1):
            row[k - 1] -= pres.power.get((i, k), 0)
        rows.append(row)
    for table in (pres.conj_b, pres.conj_c):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                row = [0] * n
                row[j - 1] = 1
                if pres.flavor == "nilpotent":
                    row[j - 1] -= 1  # the mandatory leading x_j cancels
                for k in pres.conj_range(i, j):
                    row[k - 1] -= table.get((i, j, k), 0)
                rows.append(row)
    return IntMatrix.from_rows(rows, n)


def abelianization(pres: PolycyclicPresentation) -> tuple[tuple[int, ...], bool]:
    """Invariant factors of Z^n modulo the relation rows, plus finiteness.

    The abelianization is finite exactly when the relation matrix has full
    rank n.  For the 'nilpotent' flavour this also decides finiteness of the
    presented group: the group is nilpotent, and a finitely generated
    nilpotent group is finite iff its abelianization is.  For the
    'polycyclic' flavour it does not (the infinite dihedral group is
    polycyclic with abelianization Z/2 x Z/2), so there only the
    abelianization is decided.

    The whole relation matrix goes to ``snf``, whose first Hermite pass
    keeps at most n of its about n**2 rows; the later passes see only those.
    """
    factors = tuple(d for d in snf(abelianization_matrix(pres)) if d != 0)
    return factors, len(factors) == pres.n


# -- properties and Monte Carlo ---------------------------------------------


def _center_is_C(p: Tau2Presentation) -> bool:
    return center(p).is_c_span()


def _derived_rank_is_r(p: Tau2Presentation) -> bool:
    return derived_report(p)[0] == min(p.m, p.n * (p.n - 1) // 2)


def _csmall_conjunction(p: Tau2Presentation) -> bool:
    return all_commutators_nontrivial(p) and _center_is_C(p) and all_generators_csmall(p)


TAU2_PROPERTIES: dict[str, Callable[[Tau2Presentation], bool]] = {
    "all_generators_csmall": all_generators_csmall,
    "center_is_C": _center_is_C,
    "all_commutators_nontrivial": all_commutators_nontrivial,
    "derived_rank_is_r": _derived_rank_is_r,
    "regular": is_regular,
    "scalarZ_certified": scalar_ring_is_Z_certificate,
    "csmall_conjunction": _csmall_conjunction,
}
"""Properties of the tau2 model by name.

Every property registered here must be invariant under the signed
permutations of the a_i and of the c_t (``symmetry_generators``): exact mode
tests one representative per orbit and counts it with the orbit's size.  A
property of the group with its generating sets A and C, taken as sets up to
inverses, qualifies; one that names a particular generator, such as "a_1 is
c-small", does not.  The tests check every entry on each generator's image.
"""

POLYCYCLIC_PROPERTIES: dict[str, Callable[[PolycyclicPresentation], bool]] = {
    "abelianization_finite": lambda pres: abelianization(pres)[1],
}


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    if trials <= 0:
        raise PreconditionError("trials must be >= 1")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2 * trials)) / denom
    half = z * ((phat * (1 - phat) / trials + z2 / (4 * trials * trials)) ** 0.5) / denom
    # the exact interval always contains phat; guard against rounding at the ends
    low = min(max(0.0, centre - half), phat)
    high = max(min(1.0, centre + half), phat)
    return low, high


def trial_rng(seed: int, index: int) -> random.Random:
    """Splittable per-trial stream: hash (seed, index) into a child seed."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _resolve(property_names: Sequence[str], params) -> tuple[list[Callable], Callable]:
    """The registered functions of every name, and the model's sampler."""
    if isinstance(params, Tau2ModelParams):
        registry = TAU2_PROPERTIES
        sampler = lambda rng: sample_tau2(params, rng)
    elif isinstance(params, PolycyclicModelParams):
        registry = POLYCYCLIC_PROPERTIES
        sampler = lambda rng: sample_polycyclic_presentation(params, rng)
    else:
        raise PreconditionError(f"unsupported params type {type(params).__name__}")
    for name in property_names:
        if name not in registry:
            raise PreconditionError(f"unknown property {name!r}; known: {sorted(registry)}")
    return [registry[name] for name in property_names], sampler


def _count(props: Sequence[Callable], weighted: Iterable) -> tuple[tuple[int, ...], int]:
    """(weighted hits per property, total weight) over (presentation, weight)
    pairs: each presentation is tested against every property before the
    next is built, so the structure it memoises is shared by all of them."""
    hits = [0] * len(props)
    total = 0
    for p, weight in weighted:
        total += weight
        for k, prop in enumerate(props):
            if prop(p):
                hits[k] += weight
    return tuple(hits), total


def _check_trials(trials: int):
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    check_budget(trials, DEFAULT_ENUM_BUDGET, "{} trials requested")


def montecarlo(
    property_names: Sequence[str], params, trials: int, seed: int
) -> tuple[tuple[int, ...], int]:
    """(hits per property, trials) over i.i.d. draws from the model.

    Identical (seed, params, trials) always produce identical counts: trial i
    is a pure function of its own hashed stream trial_rng(seed, i), and
    aggregation is a plain count.  ``wilson_interval(hits, trials)`` gives
    the 95% interval of each estimate.  More than DEFAULT_ENUM_BUDGET trials,
    the cap of exact mode, are refused before any draw.
    """
    _check_trials(trials)
    props, sampler = _resolve(property_names, params)
    return _count(props, ((sampler(trial_rng(seed, i)), 1) for i in range(trials)))


def exact_fraction(
    property_names: Sequence[str], params: Tau2ModelParams
) -> tuple[tuple[int, ...], int]:
    """(hits per property, sample space size) over the whole sample space,
    from one weighted representative per orbit (``orbit_representatives``)."""
    if not isinstance(params, Tau2ModelParams):
        raise PreconditionError("exact enumeration is only supported for the tau2 model")
    props, _ = _resolve(property_names, params)
    return _count(props, orbit_representatives(params))
