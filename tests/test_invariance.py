"""Isomorphism invariance: the same group on other generators.

``rebase`` in ``oracles`` writes a presentation on generators changed by
u in GL(n, Z) and w in GL(m, Z).  The result describes the same group with
the same span of C, so every isomorphism invariant must come out the same,
and an element is c-small exactly when its image is.  A general u sends a
generator a_k to an element that no generator certificate sees, so the
certificate path on one side is checked against the lattice path on the
other, on the same group.  The signed permutations of the symmetry test
only permute the certificates among themselves.

A certificate that fires one rank short is caught here.  A mutant that
drops the center from ``is_c_small``'s target is not: it gives the same
wrong answer in every basis.  The lattice oracles of ``test_structure``
catch that one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tau2.core import Tau2Presentation
from tau2.randmodel import TAU2_PROPERTIES
from tau2.structure import _generator_csmall, center, derived_report, is_c_small, is_regular

from oracles import rebase, unimodular_inverse

# derandomized so that the same cases run everywhere; together the tests
# here finish in well under 2 s
INVARIANCE = settings(max_examples=80, deadline=None, derandomize=True)


@st.composite
def unimodular(draw, size):
    """A size x size integer matrix of determinant +-1: the identity under a
    drawn sequence of elementary row moves (row i += c * row j) and sign
    flips."""
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    moves = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1), st.integers(-2, 2))
    for i, j, c in draw(st.lists(moves, max_size=2 * size)):
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return tuple(map(tuple, u))


@st.composite
def rebased(draw):
    """(p, q, u) with q = rebase(p, u, w): n in 2..5, m in 1..5, exponents
    in [-ell, ell] with ell <= 3, so that certificates often miss."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 5))
    ell = draw(st.integers(1, 3))
    flat = draw(st.lists(st.integers(-ell, ell), min_size=m * n * (n - 1) // 2, max_size=m * n * (n - 1) // 2))
    p = Tau2Presentation(n, m, flat)
    u = draw(unimodular(n))
    w = draw(unimodular(m))
    return p, rebase(p, u, w), u


def test_rebase_identity_and_inverse():
    p = Tau2Presentation(3, 2, [1, -2, 3, 0, 1, 1])
    eye3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert rebase(p, eye3, ((1, 0), (0, 1))) == p
    u = ((1, 2, 0), (0, 1, 0), (3, 5, -1))
    w = ((2, 1), (1, 1))
    back = rebase(rebase(p, u, w), unimodular_inverse(u), unimodular_inverse(w))
    assert back == p
    uinv = unimodular_inverse(u)
    assert all(sum(u[i][k] * uinv[k][j] for k in range(3)) == (i == j) for i in range(3) for j in range(3))


@INVARIANCE
@given(rebased())
def test_center_rank(case):
    p, q, _ = case
    assert p.m + center(p).rank == q.m + center(q).rank


@INVARIANCE
@given(rebased())
def test_center_is_C(case):
    p, q, _ = case
    prop = TAU2_PROPERTIES["center_is_C"]
    assert prop(p) == prop(q)


@INVARIANCE
@given(rebased())
def test_derived_rank(case):
    p, q, _ = case
    assert derived_report(p)[0] == derived_report(q)[0]


@INVARIANCE
@given(rebased())
def test_regular(case):
    p, q, _ = case
    assert is_regular(p) == is_regular(q)


@INVARIANCE
@given(rebased())
def test_generator_csmall_against_its_image(case):
    # a_k of p has alpha row k of u^-1 in q, and a'_k of q has alpha row k
    # of u in p: each generator's answer (certificate first) against the
    # lattice test of its image in the other presentation
    p, q, u = case
    uinv = unimodular_inverse(u)
    for k in range(1, p.n + 1):
        assert _generator_csmall(p, k) == is_c_small(q.element(uinv[k - 1], (0,) * q.m)), k
        assert _generator_csmall(q, k) == is_c_small(p.element(u[k - 1], (0,) * p.m)), k
