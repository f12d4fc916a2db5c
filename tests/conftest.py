import itertools
import random
import sys

import pytest

from tau2.core import Tau2Presentation


@pytest.fixture
def heisenberg() -> Tau2Presentation:
    return Tau2Presentation.from_nonzero(2, 1, {(1, 1, 2): 1})


@pytest.fixture
def default_digit_limit():
    """Python's default 4,300-digit limit on int(str), whatever PYTHONINTMAXSTRDIGITS says."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def random_presentation(rng: random.Random, n: int, m: int, bound: int) -> Tau2Presentation:
    table = {
        (t, i, j): rng.randint(-bound, bound)
        for t in range(1, m + 1)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    return Tau2Presentation.from_nonzero(n, m, table)


def random_element(rng: random.Random, p: Tau2Presentation, bound: int = 10):
    return p.element(
        [rng.randint(-bound, bound) for _ in range(p.n)],
        [rng.randint(-bound, bound) for _ in range(p.m)],
    )


def random_word(rng: random.Random, p: Tau2Presentation, max_len: int = 8):
    """A word of at most ``max_len`` letters ("a" or "c", index, +-1) over ``p``."""
    word = []
    for _ in range(rng.randint(0, max_len)):
        if p.m and (p.n == 0 or rng.random() < 0.3):
            word.append(("c", rng.randint(1, p.m), rng.choice((1, -1))))
        elif p.n:
            word.append(("a", rng.randint(1, p.n), rng.choice((1, -1))))
    return word


def signed_permutation_orbits(n: int, m: int, ell: int) -> dict[tuple[int, ...], int]:
    """Orbits of the flat exponent tables with entries in [-ell, ell] under
    every signed permutation of the a_i and of the c_t, by brute-force
    closure over the whole group: {smallest table of the orbit: orbit size}.

    Independent of ``tau2.randmodel``: the image is computed straight from
    lam'(t,i,j) = delta_t * eps_i * eps_j * lam(sigma(t), pi(i), pi(j)).
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {pair: k for k, pair in enumerate(pairs)}

    def lam(flat, t, i, j):
        if i == j:
            return 0
        if i < j:
            return flat[t * len(pairs) + index[(i, j)]]
        return -flat[t * len(pairs) + index[(j, i)]]

    group = [
        (sigma, delta, pi, eps)
        for sigma in itertools.permutations(range(m))
        for delta in itertools.product((1, -1), repeat=m)
        for pi in itertools.permutations(range(n))
        for eps in itertools.product((1, -1), repeat=n)
    ]
    orbits = {}
    seen = set()
    for flat in itertools.product(range(-ell, ell + 1), repeat=m * len(pairs)):
        if flat in seen:
            continue
        orbit = {
            tuple(
                delta[t] * eps[i] * eps[j] * lam(flat, sigma[t], pi[i], pi[j])
                for t in range(m)
                for i, j in pairs
            )
            for sigma, delta, pi, eps in group
        }
        seen |= orbit
        orbits[min(orbit)] = len(orbit)
    return orbits
