"""Exact arithmetic and randomized experiments for finitely generated
torsion-free 2-step nilpotent groups given by exponent-table presentations.

Subpackages:

* ``intlin``    exact integer linear algebra (HNF, invariant factors, kernels, lattices)
* ``core``      presentations, normal-form coordinates, group arithmetic
* ``structure`` centralizers, center, c-smallness, regularity, certificates
* ``dioph``     group equations as degree-<=2 integer constraint systems
* ``randmodel`` random models, enumeration, Monte Carlo with Wilson intervals
* ``cli``       command-line interface (``tau2 analyze|experiment|encode|odot``)
"""

__version__ = "0.1.0"

from .core import MalcevElement, Tau2Presentation, commutator, inverse, multiply, power
from .intlin import IntMatrix, LatticeBasis, hnf, snf

__all__ = [
    "__version__",
    "IntMatrix",
    "LatticeBasis",
    "MalcevElement",
    "Tau2Presentation",
    "commutator",
    "inverse",
    "multiply",
    "power",
    "hnf",
    "snf",
]
