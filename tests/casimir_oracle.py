"""The dense Casimir, kept as the oracle for the orbital one.

The whole |C|-dim form is inverted exactly, read off the lifted nullspace of
[K | I], and the numerators of K^-1, over one common denominator, are summed
at the group index of each product ab; the sums must be constant on every
class of G.
"""
import random
from fractions import Fraction
from math import lcm

import numpy as np

from group_oracle import product_indices
from killform.errors import CapExceeded, NotCentral, SingularMatrix
from killform.exactlinalg import IntSymMatrix, _lift_nullspace, exact_rank
from killform.killing import CasimirExpansion, KillingForm

INVERSE_CAP = 512


def exact_inverse(M: IntSymMatrix, cap: int = INVERSE_CAP) -> list[list[Fraction]]:
    """Exact rational inverse, read off the lifted nullspace of [M | I].

    For nonsingular M the pivots of [M | I] are its first n columns, and the
    nullspace basis normalised on the free columns is [-M^-1; I]: column j is
    lifted as d_j * [-M^-1 e_j; e_j] with integer d_j > 0.
    """
    n = M.dim
    if n > cap:
        raise CapExceeded(f"dim {n} exceeds inverse cap {cap}")
    r = exact_rank(M)
    if r < n:
        raise SingularMatrix(f"rank {r} is below dim {n}")
    lifted = _lift_nullspace(np.hstack([M.data, np.eye(n, dtype=np.int64)]),
                             random.Random(0x1A7E))
    if lifted is None or lifted[1] != list(range(n)):
        # M is certified nonsingular, so only the 64-prime cap can stop the lift
        raise CapExceeded(f"the inverse of a dim {n} matrix did not lift within 64 primes")
    V = lifted[2]
    return [[Fraction(-V[j][i], V[j][n + j]) for j in range(n)] for i in range(n)]


def dense_casimir(K: KillingForm) -> CasimirExpansion:
    G, C = K.group, K.conj_class
    Kinv = exact_inverse(K.matrix)
    den = lcm(*(q.denominator for row in Kinv for q in row))
    num = np.array([[q.numerator * (den // q.denominator) for q in row] for row in Kinv],
                   dtype=object)
    sums = np.zeros(G.order, dtype=object)
    np.add.at(sums, product_indices(G.locator, C.arr, C.arr).ravel(), num.ravel())
    e_coeff, theta = Fraction(0), {}
    for ci, cl in enumerate(G.classes()):
        vals = sorted(Fraction(int(x), den) for x in set(sums[G.class_map == ci]))
        if len(vals) > 1:
            raise NotCentral(f"coefficients vary over class {cl.label}: {vals[:3]}")
        if cl.is_trivial():
            e_coeff = vals[0]
        elif vals[0]:
            theta[cl.label] = vals[0]
    return CasimirExpansion(e_coeff=e_coeff, theta_coeffs=theta)
