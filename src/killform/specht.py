"""Symmetric-group machinery: partitions, exact characters of S_n, Specht
multiplicities in conjugation modules, the sign-representation criterion, and
the closed forms for the 2-cycles spectrum.

Irreducible characters of S_n are computed here independently of the modular
character-table code, by the Murnaghan-Nakayama border-strip recursion; the
two routes cross-check each other in the tests.  Whether a Specht module
occurs in a class module is decided from these exact characters
(specht_occurs).  The constructive witness, Young symmetrizers projected into
the class module, is its test oracle in tests/specht_oracle.py.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import CapExceeded
from .groups import class_size, symmetric_class
from .perms import Perm

SPECHT_N_CAP = 8


@dataclass(frozen=True)
class Partition:
    parts: tuple

    def __init__(self, parts):
        parts = tuple(sorted((int(p) for p in parts), reverse=True))
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        return Partition(tuple(sum(1 for p in self.parts if p > j)
                               for j in range(self.parts[0])))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def partitions_of(n: int, max_part: int | None = None):
    """Partitions of n as descending tuples."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def class_sign(n: int, mu) -> int:
    return (-1) ** (n - len(tuple(mu)))


# --------------------------------------------------- characters of S_n (exact)

@lru_cache(maxsize=None)
def sn_character(lam: tuple, mu: tuple) -> int:
    """chi^lam(mu) by the Murnaghan-Nakayama border-strip recursion."""
    if not mu:
        return 1 if not lam else 0
    k, rest = mu[0], mu[1:]
    m = len(lam)
    if m == 0:
        return 0
    beta = [lam[i] + m - 1 - i for i in range(m)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        nbeta = sorted([x for x in beta if x != b] + [nb], reverse=True)
        newlam = tuple(nbeta[i] - (m - 1 - i) for i in range(m))
        newlam = tuple(p for p in newlam if p > 0)
        total += (-1) ** height * sn_character(newlam, rest)
    return total


def specht_dimension(lam) -> int:
    """Hook length formula."""
    lam = tuple(lam)
    conj = Partition(lam).conjugate().parts
    num = factorial(sum(lam))
    den = 1
    for i, p in enumerate(lam):
        for j in range(p):
            den *= (p - j) + (conj[j] - i) - 1
    return num // den


@lru_cache(maxsize=None)
def _fixed_counts(n: int, mu: tuple) -> tuple:
    """(nu, |C_nu|, |Z(g_nu) ∩ C_mu|) for every class nu of S_n, with g_nu
    cycling consecutive points; only C_mu is enumerated."""
    nus = list(partitions_of(n))
    reps = [Perm.from_cycles([range(e - k, e) for k, e in zip(nu, itertools.accumulate(nu))],
                             n).images for nu in nus]
    fixes = symmetric_class(n, mu).commuting_count(np.array(reps)).tolist()
    return tuple((nu, class_size(n, nu), f) for nu, f in zip(nus, fixes))


def specht_multiplicity(lam, mu) -> int:
    """<chi_{C C_mu}, chi^lam> over S_n, via exact characters and fixed counts."""
    lam, mu = tuple(lam), tuple(mu)
    n = sum(lam)
    if sum(mu) != n:
        raise ValueError("partitions must have the same size")
    total = 0
    for nu, size, fix in _fixed_counts(n, mu):
        if fix:
            total += size * fix * sn_character(lam, nu)
    q, r = divmod(total, factorial(n))
    if r:
        raise ArithmeticError(f"non-integral multiplicity for {lam} in class {mu}")
    return q


# --------------------------------------------------------------- the theorems

def specht_occurs(lam: Partition, mu: Partition, cap: int = SPECHT_N_CAP) -> bool:
    """Does S^lam occur in the conjugation module on the class of cycle type mu?

    Decided by the exact multiplicity <chi_{C C_mu}, chi^lam>
    (specht_multiplicity).  The constructive witness, project_to_class(c_T,
    C_mu) != 0 for some standard tableau T of shape lam, gives the same
    answer and is its test oracle (tests/specht_oracle.py).
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    mu = mu if isinstance(mu, Partition) else Partition(mu)
    if lam.n != mu.n:
        raise ValueError("partitions must have the same size")
    if lam.n > cap:
        raise CapExceeded(f"n = {lam.n} exceeds the Specht cap {cap}")
    return specht_multiplicity(lam.parts, mu.parts) > 0


def sign_rep_occurs(mu: Partition) -> bool:
    """The sign representation occurs in C C_mu iff mu has distinct odd parts."""
    parts = tuple(mu if not isinstance(mu, Partition) else mu.parts)
    return len(set(parts)) == len(parts) and all(p % 2 == 1 for p in parts)


def sign_rep_multiplicity(mu) -> int:
    """<chi_{C C_mu}, sign> computed exactly (test oracle for sign_rep_occurs)."""
    mu = tuple(mu)
    n = sum(mu)
    total = Fraction(0)
    for nu, size, fix in _fixed_counts(n, mu):
        if fix:
            total += Fraction(size * class_sign(n, nu) * fix, factorial(n))
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral sign multiplicity for {mu}")
    return int(total)


def euler_count(n: int) -> tuple:
    """(number of partitions of n into distinct odd parts,
        #even-sign classes - #odd-sign classes); the two agree for every n."""
    if n < 1:
        raise ValueError("n must be positive")
    distinct_odd = 0
    signed = 0
    for mu in partitions_of(n):
        signed += class_sign(n, mu)
        if len(set(mu)) == len(mu) and all(p % 2 == 1 for p in mu):
            distinct_odd += 1
    return distinct_odd, signed


def two_cycles_eigenvalues(n: int) -> tuple:
    """(E_trivial, E_standard, E_hook22) for the 2-cycles class of S_n.

    E_trivial = (n^4 - 10n^3 + 41n^2 - 72n + 48)/4 (the row sum), the
    standard representation sits at n^2 - 6n + 12, and S^(n-2,2) at 2n.
    """
    if n < 4:
        raise ValueError("closed forms need n >= 4")
    e_triv = (n**4 - 10 * n**3 + 41 * n**2 - 72 * n + 48) // 4
    return e_triv, n * n - 6 * n + 12, 2 * n

