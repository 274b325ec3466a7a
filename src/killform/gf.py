"""Small finite fields GF(q), and the action of matrices over them on
projective points: enough to build PSL(2,q), PSL(3,q) and PSU(3,3) as
permutation groups, each from a list of generator matrices.

Elements are encoded as integers 0..q-1: the integer sum(c_i * p**i) stands for
the polynomial sum(c_i * x**i) over GF(p).  For extension fields the modulus is a
fixed primitive (Conway) polynomial, so x itself generates the multiplicative
group; for prime fields the stored generator is the least primitive root.
"""
from __future__ import annotations

from functools import reduce
from itertools import product

from .errors import BadField
from .perms import Perm

# q -> coefficients of the Conway polynomial, constant term first (monic).
CONWAY = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 4, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (3, 6, 1),
    64: (1, 1, 0, 1, 1, 0, 1),
    81: (2, 0, 0, 2, 1),
    121: (2, 7, 1),
    128: (1, 1, 0, 0, 0, 0, 0, 1),
    169: (2, 12, 1),
}


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise BadField(f"q={q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise BadField(f"q={q} is not a prime power")
            return p, k
        p += 1
    return q, 1  # q itself prime


def _least_primitive_root(p: int) -> int:
    factors = set()
    m = p - 1
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors.add(d)
            m //= d
        d += 1
    if m > 1:
        factors.add(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise BadField(f"no primitive root mod {p}")  # unreachable for prime p


class GFField:
    """Arithmetic for GF(q) on integer-encoded elements."""

    def __init__(self, q: int):
        p, k = _factor_prime_power(q)
        if k > 1 and q not in CONWAY:
            raise BadField(f"no modulus polynomial on file for q={q}")
        self.q = q
        self.p = p
        self.k = k
        self.modulus = CONWAY.get(q)
        if k == 1:
            self.generator = _least_primitive_root(p) if p > 2 else 1
        else:
            self.generator = p  # the polynomial x
        # discrete-log tables over the full multiplicative group
        self._exp = [1]
        g = self.generator
        acc = 1
        for _ in range(q - 2):
            acc = self.mul_slow(acc, g)
            self._exp.append(acc)
        self._log = {e: i for i, e in enumerate(self._exp)}
        if len(self._log) != q - 1:
            raise BadField(f"generator of GF({q}) is not primitive")

    def decode(self, e: int) -> list[int]:
        c = []
        for _ in range(self.k):
            e, r = divmod(e, self.p)
            c.append(r)
        return c

    def encode(self, coeffs) -> int:
        e = 0
        for c in reversed(list(coeffs)):
            e = e * self.p + (c % self.p)
        return e

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += ((a % self.p + b % self.p) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return out

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self.encode(-c for c in self.decode(a))

    def mul_slow(self, a: int, b: int) -> int:
        """Polynomial product reduced by the modulus; used to build the log tables."""
        if self.k == 1:
            return (a * b) % self.p
        ca, cb = self.decode(a), self.decode(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        mod = self.modulus
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.k):
                    prod[i - self.k + j] = (prod[i - self.k + j] - c * mod[j]) % self.p
        return self.encode(prod[: self.k])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n <= 0:
                raise ZeroDivisionError("0**n for n <= 0")
            return 0
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    def __repr__(self) -> str:
        return f"GFField({self.q})"


def projective_points(F: GFField, n: int) -> list[tuple[int, ...]]:
    """The points of PG(n-1, q), each scaled so that its first nonzero
    coordinate is 1, ordered by the position of that 1 and then
    lexicographically by the later coordinates: for n = 2, (1:x) is at index x
    and (0:1) at index q."""
    return [(0,) * i + (1,) + rest
            for i in range(n) for rest in product(range(F.q), repeat=n - 1 - i)]


def projective_perms(F: GFField, matrices, points) -> list[Perm]:
    """The permutation of points (scaled as by projective_points) that each
    n x n matrix over F induces, v -> Mv up to a scalar."""
    index = {v: i for i, v in enumerate(points)}
    perms = []
    for M in matrices:
        images = []
        for v in points:
            u = [reduce(F.add, map(F.mul, row, v)) for row in M]
            s = F.inv(next((x for x in u if x), 1))  # the zero vector is no point
            image = index.get(tuple(F.mul(s, x) for x in u))
            if image is None:
                raise ValueError(f"the matrix {M} maps the point {v} to {u}, "
                                 f"which is not among the given points")
            images.append(image)
        perms.append(Perm(images))
    return perms
