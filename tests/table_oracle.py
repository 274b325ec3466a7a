"""Dixon-Burnside character tables split one class matrix at a time, kept as
the oracle for the library's split by a random combination.

Each piece of the space that is wider than a line is split by the next class
matrix M_i, through its action R on the piece: the roots of R's
characteristic polynomial (Hessenberg reduction, then Cantor-Zassenhaus on
Python lists) and one nullspace per root.  The values are lifted one row,
class and root of unity at a time.  Both the lines and the values must come
out bitwise equal to the library's.
"""
import cmath
import math
import random

import numpy as np

from killform.characters import (
    CharTable,
    _find_prime,
    _poly_divmod,
    _poly_gcd,
    _poly_trim,
    _power_classes,
    validate_orthogonality,
)
from killform.exactlinalg import _eliminate, _matmul_mod
from killform.gf import _least_primitive_root


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_divmod(out, mod, p)[1]


def _poly_powmod(base, e, mod, p):
    result = [1]
    base = _poly_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def poly_roots(f, p: int, rng) -> list[int]:
    """Distinct roots in GF(p) of f, by splitting gcd(x^p - x, f) recursively."""
    f = _poly_trim(list(f))
    xp = _poly_powmod([0, 1], p, f, p)
    xp_minus_x = list(xp) + [0] * (max(0, 2 - len(xp)))
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    roots: list[int] = []
    _split_distinct(_poly_gcd(_poly_trim(xp_minus_x), f, p), p, rng, roots)
    return sorted(roots)


def _split_distinct(g, p: int, rng, out: list[int]) -> None:
    g = _poly_trim(list(g))
    deg = len(g) - 1
    if deg == 0:
        return
    if deg == 1:
        out.append((-g[0]) * pow(g[1], p - 2, p) % p)
        return
    if g[0] == 0:
        out.append(0)
        _split_distinct(_poly_trim(g[1:]), p, rng, out)
        return
    while True:
        h = list(_poly_powmod([rng.randrange(p), 1], (p - 1) // 2, g, p))
        h[0] = (h[0] - 1) % p
        d = _poly_gcd(_poly_trim(h), g, p)
        if 0 < len(d) - 1 < deg:
            _split_distinct(d, p, rng, out)
            _split_distinct(_poly_divmod(g, d, p)[0], p, rng, out)
            return


def charpoly_mod(R: np.ndarray, p: int) -> list[int]:
    """det(xI - R) mod p via Hessenberg reduction (similarity transforms)."""
    n = R.shape[0]
    H = [[int(v) % p for v in row] for row in R]
    for c in range(n - 2):
        piv = next((r for r in range(c + 1, n) if H[r][c]), None)
        if piv is None:
            continue
        if piv != c + 1:
            H[piv], H[c + 1] = H[c + 1], H[piv]
            for row in H:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        inv = pow(H[c + 1][c], p - 2, p)
        for r in range(c + 2, n):
            f = H[r][c] * inv % p
            if f:
                for j in range(n):
                    H[r][j] = (H[r][j] - f * H[c + 1][j]) % p
                for row in H:
                    row[c + 1] = (row[c + 1] + f * row[r]) % p
    # p_m(x) = (x - H[m-1][m-1]) p_{m-1} - sum_i H[i][m-1] (prod_j H[j][j-1]) p_i
    polys = [[1]]
    for m in range(1, n + 1):
        hmm = H[m - 1][m - 1]
        prev = polys[m - 1]
        cur = [(-hmm * prev[0]) % p] + [
            (prev[j - 1] - hmm * prev[j]) % p if j < len(prev) else prev[j - 1] % p
            for j in range(1, m + 1)
        ]
        prod = 1
        for i in range(m - 2, -1, -1):
            prod = prod * H[i + 1][i] % p
            term = H[i][m - 1] * prod % p
            if term:
                for j, cj in enumerate(polys[i]):
                    cur[j] = (cur[j] - term * cj) % p
        polys.append(cur)
    return polys[n]


def _restricted_action(Mi: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """R with Mi @ B = B @ R (mod p): N = [-R; I] spans the nullspace of [B | Mi B]."""
    r = B.shape[1]
    rank, pivots, N = _eliminate(np.concatenate([B, _matmul_mod(Mi, B, p)], axis=1), p)
    assert rank == r and pivots == list(range(r)), "subspace basis degenerated"
    return -N[:r] % p


def common_eigenvectors(Ms: list[np.ndarray], p: int, seed: int = 0xD1C0) -> list[np.ndarray]:
    """The central characters mod p, split off one class matrix at a time."""
    rng = random.Random(seed)
    k = Ms[0].shape[0]
    spaces = [np.eye(k, dtype=np.int64)]
    for Mi in Ms:
        if all(S.shape[1] == 1 for S in spaces):
            break
        nxt = []
        for B in spaces:
            if B.shape[1] == 1:
                nxt.append(B)
                continue
            R = _restricted_action(Mi, B, p)
            roots = poly_roots(charpoly_mod(R, p), p, rng)
            if len(roots) <= 1:
                nxt.append(B)
                continue
            for lam in roots:
                N = _eliminate((R - lam * np.eye(len(R), dtype=np.int64)) % p, p)[2]
                if N.shape[1]:
                    nxt.append(_matmul_mod(B, N, p))
        spaces = nxt
    assert len(spaces) == k and all(S.shape[1] == 1 for S in spaces)
    out = []
    for S in spaces:
        v = S[:, 0] % p
        assert v[0], "central character vanishes on the identity class"
        out.append(v * pow(int(v[0]), p - 2, p) % p)
    return out


def oracle_table(G) -> CharTable:
    """The character table of G (at least two classes), as the library builds
    it but with the split and the lift above."""
    classes = G.classes()
    k = len(classes)
    labels = [c.label for c in classes]
    sizes = [c.size for c in classes]
    n = G.exponent()
    p = _find_prime(n, G.order)
    vecs = common_eigenvectors([M % p for M in G.structure_constants], p)

    power_class = _power_classes(G)
    dual_class = [pc[-1] for pc in power_class]
    inv_sizes = [pow(s, p - 2, p) for s in sizes]
    rows = []
    for v in vecs:
        S = 0
        for j in range(k):
            S = (S + int(v[j]) * int(v[dual_class[j]]) % p * inv_sizes[j]) % p
        dd = G.order % p * pow(S, p - 2, p) % p
        deg = next(d for d in range(1, math.isqrt(G.order) + 1) if d * d % p == dd)
        rows.append((deg, [deg * int(v[j]) % p * inv_sizes[j] % p for j in range(k)]))
    assert sum(d * d for d, _ in rows) == G.order

    z = pow(_least_primitive_root(p), (p - 1) // n, p)
    chars = []
    for deg, chi_mod in rows:
        vals = []
        for j in range(k):
            nj = classes[j].element_order
            zj_inv = pow(pow(z, n // nj, p), p - 2, p)
            inv_nj = pow(nj, p - 2, p)
            val = 0j
            for s in range(nj):
                c_s = 0
                zpow = pow(zj_inv, s, p)
                acc = 1
                for t in range(nj):
                    c_s = (c_s + chi_mod[power_class[j][t]] * acc) % p
                    acc = acc * zpow % p
                c_s = c_s * inv_nj % p
                assert c_s <= deg, "root-of-unity multiplicity exceeds the degree"
                if c_s:
                    val += c_s * cmath.exp(2j * cmath.pi * s / nj)
            vals.append(val)
        chars.append((deg, vals))

    def fingerprint(vals):
        return tuple((round(v.real, 8), round(v.imag, 8)) for v in vals)

    (trivial,) = [row for row in chars if all(abs(v - 1) < 1e-8 for v in row[1])]
    rest = sorted((row for row in chars if row is not trivial),
                  key=lambda row: (row[0], fingerprint(row[1])))
    ordered = [trivial] + rest
    T = CharTable(G.name or "G", labels, sizes, [d for d, _ in ordered],
                  [v for _, v in ordered], provenance=f"dixon(p={p})")
    validate_orthogonality(T)
    return T
