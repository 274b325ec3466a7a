"""Generate data/psu33.grp: PSU(3,3) on the 28 isotropic points of PG(2,9).

The unitary group here preserves the Hermitian form
    H(x, y) = x0*conj(y2) + x1*conj(y1) + x2*conj(y0)
on GF(9)^3, with conj(a) = a^3 (the field involution).  The projective plane
over GF(9) has exactly q^3 + 1 = 28 isotropic points, and the action of the
unitary matrices on them factors through the scalars, giving PGU(3,3); since
gcd(3, q+1) = 1 this equals PSU(3,3), simple of order 6048.  The group is
generated by four unitary matrices, permuting the isotropic points in sorted
order through `killform.gf.projective_perms`; no two of the four generate it.

Run from the repository root:  python3 tools/make_psu33.py
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from killform.gf import GFField, projective_perms, projective_points
from killform.groups import generate_group

F = GFField(9)
OUT = os.path.join(os.path.dirname(__file__), "..", "data", "psu33.grp")


def conj(a: int) -> int:
    return F.pow(a, 3) if a else 0


def hermitian(x, y) -> int:
    t = F.mul(x[0], conj(y[2]))
    t = F.add(t, F.mul(x[1], conj(y[1])))
    return F.add(t, F.mul(x[2], conj(y[0])))


def is_unitary(M) -> bool:
    """H(Mx, My) = H(x, y) on the basis vectors e_i, whose images are M's
    columns; H(e_i, e_j) is 1 when i + j = 2 and 0 otherwise."""
    cols = list(zip(*M))
    return all(hermitian(cols[i], cols[j]) == int(i + j == 2) for i in range(3) for j in range(3))


def unitriangular(t: int):
    """[[1,t,s],[0,1,-conj(t)],[0,0,1]] with s + conj(s) = -t*conj(t)."""
    target = F.neg(F.mul(t, conj(t)))
    for s in range(9):
        if F.add(s, conj(s)) == target:
            return [[1, t, s], [0, 1, F.neg(conj(t))], [0, 0, 1]]
    raise ValueError(f"no s for t={t}")


def psu33_text() -> str:
    """The text of data/psu33.grp."""
    isotropic = sorted(p for p in projective_points(F, 3) if hermitian(p, p) == 0)
    assert len(isotropic) == 28, len(isotropic)
    x = F.generator  # a primitive element of GF(9)
    J = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    b = F.pow(x, 2)  # b * conj(b) = b^4 = 1
    D = [[x, 0, 0], [0, b, 0], [0, 0, F.inv(conj(x))]]
    matrices = [J, unitriangular(1), unitriangular(x), D]
    assert all(is_unitary(M) for M in matrices)
    gens = projective_perms(F, matrices, isotropic)
    order = generate_group(gens).order
    assert order == 6048, order
    return "".join([
        "# PSU(3,3), simple of order 6048, acting on the 28 isotropic\n",
        "# points of PG(2,9) for the Hermitian form x0*conj(y2) + x1*conj(y1) + x2*conj(y0).\n",
        "# Generated by tools/make_psu33.py (deterministic).\n",
        "name PSU(3,3)\n",
        "degree 28\n",
        *(f"{g}\n" for g in gens),
    ])


def main() -> None:
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write(psu33_text())
    print(f"wrote {OUT}; order check 6048 OK")


if __name__ == "__main__":
    main()
