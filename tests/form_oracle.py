"""Exact vector algebra over a form's basis, kept as the oracle for the
library's forms, spectra and certificates.

A form's basis as Perms; sparse group-algebra vectors with exact
coefficients; the form applied and paired entry by entry; the class form from
the double loop over |Z(ab) ∩ C|; Roth's class-sum Gram from a located block
of products; the count t of g with g^2 = e from every square; the paper's nondegeneracy witness m for the universal calculus;
the central character of a class; all the class sums of a class form on its
orbits; and the rank by Bareiss elimination alone and the inertia by LDL^T
over Fraction, the oracles for `exactlinalg._exact_inertia`.
"""
import weakref
from fractions import Fraction

import numpy as np

from group_oracle import product_indices
from killform.characters import CharTable
from killform.errors import CapExceeded, KillformError
from killform.exactlinalg import EXACT_CAP, IntSymMatrix, exact_rank
from killform.groups import ConjClass, Group
from killform.killing import KillingForm
from killform.perms import Perm


class ZeroMultiplicity(KillformError):
    pass


class AlgebraVector:
    """Sparse exact linear combination of permutations (group-algebra element)."""

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                if v != 0:
                    self.coeffs[k] = v

    def __getitem__(self, k):
        return self.coeffs.get(k, 0)

    def __add__(self, other: "AlgebraVector") -> "AlgebraVector":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return AlgebraVector(out)

    def __sub__(self, other: "AlgebraVector") -> "AlgebraVector":
        return self + other.scale(-1)

    def scale(self, c) -> "AlgebraVector":
        return AlgebraVector({k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraVector) and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self):
        return set(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        terms = sorted(self.coeffs.items(), key=lambda kv: kv[0].images)
        inner = " + ".join(f"{v}*{k}" for k, v in terms[:6])
        if len(terms) > 6:
            inner += f" + ... ({len(terms)} terms)"
        return f"AlgebraVector({inner})"


_BASIS = weakref.WeakKeyDictionary()  # KillingForm -> its basis as Perms
_INDEX = weakref.WeakKeyDictionary()  # KillingForm -> {images: row}


def basis(K: KillingForm) -> tuple[Perm, ...]:
    """The basis of K as Perms, aligned with the rows of K.basis_arr."""
    if K not in _BASIS:
        _BASIS[K] = tuple(map(Perm, K.basis_arr.tolist()))
    return _BASIS[K]


def basis_index(K: KillingForm, p: Perm) -> int:
    """The row of p in basis(K) (KeyError if p is not in the basis)."""
    index = _INDEX.get(K)
    if index is None:
        index = _INDEX[K] = {q.images: i for i, q in enumerate(basis(K))}
    return index[p.images]


def theta_vector(K: KillingForm) -> AlgebraVector:
    """The all-ones vector over the class; an exact eigenvector at lambda_max."""
    if not K.is_class_calculus:
        raise ValueError("theta is defined for class calculi")
    return AlgebraVector({p: Fraction(1) for p in basis(K)})


def apply_form(K: KillingForm, v: AlgebraVector) -> AlgebraVector:
    """K applied to a vector over the basis: (K v)_a = sum_b K[a][b] v_b, exact."""
    out: dict[Perm, object] = {}
    data = K.matrix.data
    for b, coef in v.coeffs.items():
        j = basis_index(K, b)
        col = data[:, j]
        for i in np.nonzero(col)[0]:
            a = basis(K)[i]
            out[a] = out.get(a, 0) + int(col[i]) * coef
    return AlgebraVector(out)


def pairing(K: KillingForm, v, w) -> complex:
    """K(v, w) for coefficient mappings over the basis (floating/complex OK)."""
    data = K.matrix.data
    vi = np.zeros(K.matrix.dim, dtype=complex)
    wi = np.zeros(K.matrix.dim, dtype=complex)
    for p, c in v.items():
        vi[basis_index(K, p)] = c
    for p, c in w.items():
        wi[basis_index(K, p)] = c
    return complex(vi @ data @ wi)


def killing_matrix_bruteforce(C: ConjClass) -> IntSymMatrix:
    """Direct K[a][b] = |Z(ab) ∩ C|, counted for every product ab."""
    return IntSymMatrix(np.array([C.commuting_count(a[C.arr]) for a in C.arr]))


def class_sum_gram_located(G: Group) -> IntSymMatrix:
    """S[j][l] = |C_j| * sum over y in C_l of |Z(g_j y)|, from one located
    block of products g_j y of the class representatives g_j with all of G."""
    sizes = np.array([cl.size for cl in G.classes()], dtype=np.int64)
    values = (G.order // sizes)[G.class_map[product_indices(G.locator, G.class_reps, G.arr)]]
    by_class = np.argsort(G.class_map, kind="stable")
    starts = np.searchsorted(G.class_map[by_class], np.arange(len(sizes)))
    return IntSymMatrix(sizes[:, None] * np.add.reduceat(values[:, by_class], starts, axis=1))


def involution_count(G: Group) -> int:
    """t = #{g : g^2 = e}, e counted, from the squares of all the elements."""
    squares = np.take_along_axis(G.arr, G.arr, axis=1)
    return int((squares == np.arange(G.degree)).all(axis=1).sum())


def m_vector(G: Group, W_multiplicities, table: CharTable) -> dict:
    """The nondegeneracy witness m: coefficient at g is
    sum_i dim(V_i)^2 * conj(chi_i(g)) / <chi_i, chi_W>, as a map Perm -> complex.

    Character values are floating (Dixon lift), so coefficients are complex
    floats; m_e = sum_i dim^3 / mult_i is real and strictly positive.
    """
    mults = list(W_multiplicities)
    if len(mults) != len(table.degrees):
        raise ValueError("one multiplicity per irreducible, please")
    if any(m <= 0 for m in mults):
        raise ZeroMultiplicity(f"multiplicities must be positive: {mults}")
    class_values = []
    for j in range(len(table.class_labels)):
        val = 0j
        for i, d in enumerate(table.degrees):
            val += d * d * np.conj(table.chars[i][j]) / mults[i]
        class_values.append(complex(val))
    return {g: class_values[ci] for g, ci in zip(G.elements, G.class_map)}


def central_character(T: CharTable, C: ConjClass, i: int) -> complex:
    """theta_C acting on irrep i: |C| * chi_i(rep) / degree_i."""
    for j, (lab, size) in enumerate(zip(T.class_labels, T.class_sizes)):
        if lab == C.label and size == C.size:
            return size * T.chars[i][j] / T.degrees[i]
    raise ValueError(f"class {C.label} (size {C.size}) not in table {T.name}")


def class_sums(orbital) -> np.ndarray:
    """The (k, r, r) class sums A_j of a class form's orbital data
    (`killing._OrbitalData`), one `class_sum` per class of G."""
    return np.array([orbital.class_sum(u) for u in np.eye(orbital.tau.shape[1], dtype=np.int64)])


def _rank_bareiss(M: IntSymMatrix) -> int:
    """Fraction-free Bareiss elimination (exact, arbitrary-precision integers)."""
    a = [[int(x) for x in row] for row in M.data]
    n = M.dim
    prev = 1
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, n) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        pivot_val = a[r][col]
        for i in range(r + 1, n):
            row_i, row_r = a[i], a[r]
            f = row_i[col]
            for j in range(col, n):
                row_i[j] = (row_i[j] * pivot_val - f * row_r[j]) // prev
        prev = pivot_val
        r += 1
        if r == n:
            break
    return r


def _exact_inertia_ldlt(M: IntSymMatrix) -> tuple[int, int, int]:
    """Inertia by exact LDL^T with full symmetric pivoting (1x1 and 2x2 blocks)."""
    n = M.dim
    a = {}
    for i in range(n):
        for j in range(i, n):
            a[(i, j)] = Fraction(int(M.data[i, j]))

    def get(i, j):
        return a[(i, j)] if i <= j else a[(j, i)]

    def put(i, j, v):
        a[(i, j) if i <= j else (j, i)] = v

    active = list(range(n))
    pos = neg = zero = 0
    while active:
        k = max(active, key=lambda i: abs(get(i, i)))
        if get(k, k) != 0:
            d = get(k, k)
            if d > 0:
                pos += 1
            else:
                neg += 1
            rest = [i for i in active if i != k]
            col = {i: get(i, k) for i in rest}
            for x, i in enumerate(rest):
                if col[i] == 0:
                    continue
                for j in rest[x:]:
                    if col[j] != 0:
                        put(i, j, get(i, j) - col[i] * col[j] / d)
            active = rest
            continue
        # every active diagonal is zero: use a hyperbolic 2x2 pivot
        pair = None
        for ii, i in enumerate(active):
            for j in active[ii + 1 :]:
                if get(i, j) != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            zero += len(active)
            break
        k, l = pair
        b = get(k, l)  # block [[0, b], [b, 0]]: inertia (1, 1)
        pos += 1
        neg += 1
        rest = [i for i in active if i not in (k, l)]
        colk = {i: get(i, k) for i in rest}
        coll = {i: get(i, l) for i in rest}
        for x, i in enumerate(rest):
            for j in rest[x:]:
                delta = (colk[i] * coll[j] + coll[i] * colk[j]) / b
                if delta:
                    put(i, j, get(i, j) - delta)
        active = rest
    return pos, neg, zero


def exact_rank_bareiss(M: IntSymMatrix, cap: int = EXACT_CAP) -> int:
    if M.dim > cap:
        raise CapExceeded(f"dim {M.dim} exceeds exact cap {cap}")
    return _rank_bareiss(M)


def integer_eigen_multiplicity(M: IntSymMatrix, k: int, seed: int = 0) -> int:
    """Certified multiplicity of the integer k in the spectrum of M."""
    shifted = IntSymMatrix(M.data - k * np.eye(M.dim, dtype=np.int64))
    return M.dim - exact_rank(shifted, seed=seed)
