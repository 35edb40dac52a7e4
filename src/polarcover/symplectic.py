"""The symplectic space (V, B) over F_q and its dual polar graph.

Vectors are tuples of field-element codes of length 2n, ordered as the
hyperbolic basis e_1..e_n, f_1..f_n with B(e_i, f_j) = delta_ij.  Subspaces
are canonicalized to reduced row echelon form on construction, so equality
and hashing are structural.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from .errors import ResourceCapExceeded
from .finite_field import FieldSpec

__all__ = [
    "SymplecticSpace",
    "Subspace",
    "Generator",
    "Isometry",
    "enumerate_generators",
    "distance",
    "intersect",
    "distance_profile",
    "verify_drg_parameters",
    "sp_sample_elements",
    "nonsquare_similarity",
]

DEFAULT_GENERATOR_CAP = 10**6


# -- vector/matrix helpers over F_q (codes) ---------------------------------


def eliminate(spec: FieldSpec, rows):
    """Gauss-Jordan elimination over F_q codes, first-nonzero pivoting.

    Returns (rows, pivots, det): the nonzero rows of the reduced row echelon
    form, their pivot columns, and the product of the pivots signed by the
    row swaps, which is the determinant when the input is square and
    nonsingular.
    """
    rows = [list(r) for r in rows if any(r)]
    pivots = []
    det = 1
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = spec.neg(det)
        det = spec.mul(det, rows[rank][col])
        inv = spec.inv(rows[rank][col])
        rows[rank] = [spec.mul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [spec.sub(x, spec.mul(f, p)) for x, p in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots, det


def rref(spec: FieldSpec, rows):
    """Reduced row echelon form; returns (rows, pivot_columns) as tuples."""
    rows, pivots, _ = eliminate(spec, rows)
    return tuple(tuple(r) for r in rows), tuple(pivots)


def rank_of(spec, rows):
    return len(eliminate(spec, rows)[1])


def vec_add(spec, u, v):
    return tuple(spec.add(a, b) for a, b in zip(u, v))


def vec_scale(spec, c, u):
    return tuple(spec.mul(c, a) for a in u)


def mat_vec(spec, rows, coeffs):
    """Linear combination sum coeffs[i] * rows[i]."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for j, x in enumerate(row):
                out[j] = spec.add(out[j], spec.mul(c, x))
    return tuple(out)


@dataclass(frozen=True)
class Subspace:
    """Row space of a canonical RREF basis matrix over F_q."""

    basis: tuple  # tuple of row tuples (codes), in RREF
    pivots: tuple

    @property
    def dim(self):
        return len(self.basis)

    @staticmethod
    def from_rows(spec, rows):
        basis, pivots = rref(spec, rows)
        return Subspace(basis, pivots)

    def residue(self, spec, v):
        """v minus sum v[p_i] * basis[i]; zero exactly when v lies in the subspace.

        In RREF each pivot column is zero outside its own row, so the
        coordinates of a member v are its entries at the pivot columns.
        """
        w = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if c:
                w = [spec.sub(x, spec.mul(c, y)) for x, y in zip(w, row)]
        return w

    def contains_vector(self, spec, v):
        return not any(self.residue(spec, v))


@dataclass(frozen=True)
class Generator:
    """A maximal totally isotropic subspace, with its enumeration index."""

    sub: Subspace
    id: int


@dataclass(frozen=True)
class Isometry:
    """A linear similarity of B: B(u g, v g) = multiplier * B(u, v)."""

    matrix: tuple  # 2n x 2n, rows = images of basis vectors
    multiplier: int  # field code


class SymplecticSpace:
    """Dimension-2n symplectic space over F_q in the hyperbolic basis."""

    def __init__(self, spec: FieldSpec, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.spec = spec
        self.n = n
        self.dim = 2 * n
        gram = [[0] * self.dim for _ in range(self.dim)]
        for i in range(n):
            gram[i][n + i] = 1
            gram[n + i][i] = spec.neg(1)
        self.gram = tuple(tuple(r) for r in gram)
        self._generators = None
        self._gen_index = None
        self._dist = None

    # B in the hyperbolic basis: sum u_i v_{n+i} - u_{n+i} v_i.
    def bform(self, u, v):
        spec, n = self.spec, self.n
        acc = 0
        for i in range(n):
            a = spec.mul(u[i], v[n + i])
            b = spec.mul(u[n + i], v[i])
            acc = spec.add(acc, spec.sub(a, b))
        return acc

    def is_isotropic(self, rows):
        return all(
            self.bform(rows[i], rows[j]) == 0
            for i in range(len(rows))
            for j in range(i + 1, len(rows))
        )

    def predicted_generator_count(self):
        q = self.spec.q
        count = 1
        for i in range(1, self.n + 1):
            count *= q**i + 1
        return count

    def generators(self, cap=DEFAULT_GENERATOR_CAP):
        if self._generators is None:
            self._generators = enumerate_generators(self, cap=cap)
            self._gen_index = {g.sub.basis: g.id for g in self._generators}
        return self._generators

    def generator_by_basis(self, basis):
        self.generators()
        return self._generators[self._gen_index[basis]]

    def generator_image(self, g: Generator, iso: Isometry):
        """Image of a generator under an isometry, located in the enumeration."""
        rows = [mat_vec(self.spec, iso.matrix, v) for v in g.sub.basis]
        basis, _ = rref(self.spec, rows)
        return self.generator_by_basis(basis)

    def perp_basis(self, sub: Subspace):
        """Basis of the orthogonal complement of a subspace."""
        # v is in perp iff M J v^T = 0 where rows of M are the basis and
        # J is the Gram matrix; build the constraint matrix rows B(b_i, .).
        spec = self.spec
        constraints = []
        for b in sub.basis:
            row = [self.bform(b, tuple(1 if k == j else 0 for k in range(self.dim)))
                   for j in range(self.dim)]
            constraints.append(row)
        return _kernel_basis(spec, constraints, self.dim)

    def distance_matrix(self):
        """Symmetric matrix of pairwise dual-polar-graph distances (numpy)."""
        import numpy as np

        if self._dist is not None:
            return self._dist
        gens = self.generators()
        m = len(gens)
        D = np.zeros((m, m), dtype=np.int8)
        spec, n = self.spec, self.n
        for i in range(m):
            bi = gens[i].sub.basis
            for j in range(i + 1, m):
                d = rank_of(spec, list(bi) + list(gens[j].sub.basis)) - n
                D[i, j] = D[j, i] = d
        self._dist = D
        return D


def _kernel_basis(spec, constraint_rows, ncols):
    """Basis (RREF) of {v : A v = 0} for A given as rows over F_q."""
    rows, pivots, _ = eliminate(spec, constraint_rows)
    basis = []
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, pc in enumerate(pivots):
            v[pc] = spec.neg(rows[r][free])
        basis.append(tuple(v))
    return rref(spec, basis)[0]


def enumerate_generators(space: SymplecticSpace, cap=DEFAULT_GENERATOR_CAP):
    """All maximal totally isotropic subspaces, in lexicographic RREF order.

    Recursive isotropic extension with per-dimension deduplication; the count
    is checked against prod (q^i + 1).
    """
    predicted = space.predicted_generator_count()
    if predicted > cap:
        raise ResourceCapExceeded(predicted, cap)
    spec, n, dim = space.spec, space.n, space.dim

    level = {Subspace((), ())}
    for _ in range(n):
        nxt = set()
        for sub in level:
            if sub.dim == 0:
                candidates = product(range(spec.q), repeat=dim)
                candidates = (v for v in candidates if any(v))
            else:
                perp = space.perp_basis(sub)
                candidates = (
                    mat_vec(spec, perp, coeffs)
                    for coeffs in product(range(spec.q), repeat=len(perp))
                )
                candidates = (v for v in candidates if any(v) and not sub.contains_vector(spec, v))
            for v in candidates:
                basis, pivots = rref(spec, list(sub.basis) + [v])
                nxt.add(Subspace(basis, pivots))
        level = nxt
    subs = sorted(level, key=lambda s: s.basis)
    if len(subs) != predicted:
        raise AssertionError(
            f"enumeration found {len(subs)} generators, expected {predicted}"
        )
    gens = [Generator(sub, i) for i, sub in enumerate(subs)]
    for g in gens:
        if not space.is_isotropic(g.sub.basis):
            raise AssertionError("non-isotropic subspace in enumeration")
    return gens


def distance(space: SymplecticSpace, X: Generator, Y: Generator) -> int:
    """Dual polar graph distance: codimension of X meet Y in X."""
    if X.id == Y.id:
        return 0
    stacked = list(X.sub.basis) + list(Y.sub.basis)
    return rank_of(space.spec, stacked) - space.n


def intersect(space: SymplecticSpace, X: Subspace, Y: Subspace) -> Subspace:
    """Intersection of two subspaces, as a canonical RREF subspace."""
    spec = space.spec
    # Left-kernel of the stacked basis: combos (c, d) with c X = d Y.
    stacked = list(X.basis) + list(Y.basis)
    if not stacked:
        return Subspace((), ())
    k1 = len(X.basis)
    transposed = [[row[j] for row in stacked] for j in range(len(stacked[0]))]
    combos = _kernel_basis(spec, transposed, len(stacked))
    vectors = [mat_vec(spec, X.basis, combo[:k1]) for combo in combos] if k1 else []
    vectors = [v for v in vectors if any(v)]
    basis, pivots = rref(spec, vectors)
    return Subspace(basis, pivots)


def distance_profile(space: SymplecticSpace, X: Generator) -> dict:
    """Number of generators at each distance from X."""
    D = space.distance_matrix()
    row = D[X.id]
    return {k: int((row == k).sum()) for k in range(space.n + 1)}


@dataclass
class DRGReport:
    ok: bool
    parameters: dict = field(default_factory=dict)  # k -> (c_k, a_k, b_k)
    failure: str = ""


def verify_drg_parameters(space: SymplecticSpace) -> DRGReport:
    """Check distance regularity by exhaustive counting, plus no diamonds.

    For every ordered pair at distance k, counts neighbors of the second
    vertex at distances k-1, k, k+1 from the first and verifies constancy.
    """
    import numpy as np

    D = space.distance_matrix()
    n = space.n
    A = (D == 1)
    params = {}
    for k in range(n + 1):
        pairs = D == k
        if k == 0:
            np.fill_diagonal(pairs, True)
        if not pairs.any():
            continue
        counts = {}
        for delta, name in ((-1, "c"), (0, "a"), (1, "b")):
            kk = k + delta
            if 0 <= kk <= n:
                Nk = (D == kk).astype(np.float64)
                if kk == 0:
                    np.fill_diagonal(Nk, 1.0)
                    np.fill_diagonal(Nk, 1.0)
                # counts[X, Y] = #{Z : d(X,Z)=kk and Z ~ Y}
                M = Nk @ A.astype(np.float64)
                vals = np.unique(M[pairs])
                if len(vals) != 1:
                    return DRGReport(False, params, f"non-constant {name}_{k}")
                counts[name] = int(vals[0])
            else:
                counts[name] = 0
        if k == 0:
            counts["a"] = 0  # a vertex is not its own neighbor
            counts["c"] = 0
        params[k] = (counts["c"], counts["a"], counts["b"])
    # Diamond exclusion: common neighbors of an edge form a clique
    # together with endpoints only (no two nonadjacent vertices share the edge).
    m = len(space.generators())
    Af = A.astype(np.float64)
    for x in range(m):
        for y in range(x + 1, m):
            if not A[x, y]:
                continue
            common = np.flatnonzero(A[x] & A[y])
            for ii in range(len(common)):
                for jj in range(ii + 1, len(common)):
                    u, v = common[ii], common[jj]
                    if not A[u, v]:
                        return DRGReport(False, params, f"induced diamond on ({x},{y},{u},{v})")
    return DRGReport(True, params)


def _transvection_matrix(space: SymplecticSpace, v, lam):
    """Matrix of x -> x + lam * B(x, v) v, a symplectic transvection."""
    spec, dim = space.spec, space.dim
    rows = []
    for i in range(dim):
        e = tuple(1 if j == i else 0 for j in range(dim))
        c = spec.mul(lam, space.bform(e, v))
        rows.append(vec_add(spec, e, vec_scale(spec, c, v)))
    return tuple(rows)


def _mat_mul_field(spec, A, B):
    rows = []
    for ra in A:
        rows.append(mat_vec(spec, B, ra))
    return tuple(rows)


def verify_similarity(space: SymplecticSpace, matrix, multiplier) -> bool:
    """Check B(u g, v g) = multiplier * B(u, v) on all basis pairs."""
    spec, dim = space.spec, space.dim
    for i in range(dim):
        gi = matrix[i]
        for j in range(dim):
            want = spec.mul(multiplier, space.gram[i][j])
            if space.bform(gi, matrix[j]) != want:
                return False
    return True


def sp_sample_elements(space: SymplecticSpace, count: int, seed: int):
    """Seeded random products of symplectic transvections (multiplier 1)."""
    rng = random.Random(seed)
    spec, dim = space.spec, space.dim
    out = []
    for _ in range(count):
        M = tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))
        for _ in range(rng.randint(3, 8)):
            v = tuple(rng.randrange(spec.q) for _ in range(dim))
            if not any(v):
                continue
            lam = rng.randrange(1, spec.q)
            M = _mat_mul_field(spec, M, _transvection_matrix(space, v, lam))
        if not verify_similarity(space, M, 1):
            raise AssertionError("transvection product failed gram preservation")
        out.append(Isometry(M, 1))
    return out


def nonsquare_similarity(space: SymplecticSpace) -> Isometry:
    """The explicit similarity with nonsquare multiplier eta.

    Maps e_1 -> e_1, e_i -> eta e_i (i >= 2), f_1 -> eta f_1, f_i -> f_i,
    so B(u g, v g) = eta B(u, v).
    """
    spec, n, dim = space.spec, space.n, space.dim
    eta = spec.smallest_nonsquare()
    rows = []
    for i in range(dim):
        scale = 1
        if 1 <= i < n:          # e_2 .. e_n
            scale = eta
        elif i == n:            # f_1
            scale = eta
        rows.append(tuple(spec.mul(scale, 1) if j == i else 0 for j in range(dim)))
    iso = Isometry(tuple(rows), eta)
    if not verify_similarity(space, iso.matrix, eta):
        raise AssertionError("similarity construction failed verification")
    return iso


def export_generators(space: SymplecticSpace):
    """Generator list in enumeration order, JSON-friendly row-major matrices."""
    spec = space.spec
    out = []
    for g in space.generators():
        if spec.e == 1:
            out.append([list(row) for row in g.sub.basis])
        else:
            out.append([[spec.element_str(c) for c in row] for row in g.sub.basis])
    return out
