"""Generic association-scheme engine.

Takes a relation matrix on ordered pairs of points, verifies the scheme
axioms exhaustively, and computes the intersection tensor, the exact
eigenmatrices P and Q over Q(r), Krein parameters, and the Q-polynomial
orderings.  All results are exact.  numpy floats appear only as carriers
for integer matrix products and as hints for eigenvalues that are then
certified exactly.  Integer matrix products run in float32, after a
check that no partial sum can exceed 2^24.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenvalueOutsideField,
    IdentityNotR0,
    NonConstant,
    NotAPartition,
    NotSymmetric,
    RepeatedEigenvalue,
)
from .exact_algebra import QuadExt, dual_eigenmatrix, is_tridiagonal, pq_tensor

__all__ = [
    "SchemeInstance",
    "IntersectionTensor",
    "SpectralData",
    "verify_scheme",
    "verify_scheme_bytes",
    "intersection_matrix",
    "class_distances",
    "spectral_data",
    "krein",
    "q_poly_orderings",
    "q_bipartite_check",
    "export_scheme",
]

_EXACT_FLOAT32_BOUND = 2**24


def _exact_int_product(A, B):
    """Integer matrix product via float32 BLAS, exact.

    Every partial sum of an entry is bounded by A.shape[1] * max|A| * max|B|;
    while that is at most 2^24, every partial sum is an integer that float32
    holds exactly, so the float32 product returned is exact.  Past it
    OverflowError is raised before multiplying.  ``B is A`` means A A^T,
    which is A A only for a symmetric A: A is converted once and the
    product runs as one BLAS syrk.
    """
    bound = A.shape[1]
    for X in (A, B):
        bound *= max(int(X.max(initial=0)), -int(X.min(initial=0)))
    if bound > _EXACT_FLOAT32_BOUND:
        raise OverflowError("matrix product may exceed float32 exact range")
    X = A.astype(np.float32)
    return X @ (X.T if B is A else B.astype(np.float32))


@dataclass
class SchemeInstance:
    """Point set {0..N-1}, N = sheets * len(matrix), with a relation index
    on ordered pairs.

    With ``sheets == 2`` the points are an antipodal double cover of
    m = N/2 fibers: point 2x + b is fiber x on sheet b, ``matrix`` is the
    m x m relation index of the same-sheet pairs (2x + b, 2y + b), and the
    cross-sheet pair (2x + b, 2y + 1 - b) is in relation d - matrix[x, y].
    """

    d: int
    matrix: np.ndarray          # N x N, or m x m same-sheet, relation indices
    sheets: int = 1

    @property
    def N(self):
        return self.sheets * len(self.matrix)

    @staticmethod
    def from_matrix(R, d):
        return SchemeInstance(d, np.asarray(R))

    @staticmethod
    def from_cover(cover):
        """Same-sheet pairs over (x, y) are in relation d(x, y) where sigma(x, y)
        is +1 and 2n+1 - d(x, y) where it is -1: E, or 2n+1 + E where E < 0,
        of the space's signed distance E = sigma * d (0 on the diagonal).
        That is int8 arithmetic on the mask E < 0: np.where, selecting by a
        data-dependent mask, is several times slower."""
        d = 2 * cover.n + 1
        E = cover.space.signed_distance_matrix()
        R = E + d * (E < 0).view(np.int8)
        return SchemeInstance(d, R, sheets=2)

    def relation_matrix(self):
        """The N x N relation index."""
        if self.sheets == 1:
            return self.matrix
        # Entry (2x + b, 2y + c) is block [b][c] at (x, y); the
        # out-of-range index -1 stays -1 in both blocks.
        R0 = self.matrix
        R1 = np.where(R0 == -1, R0, self.d - R0)
        return np.array([[R0, R1], [R1, R0]]).transpose(2, 0, 3, 1).reshape(self.N, self.N)


@dataclass
class IntersectionTensor:
    d: int
    N: int
    p: list                     # p[i][j][k], nonnegative ints; k_i = p[i][i][0]


def verify_scheme_bytes(N, d):
    """Predicted peak bytes of ``verify_scheme`` on a double cover of N = 2m
    points and d classes: 2 + (d + 1) + 16 bytes per fiber pair, plus
    64 KiB for the Python objects.  The 2 are the int8 sheet 0 and one bool
    comparison of it, and the d + 1 bound the d - 1 int8 U_i and V_i with
    the int8 and bool temporaries that build one of them.  The 16 bound
    the product stage, which holds one m x m product at a time: a GEMM
    holds 12 bytes (the float32 copies of its two operands and the float32
    product), a syrk 8 (one copy and the product), and the constancy
    comparison 6 (the product, its bool mask and the mask's row blocks)."""
    m = N // 2
    return m * m * (2 + (d + 1) + 16) + 2**16


def _first_true(mask):
    """(row, column) of the first True entry of a 2-D mask, or None."""
    at = int(np.argmax(mask))
    return divmod(at, mask.shape[1]) if mask.flat[at] else None


def _powers(L, a, count):
    """The vectors L^r e_a for r < count, L an int matrix as a list of rows."""
    v = [int(k == a) for k in range(len(L))]
    out = [v]
    for _ in range(count - 1):
        v = [sum(map(operator.mul, row, v)) for row in L]
        out.append(v)
    return out


def _krylov_inverse(L1):
    """(delta, X) with delta = +-det K and X = delta K^-1, both in ints,
    where K has the columns L_1^r e_0, r = 0..d; RepeatedEigenvalue when
    K is singular.

    One fraction-free Gauss-Jordan elimination on the integer rows [K | I]:
    each step divides exactly by the previous pivot, and the last step
    leaves [delta I | delta K^-1] with delta the last pivot.
    """
    d = len(L1) - 1
    rows = [list(row) + [int(r == c) for c in range(d + 1)]
            for r, row in enumerate(zip(*_powers(L1, 0, d + 1)))]
    prev = 1
    for c in range(d + 1):
        pivot = next((r for r in range(c, d + 1) if rows[r][c]), None)
        if pivot is None:
            raise RepeatedEigenvalue(f"L_1 has fewer than {d + 1} distinct eigenvalues")
        rows[c], rows[pivot] = rows[pivot], rows[c]
        head = rows[c]
        for r in range(d + 1):
            if r != c:
                f = rows[r][c]
                rows[r] = [(head[c] * x - f * y) // prev for x, y in zip(rows[r], head)]
        prev = head[c]
    return prev, [row[d + 1:] for row in rows]


def verify_scheme(instance: SchemeInstance) -> IntersectionTensor:
    """Exhaustive axiom check; every ordered pair contributes.

    Verifies the partition, identity, symmetry and constancy axioms, then
    returns the intersection tensor (with the standard identities checked).
    Constancy is checked on every pair for the products A_1 A_j, and A_1
    must generate the Bose-Mesner algebra: every other product follows from
    these exactly (see below).  RepeatedEigenvalue is raised when A_1 does
    not generate, right after the products.

    A double cover is checked on its fibers.  With B_i the same-sheet part
    of relation i, A_i = B_i (x) I_2 + B_{d-i} (x) [[0, 1], [1, 0]], so for
    U_i = B_i + B_{d-i} and V_i = B_i - B_{d-i} the same- and cross-sheet
    blocks of A_i A_j are (U_i U_j +- V_i V_j)/2, and each pair of points is
    one entry of one block.  A fiber pair (x, y) of sheet-0 class k has
    cross-sheet class d - k, so both blocks are constant on their classes
    exactly when U_a U_b and V_a V_b are constant on the classes of sheet 0
    and, for each k, the same-sheet value of class k equals the
    cross-sheet value read off class d - k.  Only the pairs (1, b),
    1 <= b <= top = d//2, need checking: A_1 A_0 = A_1 once the identity
    axiom holds, and A_{d-b} is A_b with its sheets swapped, which maps
    class k to d - k.  A relation matrix is the one-sheet case, A_i = U_i
    without V and top = d.

    U_top is not multiplied.  Once the partition and identity axioms hold,
    U_0 + ... + U_top = J (U_i is the 0/1 matrix of sheet-0 classes i and
    d - i, or of class i on one sheet, and these cover 0..d once each) with
    U_0 = I.  So U_1 U_top = U_1 J - U_1 - sum_{0<i<top} U_1 U_i entry by
    entry.  U_1 J = r J with r the row sum of U_1: the diagonal, class 0,
    of U_1 U_1 once that product is constant, or m - 1 when top = 1 and
    U_1 = J - I.  U_1 is 1 exactly on its own classes, so the values of
    U_1 U_top are known on every class, exactly, from products already
    checked, and it is constant by the identity.  That leaves U_1 U_b for
    b < top and V_1 V_b for b <= top: 2 top - 1 products on a cover and
    d - 1 on one sheet.

    They give row 1 of the tensor, A_1 A_(d-b) being A_1 A_b with its
    sheets swapped, and with it L_1, (L_1)[k][j] = p_1j^k.  Let K have the
    columns L_1^r e_0 and K_a the columns L_1^r e_a, r = 0..d.  A singular
    K raises RepeatedEigenvalue (``_krylov_inverse``): A_1 has fewer than
    d + 1 distinct eigenvalues, so it does not generate (the all-plus sign
    pattern of K_4, read on one sheet, is a scheme whose A_1 has 2
    eigenvalues for 4 classes).  Otherwise p_ab^k = (K_a K^-1 e_b)_k and
    p_ba = p_ab for all 0 <= a <= b <= d.  Proof: the classes are nonempty
    and disjoint, so A_0, ..., A_d are independent and span a space S of
    dimension d + 1 that holds I = A_0.  Each A_1 A_j lies in S, with
    coordinates L_1 e_j, so S is A_1-invariant and A_1^r lies in S with
    coordinates L_1^r e_0, column r of K.  A nonsingular K makes the d + 1
    powers A_1^0, ..., A_1^d independent, so S = C[A_1]: S is closed
    under products, so every A_a A_b is constant on the classes, and it
    is commutative, so A_a A_b = A_b A_a and A_a A_1^r = A_1^r A_a has
    coordinates L_1^r e_a.  With L_a the matrix of multiplication by A_a
    on S, that is L_a K = K_a, so L_a = K_a K^-1 and
    p_ab^k = (L_a e_b)_k = (K_a X e_b)_k / delta, with delta = +-det K and
    X = delta K^-1 in ints (``_krylov_inverse``): one exact division per
    entry, and each entry must be a nonnegative integer.  Rows 0 and 1
    come out as I and L_1 again, K_0 being K and K_1 being L_1 K.

    A failure is reported as a point pair.  If U_a U_b or V_a V_b differs at
    fiber pair (x, y) of class k from its value at the first fiber pair
    (x0, y0) of class k, let DU and DV be the differences of U_a U_b and
    V_a V_b between the two pairs (DV = 0 on one sheet).  The same-sheet
    blocks at the two pairs, both of class k, differ by (DU + DV)/2, and
    the cross-sheet blocks, both of class d - k, by (DU - DV)/2; these are
    not both 0.  So the witness is (x, y) on the same sheet, in class k, if
    DU + DV != 0, and on the cross sheet, in class d - k, otherwise.  A
    failed same/cross comparison of class k is reported at the cross-sheet
    pair over the first fiber pair of class d - k, whose value differs from
    that of every same-sheet pair of class k.
    """
    d, s, R = instance.d, instance.sheets, instance.matrix
    m = len(R)
    top = d // 2 if s == 2 else d       # class i > top folds onto d - i

    def pair(g, x, y):                  # sheet entry (x, y) as a point pair
        return (s * int(x), s * int(y) + g)

    # Sheet 1 is d - sheet 0, read off R: in range and symmetric exactly
    # when sheet 0 is, and it holds class d - k where sheet 0 holds class k.
    if hit := _first_true((R < 0) | (R > d)):
        raise NotAPartition(f"relation index out of range at pair {pair(0, *hit)}")
    at = {}                             # class -> its first fiber pair on sheet 0
    for k in range(d + 1):
        if hit := _first_true(R == k):
            at[k] = hit
    if missing := [k for k in range(d + 1) if k not in at and (s == 1 or d - k not in at)]:
        raise NotAPartition(f"relations {missing} are empty")
    if (diagonal := np.flatnonzero(np.diagonal(R))).size:
        x = int(diagonal[0])
        raise IdentityNotR0(int(R[x, x]), pair(0, x, x))
    off = R == 0
    np.fill_diagonal(off, False)
    if hit := _first_true(off):
        raise IdentityNotR0(0, pair(0, *hit))
    if s == 2 and (hit := _first_true(R == d)):
        raise IdentityNotR0(0, pair(1, *hit))
    if hit := _first_true(R != R.T):
        raise NotSymmetric(int(R[hit]), pair(0, *hit))

    def sheet_parts(i):
        """int8 U_i and, on a cover, V_i, from lo = B_i at R == i and
        hi = B_(d-i) at R == d - i.  The two comparisons' buffers become
        U_i = lo + hi and V_i = lo - hi = U_i - 2 hi in place: a third
        buffer would leave the process's peak RSS ~1 MB higher at q=9, n=2."""
        lo = (R == i).view(np.int8)
        if s == 1:
            return (lo,)
        hi = (R == d - i).view(np.int8)
        lo += hi
        hi *= -2
        hi += lo
        return lo, hi

    # W[h][i - 1]: U_i (h = 0) and V_i (h = 1).
    W = list(zip(*map(sheet_parts, range(1, top + 1))))

    def nonconstant(a, b, x, y):
        """NonConstant at fiber pair (x, y), in the block that differs."""
        k = int(R[x, y])
        x0, y0 = at[k]
        delta = [int(W[h][a - 1][x].astype(np.int64) @ W[h][b - 1][:, y])
                 - int(W[h][a - 1][x0].astype(np.int64) @ W[h][b - 1][:, y0])
                 for h in range(s)]            # DU and, on a cover, DV
        g = int(sum(delta) == 0)
        return NonConstant(a, b, d - k if g else k, pair(g, x, y))

    def values(h, a, b):
        """Values of W_a W_b on the classes of sheet 0, checked constant."""
        P = _exact_int_product(W[h][a - 1], W[h][b - 1])
        v = np.zeros(d + 1, dtype=np.float32)
        for k, x in at.items():
            v[k] = P[x]
        # take gathers through an intp copy of R, so it goes by row blocks.
        mask = np.concatenate([P[i:i + 64] != v.take(R[i:i + 64])
                               for i in range(0, m, 64)])
        if hit := _first_true(mask):
            raise nonconstant(a, b, *hit)
        return [int(x) for x in v]

    def fold(a, b, u, v):
        """p_ab from U_a U_b (u) and V_a V_b (v) on the classes of sheet 0:
        at class k the same-sheet block is (u + v)/2, and the cross-sheet
        block, of class d - k, is (u - v)/2."""
        same = {k: (u[k] + v[k]) // 2 for k in at}
        cross = {d - k: (u[k] - v[k]) // 2 for k in at}
        for k in sorted(same.keys() & cross.keys()):
            if same[k] != cross[k]:
                raise NonConstant(a, b, k, pair(1, *at[d - k]))
        return [same[k] if k in same else cross[k] for k in range(d + 1)]

    row1 = [[int(k == 1) for k in range(d + 1)]]      # p_10: A_0 = I
    u1 = []                         # values of U_1 U_b, b < top
    for b in range(1, top + 1):
        if b < top:
            u1.append(u := values(0, 1, b))
        else:                       # U_1 U_top = U_1 (J - I - U_1 - ... - U_(top-1))
            r = u1[0][0] if u1 else m - 1               # the row sums of U_1
            own = (1, d - 1)[:s]                        # the classes where U_1 is 1
            u = [r - (k in own) - sum(v[k] for v in u1) for k in range(d + 1)]
        row1.append(u if s == 1 else fold(1, b, u, values(1, 1, b)))
    # Two sheets: A_(d-j) is A_j with its sheets swapped, so p_1(d-j)^k = p_1j^(d-k).
    row1 += [row1[d - j][::-1] for j in range(top + 1, d + 1)]
    L1 = [list(row) for row in zip(*row1)]
    delta, X = _krylov_inverse(L1)
    columns = list(zip(*X))
    p = [[None] * (d + 1) for _ in range(d + 1)]
    for a in range(d + 1):
        Ka = list(zip(*_powers(L1, a, d + 1)))
        for b in range(a, d + 1):
            p_ab = []
            for k, row in enumerate(Ka):
                value, rest = divmod(x := sum(map(operator.mul, row, columns[b])), delta)
                if rest or value < 0:
                    raise AssertionError(f"p_ab^k at (a={a}, b={b}, k={k}) is "
                                         f"{x}/{delta}, not a nonnegative integer")
                p_ab.append(value)
            p[a][b], p[b][a] = p_ab, list(p_ab)
    valencies = [p[i][i][0] for i in range(d + 1)]

    for i in range(d + 1):
        for k in range(d + 1):
            if sum(p[i][j][k] for j in range(d + 1)) != valencies[i]:
                raise AssertionError(f"row-sum identity fails at (i={i}, k={k})")
            for j in range(d + 1):
                if valencies[k] * p[i][j][k] != valencies[i] * p[k][j][i]:
                    raise AssertionError(f"counting identity fails at ({i},{j},{k})")

    return IntersectionTensor(d, instance.N, p)


def intersection_matrix(t: IntersectionTensor, i: int):
    """The matrix L_i with (L_i)[k][j] = p_ij^k, as ints."""
    if not 0 <= i <= t.d:
        raise IndexError(f"relation index {i} out of range")
    return [[t.p[i][j][k] for j in range(t.d + 1)] for k in range(t.d + 1)]


def class_distances(t: IntersectionTensor):
    """Graph distance of each class in relation 1's graph, read off the
    verified tensor: a point in class k from a base point has p_1j^k
    neighbours in class j, so a BFS over the d + 1 classes from class 0,
    with j -> k iff p_1j^k > 0, gives every distance.  The diameter is the
    maximum.  Raises when some class is unreachable (relation 1 is
    disconnected)."""
    dist = [0] + [None] * t.d
    frontier, level = [0], 0
    while frontier:
        level += 1
        frontier = [k for k in range(t.d + 1) if dist[k] is None
                    and any(t.p[1][j][k] for j in frontier)]
        for k in frontier:
            dist[k] = level
    if None in dist:
        unreachable = [k for k, x in enumerate(dist) if x is None]
        raise ValueError(f"classes {unreachable} are unreachable from class 0")
    return dist


@dataclass
class SpectralData:
    """The eigenmatrices over Q(sqrt q).  Row 0 of P holds the valencies,
    column 1 the eigenvalues of A_1 (one per row), and row 0 of Q the
    multiplicities."""

    N: int
    P: list                     # (d+1)x(d+1) QuadExt
    Q: list


def _square_split(q):
    """(s, t) with q = s^2 t and t squarefree."""
    s, t, f = 1, q, 2
    while f * f <= t:
        while t % (f * f) == 0:
            t //= f * f
            s *= f
        f += 1
    return s, t


def _exact_eigenvalues(L, charpoly, q):
    """The distinct roots in Q(sqrt q) of charpoly, the characteristic
    polynomial of the integer matrix L (coefficients low degree first), exact.

    They are algebraic integers, so each one in Q(sqrt q) = Q(sqrt t),
    q = s^2 t with t squarefree, has the form (a + b sqrt t)/2 for integers
    a, b; a root and its Galois conjugate sum to a and differ by b sqrt t.
    Float eigenvalues of L only propose (a, b) from every pair of them; a
    candidate is kept when charpoly vanishes at it exactly.  The hints round
    to the right (a, b) while the eigenvalues stay far below 2^52, as they
    do for every L_1 here (|theta| <= k_1 < N).
    """
    def vanishes(x):
        acc = 0
        for c in reversed(charpoly):
            acc = acc * x + c
        return not acc

    s, t = _square_split(q)
    sqrt_t = QuadExt.root(q) / s
    hints = np.linalg.eigvals(np.array(L, dtype=np.float64)).real.tolist()
    candidates = {(round(x + y) + round((x - y) / math.sqrt(t)) * sqrt_t) / 2
                  for x in hints for y in hints}
    return [theta for theta in candidates if vanishes(theta)]


def _eigenmatrix(L1, q):
    """P of the integer matrix L_1 over Q(sqrt q), rows sorted by eigenvalue
    in decreasing order, read off X = delta K^-1 (``_krylov_inverse``) as
    ``spectral_data`` describes; RepeatedEigenvalue when K is singular, and
    EigenvalueOutsideField when fewer than d + 1 roots lie in the field."""
    d = len(L1) - 1
    delta, X = _krylov_inverse(L1)
    power = _powers(L1, 0, d + 2)[-1]           # L_1^(d+1) e_0
    charpoly = [-sum(map(operator.mul, row, power)) // delta for row in X] + [1]
    eigs = sorted(_exact_eigenvalues(L1, charpoly, q), reverse=True)
    if len(eigs) != d + 1:
        raise EigenvalueOutsideField(
            f"{d + 1 - len(eigs)} eigenvalues lie outside Q(sqrt {q})")
    P = []
    for theta in eigs:
        powers = [theta**r for r in range(d + 1)]
        P.append([sum(map(operator.mul, powers, column)) / delta for column in zip(*X)])
    return P


def spectral_data(t: IntersectionTensor, q) -> SpectralData:
    """Exact eigenmatrices from the intersection tensor, over Q(sqrt q).

    L_1 is the matrix of multiplication by A_1 on the Bose-Mesner algebra
    in the basis A_0, ..., A_d, so column r of K = [L_1^r e_0], r = 0..d,
    holds the coordinates of A_1^r.  A_1 is real symmetric, so the
    dimension of C[A_1] is its number of distinct eigenvalues, and K is
    nonsingular exactly when there are d + 1 of them.  A singular K raises
    RepeatedEigenvalue before any root is sought.  Otherwise, with
    X = delta K^-1 and delta = +-det K in ints (``_krylov_inverse``):

    - The characteristic polynomial of L_1 is x^(d+1) - sum_r c_r x^r with
      c = K^-1 L_1^(d+1) e_0 = X L_1^(d+1) e_0 / delta.  By Cayley-Hamilton
      L_1^(d+1) e_0 is that combination of the columns of K, which is
      unique, so the c_r are the negated lower coefficients, integers, and
      the division is exact.  Its roots in the field are the eigenvalues
      (``_exact_eigenvalues``); fewer than d + 1 of them raise
      EigenvalueOutsideField.
    - P = V K^-1 with V[theta][r] = theta^r, one row per eigenvalue theta,
      sorted in decreasing order (the valency row comes first).  The row
      A_j -> P_(theta,j) is the character of the algebra at the primitive
      idempotent of theta, a homomorphism, so it takes A_1^r, with
      coordinates K e_r, to theta^r: P_theta K = V_theta.  Each row starts
      with 1, since K e_0 = e_0.

    Once row 0 of P is the verified valencies, Q = N P^-1 is read off P by
    the symmetric-scheme relation Q_ij = m_j P_ji / k_i
    (``dual_eigenmatrix``), and the multiplicities are Q[0].  Their sum N,
    column orthogonality of P at column 0, is checked: the relation does
    not give it.  Three checks would be vacuous: column 0 of P is 1 by
    construction; column 0 of Q is m_0 = N / sum_l k_l = 1, the valencies
    of a verified tensor summing to N; and m_j = N / sum_l P_jl^2 / k_l > 0,
    a sum of squares over positive k_l with P_j0 = 1.
    """
    N, d = t.N, t.d
    P = _eigenmatrix(intersection_matrix(t, 1), q)
    valencies = [t.p[i][i][0] for i in range(d + 1)]
    if P[0] != valencies:
        raise AssertionError(f"P row 0 {P[0]} differs from the valencies {valencies}")
    Q = dual_eigenmatrix(P, N)
    if sum(Q[0]) != N:
        raise AssertionError("multiplicities do not sum to N")
    return SpectralData(N, P, Q)


def krein(sd: SpectralData) -> list:
    """Krein parameters qk[i][j][k] = q_ij^k = (1/N) sum_l Q_li Q_lj P_kl,
    QuadExt, with each row sum sum_j q_ij^k checked to be m_i = Q[0][i]."""
    qk = pq_tensor(sd.Q, sd.P, sd.N)
    for i, plane in enumerate(qk):
        for kk in range(len(qk)):
            if sum((row[kk] for row in plane[1:]), plane[0][kk]) != sd.Q[0][i]:
                raise AssertionError(f"Krein row sum fails at (i={i}, k={kk})")
    return qk


def q_poly_orderings(qk):
    """All idempotent orderings making the dual L*_1 tridiagonal.

    Returns full orderings (0, e_1, .., e_d).  A tridiagonal ordering is a
    forced chain: from e_j the next index is the unique unused k with
    q_{e_1, e_j}^k nonzero, so the search is linear per starting idempotent.
    """
    d = len(qk) - 1
    if d == 1:
        return [(0, 1)]
    out = []
    for c in range(1, d + 1):
        e = [0, c]
        used = {0, c}
        ok = True
        while ok and len(e) <= d:
            cands = [k for k in range(d + 1)
                     if k not in used and qk[c][e[-1]][k]]
            if len(cands) != 1:
                ok = False
            else:
                e.append(cands[0])
                used.add(cands[0])
        if ok and is_tridiagonal([[qk[c][j][k] for j in e] for k in e]):
            out.append(tuple(e))
    return out


def q_bipartite_check(qk, ordering) -> bool:
    """True iff all dual a*_j = q_{1j}^j vanish in the given ordering."""
    c = ordering[1]
    return all(not qk[c][j][j] for j in ordering[1:])


def export_scheme(sd: SpectralData, t: IntersectionTensor, qk,
                  orderings) -> dict:
    """JSON-ready scheme summary with exact Q(r) entries."""
    return {
        "N": sd.N,
        "d": t.d,
        "valencies": [v.to_json() for v in sd.P[0]],
        "multiplicities": [m.to_json() for m in sd.Q[0]],
        "P": [[x.to_json() for x in row] for row in sd.P],
        "Q": [[x.to_json() for x in row] for row in sd.Q],
        "p_tensor": t.p,
        "krein_tensor": [[[x.to_json() for x in row] for row in plane]
                         for plane in qk],
        "q_poly_orderings": [list(o) for o in orderings],
    }
