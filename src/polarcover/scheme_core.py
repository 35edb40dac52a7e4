"""Generic association-scheme engine.

Takes a relation matrix on ordered pairs of points, verifies the scheme
axioms exhaustively, and computes the intersection tensor, the exact
eigenmatrices P and Q over Q(r), Krein parameters, and the Q-polynomial
orderings.  All results are exact.  The scheme check counts in integers,
with no float and no matrix product.  numpy floats appear only as hints
for eigenvalues that are then certified exactly, and as the carrier of
``maslov.verify_two_graph``'s trace(S^3), an integer product run in
float32 after a check that no partial sum can exceed 2^24.
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
    NotInvariant,
    NotSymmetric,
    RepeatedEigenvalue,
)
from .exact_algebra import _reduced, dual_eigenmatrix, is_tridiagonal, pq_tensor

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
    on ordered pairs, and a group given by G elements.

    With ``sheets == 2`` the points are an antipodal double cover of
    m = N/2 fibers: point 2x + b is fiber x on sheet b, ``matrix`` is the
    m x m relation index of the same-sheet pairs (2x + b, 2y + b), and the
    cross-sheet pair (2x + b, 2y + 1 - b) is in relation d - matrix[x, y].

    ``pi`` and ``f`` are (G, m) arrays, m = len(matrix): element g moves x
    to pi[g, x] and, on a cover, switches the sheets of fiber x where
    f[g, x] = -1, so point 2x + b goes to 2 pi[g, x] + (b XOR [f[g, x] = -1]).
    On one sheet f is 1.  None is the trivial group.  ``verify_scheme``
    checks that every element keeps every relation.
    """

    d: int
    matrix: np.ndarray          # N x N, or m x m same-sheet, relation indices
    sheets: int = 1
    pi: np.ndarray = None       # (G, m) permutations of range(m)
    f: np.ndarray = None        # (G, m) switches, +-1

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
        R = E + d (E < 0) is built in place in the buffer of the mask E < 0,
        so E and R are the only m x m arrays (np.where, selecting by a
        data-dependent mask, is several times slower).  The group is the
        cover's ``root_action``."""
        d = 2 * cover.n + 1
        E = cover.space.signed_distance_matrix()
        R = (E < 0).view(np.int8)
        R *= d
        R += E
        return SchemeInstance(d, R, 2, *cover.root_action())

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


# Entries of R per row block of the scans, and of the switching-law check
# summed over the group's elements: a block's temporaries stay at a few MB.
SCAN_BLOCK = 1 << 20


def verify_scheme_bytes(N, d):
    """Predicted peak bytes of ``scheme`` on a double cover of N = 2m points
    and d = 2n + 1 classes, after the F_q tables: 2 bytes per fiber pair,
    d^3 + 128 d per fiber, and 16 MiB.  The 2 are the int8 E of the space
    and the int8 R built in place beside it; nothing else is m x m.  Per
    fiber, the images of the code stack under the 2n = d - 1 root elements
    take (d - 1)^3 bytes and the code stack itself under 3 (d - 1)^2, below
    d^3 together, and the int64 arrays with one entry per fiber and element
    (keys, lookups and pi; the inverse permutations and labels of the orbit
    search; the counts and values of a representative row) fewer than 16
    of them, 128 (d - 1) bytes.  The 16 MiB hold the row blocks of the
    scans, of the law and of the neighbour rows (SCAN_BLOCK entries and a
    few temporaries of up to 8 bytes each), the chunks of the pair pass and
    of the batched elimination, and the Python objects."""
    m = N // 2
    return m * m * 2 + m * (d**3 + 128 * d) + 2**24


def _first_true(mask):
    """The index of the first True entry of a mask, in C order, or None."""
    at = int(np.argmax(mask))
    return np.unravel_index(at, mask.shape) if mask.flat[at] else None


def _first_hit(R, test):
    """(row, column) of the first True entry of test(B, i) over the row
    blocks B = R[i:i + rows] of SCAN_BLOCK entries, or None."""
    rows = max(1, SCAN_BLOCK // len(R))
    for i in range(0, len(R), rows):
        if hit := _first_true(test(R[i:i + rows], i)):
            return i + hit[0], hit[1]
    return None


def _orbit_representatives(pi, m):
    """The least point of each orbit of range(m) under the permutations
    pi (G, m), by a breadth-first search from every point at once.

    Each point's label is a point of its orbit, at most itself: a step
    moves it to the least label among the point, its images and its
    preimages, then to that label's own label.  Labels only fall, and they
    stop only when each label is at most those of its images and
    preimages, that is constant on each orbit: its least point.
    """
    label = np.arange(m)
    if len(pi):
        inverse = np.empty_like(pi)
        inverse[np.arange(len(pi))[:, None], pi] = label
        moves = np.concatenate([label[None], pi, inverse])
        while True:
            reached = label[moves].min(axis=0)
            reached = reached[reached]
            if (reached == label).all():
                break
            label = reached
    return np.flatnonzero(label == np.arange(m))


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
    The partition, identity and symmetry axioms are full scans of the
    matrix, in row blocks.  Constancy is checked on every pair for the
    products A_1 A_b, through the instance's group, and A_1 must generate
    the Bose-Mesner algebra: every other product follows from these exactly
    (see below).  RepeatedEigenvalue is raised when A_1 does not generate,
    right after the rows of A_1 A_b.  No matrix is multiplied: the check
    has no float and no m x m product.

    The group.  Each element g is checked on every fiber pair (x, y): with
    pi = pi[g] and f = f[g], R[pi x, pi y] must be R[x, y] where
    f(x) f(y) = 1 and d - R[x, y] where it is -1; NotInvariant names g and
    the pair.  On a cover the lift 2x + b -> 2 pi(x) + (b XOR [f(x) = -1])
    then keeps every relation: a same-sheet pair of class R[x, y] goes to a
    same-sheet pair of class R[pi x, pi y] = R[x, y] where f(x) = f(y), and
    to a cross-sheet pair, of class d - R[pi x, pi y] = R[x, y], where they
    differ; cross-sheet pairs go alike.  The antipodal map
    2x + b -> 2x + 1 - b keeps every relation by the definition of the
    cover.  On one sheet f = 1, and the law says that pi keeps R.  So the
    group H generated by the lifts and the antipodal map keeps every
    relation, and each A_1 A_b is H-invariant.  R being symmetric, the law
    at (y, x) is the law at (x, y) transposed, so each row block checks the
    pairs from its first row's column on, which meet every pair or its
    transpose.

    The orbits.  ``_orbit_representatives`` gives the least fiber r of each
    orbit of the fibers under the pi[g], the representatives.  With the
    antipodal map, every point is H-equivalent to a point 2r on sheet 0,
    so every pair of points is H-equivalent to a pair in the row of some
    2r, in the same class and with the same entry of A_1 A_b.  Constancy on
    the representative rows, with one value per class over all of them, is
    therefore constancy on every pair.  With no group every fiber is a
    representative.

    The rows.  The neighbours of point 2r in relation 1 are the same-sheet
    points 2z with R[r, z] = 1 and the cross-sheet points 2z + 1 with
    R[r, z] = d - 1.  Gathering the rows R[z] of these k_1 neighbours, the
    entry of A_1 A_b at the same-sheet point 2y counts the first kind with
    R[z, y] = b and the second with R[z, y] = d - b, and the entry at the
    cross-sheet point 2y + 1 the first kind with R[z, y] = d - b and the
    second with R[z, y] = b.  The same-sheet entries over sheet-0 class
    k = R[r, y] lie in class k, and the cross-sheet ones in class d - k;
    each must be constant on its class, and a class met on both sheets must
    have one value.  Only b <= top = d//2 is needed: A_1 A_0 = A_1 once the
    identity axiom holds, and A_{d-b} is A_b with its sheets swapped, which
    maps class k to d - k.  A relation matrix is the one-sheet case: no
    cross-sheet points, and top = d.

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

    A failure is reported as a point pair.  The value of a class is read
    at its first pair in the representative rows, in order; an entry of
    row 2r that differs from it is reported at its own pair, (2r, 2y) on
    the same sheet in class k or (2r, 2y + 1) on the cross sheet in class
    d - k.  A class whose same-sheet and cross-sheet values differ is
    reported at the cross-sheet pair over the first fiber pair of sheet-0
    class d - k, whose value differs from that of every same-sheet pair of
    its class.
    """
    d, s, R = instance.d, instance.sheets, instance.matrix
    m = len(R)
    top = d // 2 if s == 2 else d       # class i > top folds onto d - i
    pi = np.zeros((0, m), dtype=np.intp) if instance.pi is None else np.asarray(instance.pi)
    f = np.ones(pi.shape, dtype=np.int8) if instance.f is None else np.asarray(instance.f)
    if pi.ndim != 2 or pi.shape[1] != m or f.shape != pi.shape:
        raise ValueError(f"pi and f must be (G, {m}) arrays")
    if (np.sort(pi, axis=1) != np.arange(m)).any():
        raise ValueError("each pi[g] must be a permutation of range(m)")
    if (np.abs(f) != 1).any() or (s == 1 and (f != 1).any()):
        raise ValueError("f must be +-1, and 1 on one sheet")

    def pair(g, x, y):                  # sheet entry (x, y) as a point pair
        return (s * int(x), s * int(y) + g)

    # Sheet 1 is d - sheet 0, read off R: in range and symmetric exactly
    # when sheet 0 is, and it holds class d - k where sheet 0 holds class k.
    low, high = int(R.min()), int(R.max())
    if low < 0 or high > d:
        hit = _first_hit(R, lambda B, i: (B < 0) | (B > d))
        raise NotAPartition(f"relation index out of range at pair {pair(0, *hit)}")
    # Class k is met on sheet 0, or on a cover as class d - k of sheet 1.
    rows = max(1, SCAN_BLOCK // m)
    seen = set()
    for i in range(0, m, rows):
        B = R[i:i + rows]
        seen.update(k for k in range(d + 1) if k not in seen and (B == k).any())
        if not (missing := [k for k in range(d + 1)
                            if k not in seen and (s == 1 or d - k not in seen)]):
            break
    if missing:
        raise NotAPartition(f"relations {missing} are empty")
    if (diagonal := np.flatnonzero(np.diagonal(R))).size:
        x = int(diagonal[0])
        raise IdentityNotR0(int(R[x, x]), pair(0, x, x))

    def off_diagonal_zero(B, i):
        zero = B == 0
        zero[np.arange(len(B)), i + np.arange(len(B))] = False
        return zero

    # The diagonal holds m zeros.
    if sum(np.count_nonzero(R[i:i + rows] == 0) for i in range(0, m, rows)) > m:
        raise IdentityNotR0(0, pair(0, *_first_hit(R, off_diagonal_zero)))
    if s == 2 and high == d:
        raise IdentityNotR0(0, pair(1, *_first_hit(R, lambda B, i: B == d)))
    if hit := _first_hit(R, lambda B, i: B != R[:, i:i + len(B)].T):
        raise NotSymmetric(int(R[hit]), pair(0, *hit))

    # The switching law, in row blocks of SCAN_BLOCK entries over all
    # elements: want is B where f(x) = f(y) and d - B where not.
    rows = max(1, SCAN_BLOCK // (max(len(pi), 1) * m))
    for i in range(0, m if len(pi) else 0, rows):
        B = R[i:i + rows, i:]
        flip = d - 2 * B
        for g, (p, sign) in enumerate(zip(pi, f)):
            image = R.take(p[i:i + rows], axis=0).take(p[i:], axis=1)
            want = flip * (sign[i:i + rows, None] != sign[i:])
            want += B
            if hit := _first_true(image != want):
                raise NotInvariant(g, pair(0, i + hit[0], i + hit[1]))

    # The rows of A_1 A_b, b = 1..top, at the representatives: count[g, c - 1, y]
    # counts the neighbours 2z + g of 2x with R[z, y] = c, for the classes
    # c >= 1 that a neighbour's row can need, in blocks of SCAN_BLOCK entries.
    classes = np.arange(1, d if s == 2 else d + 1, dtype=R.dtype)[:, None]
    rows = max(1, SCAN_BLOCK // (max(len(classes), 1) * m))
    # A neighbour on sheet g reaches sheet h in relation b where R = b if
    # g = h, and d - b if not: reach[g][b - 1, h] is that class's index.
    folded = np.arange(1, top + 1)[:, None]
    reach = [np.where(np.arange(s) == g, folded, d - folded) - 1 for g in range(s)]
    at = {}                             # class -> its first fiber pair in a representative row
    values = np.zeros((top, s, d + 1), dtype=np.int64)   # [b - 1][same, cross][class]
    for x in _orbit_representatives(pi, m):
        row = R[x]
        first = np.full(d + 1, m)
        np.minimum.at(first, row, np.arange(m))
        new = [k for k in range(d + 1) if k not in at and first[k] < m]
        at.update((k, (int(x), int(first[k]))) for k in new)
        count = np.zeros((s, len(classes), m), dtype=np.int64)
        for g, z in enumerate([np.flatnonzero(row == 1), np.flatnonzero(row == d - 1)][:s]):
            # A block has under 2^15 rows, k_1 < m and rows < 2^20 / m,
            # so its int16 sums are exact.
            for i in range(0, len(z), rows):
                hits = R[z[i:i + rows], None] == classes
                count[g] += np.add.reduce(hits.view(np.uint8), axis=0, dtype=np.int16)
        got = sum(count[g][reach[g]] for g in range(s))      # [b - 1][same, cross][y]
        values[:, :, new] = got[:, :, first[new]]
        if hit := _first_true(got != values[:, :, row]):
            b, h, y = hit
            k = int(row[y])
            raise NonConstant(1, int(b) + 1, d - k if h else k, pair(h, x, y))

    def fold(b):
        """p_1b^k: the same-sheet value of sheet-0 class k and, on a cover,
        the cross-sheet value over sheet-0 class d - k, one value for a
        class met both ways."""
        p_1b = {k: int(values[b - 1, 0, k]) for k in at}
        if s == 2:
            for k, xy in at.items():
                v = int(values[b - 1, 1, k])
                if p_1b.setdefault(d - k, v) != v:
                    raise NonConstant(1, b, d - k, pair(1, *xy))
        return [p_1b[k] for k in range(d + 1)]

    row1 = [[int(k == 1) for k in range(d + 1)]]      # p_10: A_0 = I
    row1 += [fold(b) for b in range(1, top + 1)]
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

    With r = sqrt q a candidate is theta = (x + y r)/D, x = a s, y = b and
    D = 2s, or x = a + b, y = 0 and D = 2 when t = 1 (r = s is an integer).
    D is the same for every candidate, so distinct int pairs (x, y) are
    distinct roots.  charpoly(theta) D^deg is summed on int pairs by Horner,
    acc -> acc (x + y r) + c_k D^(deg - k), and only the roots found become
    QuadExt.
    """
    s, t = _square_split(q)
    hints = np.linalg.eigvals(np.array(L, dtype=np.float64)).real.tolist()
    root_t = math.sqrt(t)
    pairs = {(round(u + v), round((u - v) / root_t)) for u in hints for v in hints}
    D = 2 if t == 1 else 2 * s
    candidates = {(a + b, 0) if t == 1 else (a * s, b) for a, b in pairs}
    top, *rest = reversed(charpoly)
    roots = []
    for x, y in candidates:
        ax, ay, scale = top, 0, 1
        for c in rest:
            scale *= D
            ax, ay = ax * x + q * ay * y + c * scale, ax * y + ay * x
        if not (ax or ay):
            roots.append(_reduced(x, y, D, q))
    return roots


def _eigenmatrix(L1, q):
    """P of the integer matrix L_1 over Q(sqrt q), rows sorted by eigenvalue
    in decreasing order, read off X = delta K^-1 (``_krylov_inverse``) as
    ``spectral_data`` describes; RepeatedEigenvalue when K is singular, and
    EigenvalueOutsideField when fewer than d + 1 roots lie in the field.

    With r = sqrt q and theta = (x + y r)/e, the entry
    sum_k theta^k X[k][j] / delta is summed on the int pairs
    (x + y r)^k e^(d - k) and becomes one QuadExt over e^d |delta|."""
    d = len(L1) - 1
    delta, X = _krylov_inverse(L1)
    power = _powers(L1, 0, d + 2)[-1]           # L_1^(d+1) e_0
    charpoly = [-sum(map(operator.mul, row, power)) // delta for row in X] + [1]
    eigs = sorted(_exact_eigenvalues(L1, charpoly, q), reverse=True)
    if len(eigs) != d + 1:
        raise EigenvalueOutsideField(
            f"{d + 1 - len(eigs)} eigenvalues lie outside Q(sqrt {q})")
    sign = 1 if delta > 0 else -1
    columns = list(zip(*X))
    P = []
    for theta in eigs:
        x, y, e = theta.x, theta.y, theta.den
        px, py = [sign * e**d], [0]             # (x + y r)^k e^(d - k)
        for _ in range(d):
            u, v = px[-1], py[-1]
            px.append((u * x + q * v * y) // e)
            py.append((u * y + v * x) // e)
        den = e**d * abs(delta)
        P.append([_reduced(sum(map(operator.mul, px, col)),
                           sum(map(operator.mul, py, col)), den, q)
                  for col in columns])
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
