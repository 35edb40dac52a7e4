"""The symplectic space (V, B) over F_q and its dual polar graph.

Vectors are rows of field-element codes of length 2n, ordered as the
hyperbolic basis e_1..e_n, f_1..f_n with B(e_i, f_j) = delta_ij.  All work
runs on numpy arrays of codes: the generators packed as one (m, n, 2n)
array of RREF bases, and one batched Gauss-Jordan (``eliminate_batch``)
over stacks of small matrices.  ``SymplecticSpace.signed_distance_matrix``
is the one pass over all generator pairs: its int8 E = sigma * d holds the
distance and the pair sign of ``maslov``, and its docstring derives the sign
formula and why every pair with a member in the big cell can read E from
one table, indexed by the translation class of the other member.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .finite_field import FieldSpec

__all__ = [
    "SymplecticSpace",
    "enumerate_generators",
    "generator_count",
    "eliminate_batch",
    "gram_batch",
    "pair_chunks",
    "distance_profile",
]


def eliminate_batch(t: FieldSpec, M, ncols=None):
    """Gauss-Jordan on every matrix of a stack M (B, r, c) of codes, in place.

    First-nonzero pivoting, as in the scalar ``gauss_jordan`` of
    ``tests/linalg_oracles.py``, and pivots are sought only in the first
    ncols columns (all of them by default); later columns are carried
    along, so eliminating [G | X] leaves E X beside R = E G.
    Returns (rank, pivots, pivot_product): per matrix the rank, the pivot
    columns padded with -1 to r entries, and the product of the pivots,
    which is the determinant up to sign when the input is square and
    nonsingular.
    """
    B, r, c = M.shape
    ncols = c if ncols is None else ncols
    rank = np.zeros(B, dtype=np.intp)
    pivots = np.full((B, r), -1, dtype=np.intp)
    pivot_product = np.ones(B, dtype=np.int16)
    at = np.arange(B)
    row_ids = np.arange(r)
    for col in range(ncols):
        cand = (M[:, :, col] != 0) & (row_ids >= rank[:, None])
        found = cand.any(axis=1)
        if not found.any():
            continue
        # Lanes without a pivot in this column swap row `top` with itself,
        # scale it by 1 and subtract nothing.
        top = np.minimum(rank, r - 1)
        src = np.where(found, cand.argmax(axis=1), top)
        pivot_row = M[at, src]
        if (src != top).any():
            M[at, src] = M[at, top]
        pv = np.where(found, pivot_row[:, col], 1)
        pivot_product = t.mul(pivot_product, pv)
        # The pivot row is zero left of col, so only columns col.. change.
        pivot_row = t.mul(t.inv(pv)[:, None], pivot_row[:, col:])
        factors = np.where(found[:, None], M[:, :, col], 0)
        factors[at, top] = 0
        M[:, :, col:] = t.sub(M[:, :, col:], t.mul(factors[:, :, None], pivot_row[:, None, :]))
        M[at, top, col:] = pivot_row
        pivots[at[found], rank[found]] = col
        rank += found
        if (rank == r).all():
            break
    return rank, pivots, pivot_product


def gram_batch(t: FieldSpec, XJ, Y):
    """G[p, i, j] = B(x_i, y_j) for stacks XJ = X J and Y of shape (P, n, 2n),
    summed one column at a time: the F_q product XJ Y^T of any stacks."""
    G = t.mul(XJ[:, :, None, 0], Y[:, None, :, 0])
    for col in range(1, Y.shape[-1]):
        G = t.add(G, t.mul(XJ[:, :, None, col], Y[:, None, :, col]))
    return G


# Pairs per chunk of the batched pair kernels: their working arrays stay at
# a few MB, and larger chunks measured no faster.
PAIR_CHUNK = 1 << 13
# Entries of E per row block of the big-cell gather in
# ``signed_distance_matrix``: the block's temporaries stay at a few hundred
# KB, and larger blocks measured no faster.
GATHER_BLOCK = 1 << 13


def pair_chunks(m):
    """(a, b) index arrays over all pairs a < b of range(m), in row order.

    Whole rows of the upper triangle are grouped until a chunk holds about
    PAIR_CHUNK pairs (a single row may exceed it).
    """
    start = 0
    while start < m - 1:
        stop, count = start + 1, m - 1 - start
        while stop < m - 1 and count + (m - 1 - stop) <= PAIR_CHUNK:
            count += m - 1 - stop
            stop += 1
        chunk_rows = np.arange(start, stop)
        lengths = m - 1 - chunk_rows
        a = np.repeat(chunk_rows, lengths)
        firsts = np.cumsum(lengths) - lengths          # chunk offset of each row
        b = np.arange(count) - np.repeat(firsts - chunk_rows - 1, lengths)
        yield a, b
        start = stop


def _pair_kernel(t: FieldSpec, X, XJ, Y, Y_pivots):
    """sign * rank (int8) of each pair of the stacks X, Y of RREF bases
    (P, n, 2n), given XJ = X J and the (P, n) pivot columns of Y: the signed
    distance E of ``SymplecticSpace.signed_distance_matrix``, whose
    docstring derives it.
    """
    n = X.shape[1]
    # [G | X_Y] -> [R | L X_Y]
    X_Y = np.take_along_axis(X, Y_pivots[:, None, :], axis=2)
    M = np.concatenate([gram_batch(t, XJ, Y), X_Y], axis=2)
    rank, pc, pivot_product = eliminate_batch(t, M, n)
    sign = t.chi(pivot_product)
    # At rank n, M_Y is a permutation matrix and chi(det M_Y) = 1.
    tail = np.flatnonzero(rank < n)
    if len(tail):
        pc = pc[tail]
        M_Y = np.where((pc >= 0)[:, :, None], np.eye(n, dtype=np.int16)[pc], M[tail, :, n:])
        tail_rank, _, det = eliminate_batch(t, M_Y)
        if (tail_rank < n).any():
            x = tail[np.flatnonzero(tail_rank < n)[0]]
            raise AssertionError(
                f"singular tail coordinates at X = {X[x].tolist()}, Y = {Y[x].tolist()}")
        sign[tail] *= t.chi(det)
    return sign * rank.astype(np.int8)


class SymplecticSpace:
    """Dimension-2n symplectic space over F_q in the hyperbolic basis."""

    def __init__(self, spec: FieldSpec, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.spec = spec
        self.n = n
        self.dim = 2 * n
        self._arrays = None
        self._signed = None

    def generator_arrays(self):
        """(codes, pivots, codes_j) of all generators, in enumeration order.

        codes is the (m, n, 2n) array of RREF bases from
        ``enumerate_generators``, pivots the (m, n) pivot columns, and
        codes_j the bases times J, so that codes_j[x] @ codes[y]^T is the
        Gram matrix B(x_i, y_j).
        """
        if self._arrays is None:
            codes = enumerate_generators(self)
            pivots = (codes != 0).argmax(axis=2)
            self._arrays = (codes, pivots, _times_j(self.spec, codes, self.n))
        return self._arrays

    def signed_distance_matrix(self):
        """E: the symmetric int8 matrix of signed distances sigma * d.

        Computed once; the diagonal is 0.  With X, Y the RREF bases,
        G = X J Y^T (G_ij = B(x_i, y_j)) and X_Y the columns of X at the
        pivot columns of Y, one elimination of [G | X_Y] on G's columns gives
        L G = R in RREF with k = rank(G) = d(X, Y) pivot rows at columns pc,
        since the left kernel of G gives X meet Y.  |E[a, b]| is k; its sign

            chi(product of the pivots of G) * chi(det M_Y),

        where M_Y has rows e_pc (i < k) and (L X_Y)_i (i >= k).  For
        q = 1 mod 4 this is the sign sigma of ``maslov``.  Proof sketch:
        the rows K = L[k:] span the left kernel of G, so K X spans X meet Y;
        take the basis x = L X of X (coordinates L) and, for Y, the heads
        y_i = Y_{pc_i} with the tail K X, whose Y-coordinates are
        (K X)[:, pivots of Y] = K X_Y.  These Y-coordinates are the rows of
        M_Y, and the head Gram block is R[:k, pc] = I.  So
        sigma = chi(det L * det M_Y), and chi(det L) is chi of the product
        of the pivots because the row swaps only change its sign and
        chi(-1) = 1.  At q = 3 mod 4 the sign has no such meaning, but it
        is still +-1 (M_Y is nonsingular for every q), so |E| = d.  At
        k = n every row of M_Y is a unit row e_pc, so only the pairs with
        k < n eliminate M_Y.

        Every pair with a member X = [I | A] in the big cell (A symmetric)
        reads a table.  Take any generator Y with pivots pi, f-pivot indices
        J = {j : n + j in pi}, K = {0..n-1} minus J and k = |K|.  The first k
        rows of Y are its e-pivot rows; on them let M = Y[:k, K] and
        Z = Y[:k, n + K].  M is invertible: the f-pivot rows span Y meet F
        and are the identity at J, so the e-parts of Y, which are orthogonal
        to them, meet span(e_J) only in 0, and the k independent e-parts of
        the first rows keep their rank at the columns K.  One elimination of
        [M | Z] gives T = M^-1 Z.  Let B_K be the symmetric matrix with T's
        upper triangle (diagonal included), B' its n x n embedding with zeros
        on the rows and columns J, and Y* = Y [[I, -B'], [0, I]], which is Y
        with Z replaced by Z - M B_K.  The translation by the symmetric B' is
        an isometry, so Y* is a generator; it has Y's pivots, and
        M^-1 Z* = T - B_K is strictly lower triangular.  The translations by
        symmetric matrices zero on J change T by exactly such B_K, so Y* is
        the one member of Y's class with that property: its canonical
        representative.

        The input [G | X_Y] of (X, Y) equals, entry by entry in codes, that
        of ([I | A - B'], Y*): G = Y_f^T - A Y_e^T with Y_f = Y*_f + Y_e B',
        and X_Y agrees because B' is zero on the f-pivot columns J.  The same
        input gives the same rank, pivots and tail, so one run of the
        elimination over the pairs ([I | C], Y*), for the R distinct Y* and
        the q^(n(n+1)/2) symmetric C of the big cell, gives E of every such
        pair: ([I | A], Y) reads lane r(Y) q^(n(n+1)/2) + the index of
        A - B', whose upper triangle holds its base-q digits.  For
        Y = [I | A_Y] in the big cell, Y* = [I | 0] and B' = A_Y, so X = Y
        reads the lane ([I | 0], [I | 0]) of rank 0.  A pair is read in the
        order (X, Y), whichever index is lower.  At q = 1 mod 4 the sign is
        symmetric, so this changes nothing; at q = 3 mod 4 it can differ
        from the order (lower, higher) of the other pairs, those with both
        members outside the big cell, which run the pair elimination in
        chunks.
        """
        if self._signed is None:
            t, n = self.spec, self.n
            codes, pivots, codes_j = self.generator_arrays()
            m = len(codes)
            reps, rep_pivots, rep_of, shift = _translation_classes(t, codes, pivots, n)
            # The table: lane r Q + c is the pair ([I | C_c], Y*_r).
            C = next(_chart_bases(self))
            C_j, Q = _times_j(t, C, n), len(C)
            table = np.empty(len(reps) * Q, dtype=np.int8)
            for start in range(0, len(table), PAIR_CHUNK):
                lane = np.arange(start, min(start + PAIR_CHUNK, len(table)))
                c, r = lane % Q, lane // Q
                table[lane] = _pair_kernel(t, C[c], C_j[c], reps[r], rep_pivots[r])
            E = np.zeros((m, m), dtype=np.int8)
            big = (pivots == np.arange(n)).all(axis=1)
            cell, rest = np.flatnonzero(big), np.flatnonzero(~big)
            for i, j in pair_chunks(len(rest)):
                a, b = rest[i], rest[j]
                E[a, b] = E[b, a] = _pair_kernel(t, codes[a], codes_j[a], codes[b], pivots[b])
            # The lane of ([I | A], Y) is r(Y) Q plus the index of A - B'_Y:
            # digit_lanes[d][v, Y] = q^(number of later digits) sub(v, B'_Y's
            # digit d) over the upper-triangle digits d, and r(Y) Q in d = 0.
            iu, ju = np.triu_indices(n)
            elements, weights = np.arange(t.q)[:, None], t.q ** np.arange(len(iu))[::-1]
            digit_lanes = [w * t.sub(elements, B) for w, B in zip(weights, shift.T)]
            digit_lanes[0] += rep_of * Q
            A = codes[cell][:, iu, n + ju]
            rows = max(1, GATHER_BLOCK // m)
            for start in range(0, len(cell), rows):
                block, digits = cell[start:start + rows], A[start:start + rows]
                lane = digit_lanes[0][digits[:, 0]]
                for d in range(1, len(iu)):
                    lane += digit_lanes[d][digits[:, d]]
                values = np.take(table, lane)
                E[block] = values
                # A big-cell column is written by its own row block.
                E[rest[:, None], block] = values[:, rest].T
            self._signed = E
        return self._signed

    def distance_matrix(self):
        """Symmetric int8 matrix of dual-polar-graph distances, |E| of
        ``signed_distance_matrix``; a new array on every call."""
        return np.abs(self.signed_distance_matrix())


def _times_j(t: FieldSpec, codes, n):
    """Rows u J = (-u_f, u_e) of a code stack (..., 2n)."""
    return np.concatenate([t.neg(codes[..., n:]), codes[..., :n]], axis=-1)


def _translation_classes(t: FieldSpec, codes, pivots, n):
    """The translation class of every generator Y, as in
    ``SymplecticSpace.signed_distance_matrix``: (reps, rep_pivots, rep_of, shift),
    with reps the (R, n, 2n) distinct representatives Y* in lexicographic
    order and rep_pivots their pivots, rep_of[y] the index of Y*, and
    shift[y] the upper triangle of B', in ``np.triu_indices`` order.
    """
    m = len(codes)
    star = codes.copy()
    iu, ju = np.triu_indices(n)
    shift = np.zeros((m, len(iu)), dtype=codes.dtype)
    f_count = (pivots >= n).sum(axis=1)
    for in_J in product((False, True), repeat=n):
        J, K = np.flatnonzero(in_J), np.flatnonzero(~np.array(in_J))
        k = len(K)
        group = np.flatnonzero((f_count == len(J)) & (pivots[:, k:] == n + J).all(axis=1))
        if not (k and len(group)):
            continue
        Y = codes[group]
        M, Z = Y[:, :k, K], Y[:, :k, n + K]
        MZ = np.concatenate([M, Z], axis=2)
        rank, _, _ = eliminate_batch(t, MZ, k)
        if (rank < k).any():
            y = group[np.flatnonzero(rank < k)[0]]
            raise AssertionError(f"singular e-part at Y = {codes[y].tolist()}")
        T = MZ[:, :, k:]
        B_K = np.where(np.triu(np.ones((k, k), dtype=bool)), T, T.swapaxes(1, 2))
        # B_K is symmetric, so the Gram product M B_K^T is M B_K.
        Y[:, :k, n + K] = t.sub(Z, gram_batch(t, M, B_K))
        star[group] = Y
        B = np.zeros((len(group), n, n), dtype=codes.dtype)
        B[:, K[:, None], K] = B_K
        shift[group] = B[:, iu, ju]
    order, first = _lexsorted_runs(star.reshape(m, -1))
    rep_of = np.empty(m, dtype=np.intp)
    rep_of[order] = np.cumsum(first) - 1
    reps = order[first]
    return star[reps], pivots[reps], rep_of, shift


def _chart_bases(space: SymplecticSpace):
    """Bases of all generators as graphs [I | A], A symmetric, chart by chart.

    For T a subset of {1..n}, b_i = f_i (i in T) else e_i and c_i = -e_i
    (i in T) else f_i form a symplectic basis with B(b_i, c_j) = delta_ij.
    The row space of b_i + sum_j A_ij c_j is isotropic exactly when A is
    symmetric, and every generator is such a graph over one of the 2^n
    coordinate spans of the b_i.  Yields each chart's (q^(n(n+1)/2), n, 2n)
    stack, in the hyperbolic coordinates e_1..e_n, f_1..f_n.  The first
    chart (T empty) is the big cell, the RREF bases [I | A]; in every chart
    the upper triangle of A_i, in ``np.triu_indices`` order, holds the
    base-q digits of i, most significant first.
    """
    t, n = space.spec, space.n
    iu, ju = np.triu_indices(n)
    entries = np.indices((space.spec.q,) * len(iu)).reshape(len(iu), -1).T
    A = np.zeros((len(entries), n, n), dtype=np.int16)
    A[:, iu, ju] = entries
    A[:, ju, iu] = entries
    eye = np.eye(n, dtype=np.int16)
    for T in product((False, True), repeat=n):
        T = np.array(T)
        yield np.concatenate([np.where(T, t.neg(A), eye), np.where(T, eye, A)], axis=2)


def _lexsorted_runs(flat):
    """(order, first): the lexicographic order of the rows of flat and, per
    sorted row, whether it differs from the one before.  Not
    np.unique(axis=0): its first call in a process costs ~4 ms."""
    order = np.lexsort(flat.T[::-1])
    ranked = flat[order]
    first = np.ones(len(flat), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order, first


def generator_count(q, n):
    """prod (q^i + 1), i = 1..n: the generator count of a 2n-space over F_q."""
    return math.prod(q**i + 1 for i in range(1, n + 1))


def enumerate_generators(space: SymplecticSpace):
    """The (m, n, 2n) code array of the RREF bases of all maximal totally
    isotropic subspaces, in lexicographic order.

    Each chart of ``_chart_bases`` is brought to RREF by one batched
    elimination; the flattened bases are then sorted lexicographically and
    the generators seen in several charts kept once.  The count is checked
    against prod (q^i + 1), and isotropy on the result.
    """
    t, n = space.spec, space.n
    predicted = generator_count(t.q, n)
    found = []
    for V in _chart_bases(space):
        eliminate_batch(t, V)
        found.append(V.reshape(len(V), -1))
    flat = np.concatenate(found)
    order, first = _lexsorted_runs(flat)
    codes = flat[order[first]].reshape(-1, n, 2 * n)
    if len(codes) != predicted:
        raise AssertionError(
            f"enumeration found {len(codes)} generators, expected {predicted}"
        )
    if gram_batch(t, _times_j(t, codes, n), codes).any():
        raise AssertionError("non-isotropic subspace in enumeration")
    return codes


def distance_profile(space: SymplecticSpace, x: int) -> dict:
    """Number of generators at each distance from generator x, from the
    ranks of the m Gram matrices of x's row alone."""
    codes, _, codes_j = space.generator_arrays()
    t = space.spec
    rank, _, _ = eliminate_batch(t, gram_batch(t, codes_j[x][None], codes))
    return {k: int((rank == k).sum()) for k in range(space.n + 1)}


def export_generators(space: SymplecticSpace):
    """Generator list in enumeration order, JSON-friendly row-major matrices."""
    spec = space.spec
    codes = space.generator_arrays()[0].tolist()
    if spec.e == 1:
        return codes
    return [[[spec.element_str(c) for c in row] for row in basis] for basis in codes]


def enumerate_bytes(m, n):
    """Predicted peak bytes of ``enumerate`` on m generators of a 2n-space.
    Its 2^n charts of under m bases each took at most 9 bytes per entry with
    the sorted copy and elimination temporaries (12 counted), the export of
    the m 2n^2 entries and their JSON 135-250 (256 counted; tracemalloc,
    Python 3.11, n = 2, 3); 1 MiB holds the Python objects."""
    return 2 * n * n * m * (12 * 2**n + 256) + 2**20
