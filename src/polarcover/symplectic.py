"""The symplectic space (V, B) over F_q and its dual polar graph.

Vectors are rows of field-element codes of length 2n, ordered as the
hyperbolic basis e_1..e_n, f_1..f_n with B(e_i, f_j) = delta_ij.  All work
runs on numpy arrays of codes: the generators packed as one (m, n, 2n)
array of RREF bases, and one batched Gauss-Jordan (``eliminate_batch``)
over stacks of small matrices.  ``SymplecticSpace.pair_matrices`` is the one
pass over all generator pairs: it gives the distance matrix D and the sign
matrix S of ``maslov`` together, and its docstring derives the sign formula
and why big-cell pairs can read (D, S) from one table.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import ResourceCapExceeded
from .finite_field import FieldSpec

__all__ = [
    "SymplecticSpace",
    "enumerate_generators",
    "eliminate_batch",
    "gram_batch",
    "pair_chunks",
    "distance_profile",
]

DEFAULT_GENERATOR_CAP = 10**6


def eliminate_batch(t: FieldSpec, M, ncols=None):
    """Gauss-Jordan on every matrix of a stack M (B, r, c) of codes, in place.

    First-nonzero pivoting as in ``exact_algebra.gauss_jordan``, and pivots are sought only
    in the first ncols columns (all of them by default); later columns are
    carried along, so eliminating [G | X] leaves E X beside R = E G.
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
    """G[p, i, j] = B(x_i, y_j) for stacks XJ = X J and Y of shape (P, n, 2n)."""
    terms = t.mul(XJ[:, :, None, :], Y[:, None, :, :])
    G = terms[..., 0]
    for col in range(1, terms.shape[-1]):
        G = t.add(G, terms[..., col])
    return G


# Pairs per chunk of the batched pair kernels: their working arrays stay at
# a few MB, and larger chunks measured no faster.
PAIR_CHUNK = 1 << 13


def pair_chunks(m, rows=None):
    """(a, b) index arrays over all pairs a < b of range(m) with a in
    range(rows) (every row by default), in row order.

    Whole rows of the upper triangle are grouped until a chunk holds about
    PAIR_CHUNK pairs (a single row may exceed it).
    """
    rows = m - 1 if rows is None else min(rows, m - 1)
    start = 0
    while start < rows:
        stop, count = start + 1, m - 1 - start
        while stop < rows and count + (m - 1 - stop) <= PAIR_CHUNK:
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
    """(rank, sign) of each pair of the stacks X, Y of RREF bases (P, n, 2n),
    given XJ = X J and the (P, n) pivot columns of Y: the distance D and the
    sign S of ``SymplecticSpace.pair_matrices``, whose docstring derives them.
    """
    n = X.shape[1]
    # [G | X_Y] -> [R | E X_Y]
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
    return rank, sign


class SymplecticSpace:
    """Dimension-2n symplectic space over F_q in the hyperbolic basis."""

    def __init__(self, spec: FieldSpec, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.spec = spec
        self.n = n
        self.dim = 2 * n
        self._arrays = None
        self._pairs = None

    def predicted_generator_count(self):
        q = self.spec.q
        count = 1
        for i in range(1, self.n + 1):
            count *= q**i + 1
        return count

    def generator_arrays(self, cap=DEFAULT_GENERATOR_CAP):
        """(codes, pivots, codes_j) of all generators, in enumeration order.

        codes is the (m, n, 2n) array of RREF bases from
        ``enumerate_generators``, pivots the (m, n) pivot columns, and
        codes_j the bases times J, so that codes_j[x] @ codes[y]^T is the
        Gram matrix B(x_i, y_j).
        """
        if self._arrays is None:
            codes = enumerate_generators(self, cap=cap)
            pivots = (codes != 0).argmax(axis=2)
            self._arrays = (codes, pivots, _times_j(self.spec, codes, self.n))
        return self._arrays

    def pair_matrices(self):
        """(D, S): symmetric int8 matrices of distances and pair signs.

        Computed once, in one pass over all pairs a < b in chunks.  With X,
        Y the RREF bases, G = X J Y^T (G_ij = B(x_i, y_j)) and X_Y the
        columns of X at the pivot columns of Y, one elimination of
        [G | X_Y] on G's columns gives E G = R in RREF with
        k = rank(G) = d(X, Y) pivot rows at columns pc, since the left
        kernel of G gives X meet Y.  D[a, b] is that k, and

            S[a, b] = chi(product of the pivots of G) * chi(det M_Y),

        where M_Y has rows e_pc (i < k) and (E X_Y)_i (i >= k).  For
        q = 1 mod 4 this is the sign sigma of ``maslov``.  Proof sketch:
        the rows K = E[k:] span the left kernel of G, so K X spans X meet Y;
        take the basis x = E X of X (coordinates E) and, for Y, the heads
        y_i = Y_{pc_i} with the tail K X, whose Y-coordinates are
        (K X)[:, pivots of Y] = K X_Y.  These Y-coordinates are the rows of
        M_Y, and the head Gram block is R[:k, pc] = I.  So
        sigma = chi(det E * det M_Y), and chi(det E) is chi of the product
        of the pivots because the row swaps only change its sign and
        chi(-1) = 1.  At q = 3 mod 4 S is computed but has no such meaning
        (M_Y is nonsingular for every q).  At k = n every row of M_Y is a
        unit row e_pc, so only the pairs with k < n eliminate M_Y.

        Big-cell pairs read a table.  The big cell is the generators whose
        RREF basis is [I | A], A symmetric.  For X = [I | A], Y = [I | B]
        the Gram matrix is XJ Y^T = [-A | I] [I | B]^T = sub(B, A), entry
        by entry in codes, and X_Y is I, so the elimination input is
        [sub(B, A) | I]: the input of ([I | 0], [I | C]) with C = sub(B, A).
        The same input gives the same rank, pivots and tail, so D and S of
        every big-cell pair are read from one run of the same elimination
        over the q^(n(n+1)/2) symmetric C, indexed by C's upper triangle.
        Only the pairs with a member outside the big cell run the pair
        elimination.
        """
        if self._pairs is None:
            t, n = self.spec, self.n
            codes, pivots, codes_j = self.generator_arrays()
            m = len(codes)
            D = np.zeros((m, m), dtype=np.int8)
            S = np.zeros((m, m), dtype=np.int8)
            big = (pivots == np.arange(n)).all(axis=1)
            cell, rest = np.flatnonzero(big), np.flatnonzero(~big)
            # Pairs with a member outside the big cell: those members first,
            # each pair eliminated as (lower index, higher index).
            order = np.concatenate([rest, cell])
            for x, y in pair_chunks(m, len(rest)):
                a, b = np.minimum(order[x], order[y]), np.maximum(order[x], order[y])
                rank, sign = _pair_kernel(t, codes[a], codes_j[a], codes[b], pivots[b])
                D[a, b] = D[b, a] = rank
                S[a, b] = S[b, a] = sign
            # Big-cell pairs: one table over C of the pairs ([I | 0], [I | C]).
            # It has one lane per big-cell generator, so it needs no chunks.
            C = next(_chart_bases(self))
            X = np.broadcast_to(C[0], C.shape)
            table_D, table_S = _pair_kernel(
                t, X, _times_j(t, X, n), C, np.broadcast_to(np.arange(n), C.shape[:2]))
            # The table index of C = B - A: its upper triangle in base q.
            iu, ju = np.triu_indices(n)
            upper = codes[cell][:, iu, n + ju]
            weights = self.spec.q ** np.arange(len(iu))[::-1]
            for i, j in pair_chunks(len(cell)):
                idx = t.sub(upper[j], upper[i]) @ weights
                a, b = cell[i], cell[j]
                D[a, b] = D[b, a] = table_D[idx]
                S[a, b] = S[b, a] = table_S[idx]
            self._pairs = D, S
        return self._pairs

    def distance_matrix(self):
        """Symmetric int8 matrix of dual-polar-graph distances."""
        return self.pair_matrices()[0]


def _times_j(t: FieldSpec, codes, n):
    """Rows u J = (-u_f, u_e) of a code stack (..., 2n)."""
    return np.concatenate([t.neg(codes[..., n:]), codes[..., :n]], axis=-1)


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


def enumerate_generators(space: SymplecticSpace, cap=DEFAULT_GENERATOR_CAP):
    """The (m, n, 2n) code array of the RREF bases of all maximal totally
    isotropic subspaces, in lexicographic order.

    Each chart of ``_chart_bases`` is brought to RREF by one batched
    elimination; the flattened bases are then sorted lexicographically and
    the generators seen in several charts kept once.  The count is checked
    against prod (q^i + 1), and isotropy on the result.
    """
    predicted = space.predicted_generator_count()
    if predicted > cap:
        raise ResourceCapExceeded(predicted, cap)
    t, n = space.spec, space.n
    found = []
    for V in _chart_bases(space):
        eliminate_batch(t, V)
        found.append(V.reshape(len(V), -1))
    flat = np.concatenate(found)
    # Not np.unique(axis=0): its first call in a process costs ~4 ms.
    flat = flat[np.lexsort(flat.T[::-1])]
    first = np.ones(len(flat), dtype=bool)
    first[1:] = (flat[1:] != flat[:-1]).any(axis=1)
    codes = flat[first].reshape(-1, n, 2 * n)
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
