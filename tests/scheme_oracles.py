"""Reference checks for the scheme engine, written the direct way.

``matmul_tensor`` is the intersection tensor of a relation index from
exact float64 products of all its relation matrices.
``verify_idempotents`` tests ``spectral_data``'s P and Q on the relation
matrices themselves, with exact int64 matrix products.
``verify_drg_parameters`` checks that a dual polar graph is
distance-regular with no diamond, by counting.  ``pq_tensor_per_term`` is
``exact_algebra.pq_tensor`` summed term by term in QuadExt arithmetic.
``inverse`` is the exact inverse by elimination, against which
``dual_eigenmatrix``'s Q = N P^-1 is checked.
"""

from dataclasses import dataclass, field
from math import lcm

import numpy as np

from linalg_oracles import gauss_jordan
from polarcover.errors import SchemeAxiomError
from polarcover.exact_algebra import QuadExt
from polarcover.scheme_core import SchemeInstance, verify_scheme


def int64_product(A, B):
    """Exact int64 matrix product; every partial sum of an entry is at most
    A.shape[1] * max|A| * max|B|, which is checked to stay below 2^63."""
    bound = A.shape[1]
    for X in (A, B):
        bound *= max(int(X.max(initial=0)), -int(X.min(initial=0)))
    if bound >= 2**63:
        raise OverflowError("matrix product may exceed the int64 range")
    return A.astype(np.int64) @ B.astype(np.int64)


def matmul_tensor(R, d):
    """p[i][j][k] of the relation index R with classes 0..d, from float64
    BLAS products of all its 0/1 relation matrices, exact since every entry
    is at most N < 2^53; each product is asserted constant on each class.
    ``verify_scheme`` forms no product and no float, so this path shares
    nothing with it."""
    A = [(R == i).astype(np.float64) for i in range(d + 1)]
    first = [int(np.argmax(R == k)) for k in range(d + 1)]     # a pair of each class
    assert all(R.flat[at] == k for k, at in enumerate(first)), "empty class"
    classes = R.astype(np.intp)
    p = [[[None] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(d + 1):
            M = A[i] @ A[j]
            values = M.flat[first]
            assert (M == values[classes]).all(), (i, j)
            p[i][j] = [int(v) for v in values]
    return p


def pq_tensor_per_term(P, Q, N):
    """(i, j, k) -> (1/N) sum_l P[l][i] P[l][j] Q[k][l], each term a QuadExt
    product and each partial sum a QuadExt addition."""
    def entry(i, j, k):
        acc = P[0][i] * P[0][j] * Q[k][0]
        for ell in range(1, len(P)):
            acc = acc + P[ell][i] * P[ell][j] * Q[k][ell]
        return acc / N
    return entry


def inverse(A):
    """A^-1 of a square QuadExt matrix by Gauss-Jordan elimination of
    [A | I]; a singular A raises ZeroDivisionError."""
    m, q = len(A), A[0][0].q
    rows = [list(row) + [QuadExt(int(i == j), 0, q) for j in range(m)]
            for i, row in enumerate(A)]
    if len(gauss_jordan(rows, m)[0]) != m:
        raise ZeroDivisionError("matrix is singular")
    return [row[m:] for row in rows]


@dataclass
class IdempotentReport:
    ok: bool
    checks: dict = field(default_factory=dict)
    failure: str = ""


def verify_idempotents(sd, A_list) -> IdempotentReport:
    """Exact check of E_jE_j = E_j, E_iE_j = 0, sum E_j = I, A_1E_j = P_j1 E_j.

    E_j = (1/N) sum_i Q_ij A_i.  Internally the idempotents are carried as
    scaled integer matrices S_j = D*N*E_j = Sa + Sb*r with D clearing all
    Q-entry denominators, so every identity becomes integer matrix algebra.
    """
    N, d, q = sd.N, len(sd.P) - 1, sd.P[0][0].q
    D = 1
    for row in sd.Q:
        for x in row:
            D = lcm(D, x.a.denominator, x.b.denominator)
    S = []
    for j in range(d + 1):
        Sa = np.zeros((N, N), dtype=np.int64)
        Sb = np.zeros((N, N), dtype=np.int64)
        for i in range(d + 1):
            ca = int(sd.Q[i][j].a * D)
            cb = int(sd.Q[i][j].b * D)
            if ca:
                Sa += ca * A_list[i]
            if cb:
                Sb += cb * A_list[i]
        S.append((Sa, Sb))
    DN = D * N

    def product(si, sj):
        a1, b1 = si
        a2, b2 = sj
        pa = int64_product(a1, a2) + q * int64_product(b1, b2)
        pb = int64_product(a1, b2) + int64_product(b1, a2)
        return pa, pb

    checks = {}
    for i in range(d + 1):
        for j in range(i, d + 1):
            pa, pb = product(S[i], S[j])
            if i == j:
                ok = (pa == DN * S[i][0]).all() and (pb == DN * S[i][1]).all()
                checks[f"E{i}E{i}=E{i}"] = ok
            else:
                ok = not pa.any() and not pb.any()
                checks[f"E{i}E{j}=0"] = ok
            if not ok:
                return IdempotentReport(False, checks, f"pair ({i},{j})")
    suma = sum(s[0] for s in S)
    sumb = sum(s[1] for s in S)
    ok = (suma == DN * np.eye(N, dtype=np.int64)).all() and not sumb.any()
    checks["sum E_j = I"] = ok
    if not ok:
        return IdempotentReport(False, checks, "completeness")
    A1 = A_list[1]
    for j in range(d + 1):
        ev = sd.P[j][1]
        den = lcm(ev.a.denominator, ev.b.denominator)
        na, nb = int(ev.a * den), int(ev.b * den)
        Sa, Sb = S[j]
        la = den * int64_product(A1, Sa)
        lb = den * int64_product(A1, Sb)
        ra = na * Sa + q * nb * Sb
        rb = na * Sb + nb * Sa
        ok = (la == ra).all() and (lb == rb).all()
        checks[f"A1E{j} = P[{j}][1] E{j}"] = ok
        if not ok:
            return IdempotentReport(False, checks, f"eigen identity j={j}")
    return IdempotentReport(True, checks)


@dataclass
class DRGReport:
    ok: bool
    parameters: dict = field(default_factory=dict)  # k -> (c_k, a_k, b_k)
    failure: str = ""


def verify_drg_parameters(space) -> DRGReport:
    """Check distance regularity by exhaustive counting, plus no diamonds.

    The distance matrix, as a relation matrix, is verified as a scheme by
    ``verify_scheme``, which checks every pair; then (c_k, a_k, b_k) =
    (p_{1,k-1}^k, p_{1,k}^k, p_{1,k+1}^k), with 0 for an index out of range.
    A diamond is an edge x < y with two non-adjacent common neighbours
    u < v; the first one in the order (x, y, u, v) is reported.
    """
    D = space.distance_matrix()
    n = space.n
    try:
        p = verify_scheme(SchemeInstance.from_matrix(D, n)).p
    except SchemeAxiomError as exc:
        return DRGReport(False, {}, str(exc))
    params = {k: tuple(p[1][j][k] if 0 <= j <= n else 0 for j in (k - 1, k, k + 1))
              for k in range(n + 1)}
    A = (D == 1)
    m = len(A)
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
