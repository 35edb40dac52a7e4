"""Exact list-matrix routines over F_q, Q and Q(r), the test oracles.

Gauss-Jordan elimination, kernel, product and the Faddeev-LeVerrier
characteristic polynomial, one copy of each.  They take the field's
arithmetic as an argument, so the same code runs over Q and Q(r) and, with
the scalar F_q of ``field_oracles``, over F_q.  No CLI path runs them:
``spectral_data`` reads the characteristic polynomial and P off the Krylov
inverse of L_1, and the graph path eliminates in numpy
(``symplectic.eliminate_batch``).
"""

import operator
from fractions import Fraction
from types import SimpleNamespace

from polarcover.exact_algebra import QuadExt

# Matrices are lists of rows.  Elimination, kernel and product take the
# field's arithmetic as an object with scalar add, sub, mul, neg and inv: by
# default ``PYTHON_OPS``, Python's operators, for Fraction and QuadExt
# entries, or one on int codes for matrices over F_q.  The ints 0 and 1
# stand for zero and one in each of them (the codes 0 and 1 of F_q), and
# truth is nonzero.  These routines are deliberately dense and
# deterministic: pivots are chosen as the first row with a nonzero entry.

# Fraction(1) / x, since 1 / x is a float for an int entry.
PYTHON_OPS = SimpleNamespace(add=operator.add, sub=operator.sub, mul=operator.mul,
                             neg=operator.neg, inv=lambda x: Fraction(1) / x)


def mat_identity(m, one, zero):
    return [[one if i == j else zero for j in range(m)] for i in range(m)]


def mat_mul(A, B, field=PYTHON_OPS):
    inner = len(B)
    if len(A[0]) != inner:
        raise ValueError("dimension mismatch")
    add, mul = field.add, field.mul
    out = []
    for Ai in A:
        row = []
        for j in range(len(B[0])):
            acc = mul(Ai[0], B[0][j])
            for k in range(1, inner):
                acc = add(acc, mul(Ai[k], B[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _zero_one_like(x, field=PYTHON_OPS):
    """Zero and one of the field of the entry x: the codes 0 and 1 over F_q,
    QuadExt over Q(r) and Fractions otherwise, so int matrices work in Q."""
    if field is not PYTHON_OPS:
        return 0, 1
    if isinstance(x, QuadExt):
        return QuadExt(0, 0, x.q), QuadExt(1, 0, x.q)
    return Fraction(0), Fraction(1)


def gauss_jordan(rows, ncols, field=PYTHON_OPS):
    """Reduce the list rows in place to RREF, pivoting on the first ncols
    columns only.

    Row operations act on whole rows, so columns past ncols ride along (an
    augmented block); rows are replaced, never mutated.  Returns (pivots,
    det): the pivot columns, and the product of the pivots signed by the row
    swaps, which is the determinant when rows is square and nonsingular.
    """
    sub, mul = field.sub, field.mul
    pivots = []
    det = 1
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = field.neg(det)
        det = mul(det, rows[rank][col])
        inv = field.inv(rows[rank][col])
        rows[rank] = [mul(x, inv) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [sub(x, mul(f, p)) for x, p in zip(rows[r], rows[rank])]
        pivots.append(col)
        if rank + 1 == len(rows):
            break
    return pivots, det


def mat_kernel(A, field=PYTHON_OPS):
    """Basis of the right null space {v : A v = 0}, as a list of vectors.

    Deterministic: free columns are processed in increasing order and each
    basis vector has a 1 in its free position.
    """
    rows = list(A)
    if not rows:
        return []
    ncols = len(rows[0])
    zero, one = _zero_one_like(rows[0][0], field)
    pivots, _ = gauss_jordan(rows, ncols, field)
    basis = []
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [zero] * ncols
        v[free] = one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(rows[r][free])
        basis.append(v)
    return basis


def mat_charpoly(A):
    """Coefficients of det(x I - A), low degree first (Faddeev-LeVerrier).

    An int matrix stays in ints: its M_k and c_k = -tr(A M_k)/k are
    integers, so each trace divides by k exactly, and a nonzero remainder
    raises.  Other entries give Fraction or QuadExt coefficients.
    """
    m = len(A)
    integral = all(type(x) is int for row in A for x in row)
    zero, one = (0, 1) if integral else _zero_one_like(A[0][0])
    coeffs = [zero] * (m + 1)
    coeffs[m] = one
    M = mat_identity(m, one, zero)
    c = one
    for k in range(1, m + 1):
        M = mat_mul(A, M)
        trace = M[0][0]
        for i in range(1, m):
            trace = trace + M[i][i]
        if integral:
            c, rest = divmod(-trace, k)
            if rest:
                raise AssertionError(f"trace {trace} of an int matrix is not "
                                     f"divisible by {k}")
        elif isinstance(trace, QuadExt):
            c = -(trace / k)
        else:
            c = -trace / k
        coeffs[m - k] = c
        for i in range(m):
            M[i][i] = M[i][i] + c
    return coeffs
