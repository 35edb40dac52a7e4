"""Exact scalars and linear algebra over Q(r), r^2 = q.

Provides arbitrary-precision rationals (``fractions.Fraction``), the quadratic
extension Q(r) as :class:`QuadExt`, univariate polynomials over Q(r), Gaussian
coefficients evaluated at an arbitrary nonzero rational q, the generating
polynomials ``prod (1 + q^i t)``, exact matrix routines (multiply, inverse,
kernel, characteristic polynomial), and the scheme parameters read off a pair
of eigenmatrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "QuadExt",
    "GaussianContext",
    "Polynomial",
    "gauss",
    "e_poly",
    "rpow",
    "mat_mul",
    "mat_identity",
    "mat_inverse",
    "mat_kernel",
    "mat_charpoly",
    "pq_tensor",
    "is_tridiagonal",
]


_ZERO, _ONE = Fraction(0), Fraction(1)


def _isqrt_if_square(n: int):
    """Return the integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    s = math.isqrt(n)
    return s if s * s == n else None


class QuadExt:
    """An element a + b*r of Q(r) with r = sqrt(q), q a positive integer.

    Values are canonicalized on construction: if q is a perfect square the
    integer sqrt(q) is folded into the rational part, so equality is
    component-wise.  Instances are immutable and hashable.
    """

    __slots__ = ("a", "b", "q")

    def __init__(self, a, b=0, q=None):
        if q is None:
            raise ValueError("QuadExt requires the base q")
        if q <= 0:
            raise ValueError("base q must be a positive integer")
        a = Fraction(a)
        b = Fraction(b)
        s = _isqrt_if_square(q)
        if s is not None and b != 0:
            a += b * s
            b = Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", int(q))

    @classmethod
    def _canonical(cls, a, b, q):
        """Wrap canonical parts, as sums, products and inverses of canonical
        values are: Fractions a and b, an int q, b == 0 if q is a square."""
        x = object.__new__(cls)
        object.__setattr__(x, "a", a)
        object.__setattr__(x, "b", b)
        object.__setattr__(x, "q", q)
        return x

    def __setattr__(self, *args):
        raise AttributeError("QuadExt is immutable")

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.q != self.q:
                raise ValueError(f"mixed bases {self.q} and {other.q}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt._canonical(Fraction(other), _ZERO, self.q)
        return NotImplemented

    @staticmethod
    def root(q):
        """The element r = sqrt(q)."""
        return QuadExt(0, 1, q)

    def is_rational(self):
        return self.b == 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadExt._canonical(self.a + o.a, self.b + o.b, self.q)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._canonical(-self.a, -self.b, self.q)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadExt._canonical(self.a - o.a, self.b - o.b, self.q)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.b:
            return QuadExt._canonical(self.a * o.a, self.b * o.a, self.q)
        if not self.b:
            return QuadExt._canonical(self.a * o.a, self.a * o.b, self.q)
        return QuadExt._canonical(
            self.a * o.a + self.b * o.b * self.q,
            self.a * o.b + self.b * o.a,
            self.q,
        )

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(r)")
        # Conjugate trick; the norm a^2 - q b^2 is nonzero for nonzero
        # elements (q square implies b == 0 after canonicalization).
        norm = self.a * self.a - self.b * self.b * self.q
        return QuadExt._canonical(self.a / norm, -self.b / norm, self.q)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __pow__(self, m):
        if not isinstance(m, int):
            return NotImplemented
        if m < 0:
            return self.inverse() ** (-m)
        result = QuadExt._canonical(_ONE, _ZERO, self.q)
        base = self
        while m:
            if m & 1:
                result = result * base
            base = base * base
            m >>= 1
        return result

    def conjugate(self):
        """Galois image under r -> -r (identity when q is a square)."""
        return QuadExt._canonical(self.a, -self.b, self.q)

    # -- comparisons -------------------------------------------------------

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            return self.q == other.q and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.q))

    def sign(self):
        """Sign of the real number a + b*sqrt(q), computed exactly."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Opposite signs: compare a^2 with q b^2 on the dominant side.
        if a > 0:  # b < 0
            return 1 if a * a > b * b * self.q else -1
        return -1 if a * a > b * b * self.q else 1

    def __lt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        return (self - o).sign() >= 0

    # -- io ----------------------------------------------------------------

    def __repr__(self):
        if self.b == 0:
            return f"QuadExt({self.a}, q={self.q})"
        return f"QuadExt({self.a} + {self.b}*sqrt({self.q}))"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a}+{self.b}r"

    def to_json(self):
        """JSON form {"a": "num/den", "b": "num/den", "q": int}."""
        return {
            "a": f"{self.a.numerator}/{self.a.denominator}",
            "b": f"{self.b.numerator}/{self.b.denominator}",
            "q": self.q,
        }

    @staticmethod
    def from_json(obj):
        return QuadExt(Fraction(obj["a"]), Fraction(obj["b"]), obj["q"])


def rpow(q, m):
    """r^m as a QuadExt, for any integer m (negative allowed)."""
    return QuadExt.root(q) ** m


# ---------------------------------------------------------------------------
# Gaussian coefficients and generating polynomials


@dataclass(frozen=True)
class GaussianContext:
    """Evaluation point for Gaussian coefficients: any rational q not in {0, 1}."""

    q: Fraction

    def __post_init__(self):
        q = Fraction(self.q)
        if q == 0 or q == 1:
            raise ValueError("q must differ from 0 and 1 (q^k - 1 denominators)")
        object.__setattr__(self, "q", q)


def gauss(n: int, k: int, ctx) -> Fraction:
    """Gaussian coefficient [n choose k]_q for all integers n, k.

    Returns 0 for k < 0 and 1 for k = 0; otherwise the product
    prod_{i<k} (q^(n-i) - 1)/(q^(k-i) - 1), which extends the subspace-count
    interpretation to all integer n (negative n gives Laurent values in q).
    """
    if isinstance(ctx, GaussianContext):
        q = ctx.q
    else:
        q = GaussianContext(Fraction(ctx)).q
    if k < 0:
        return Fraction(0)
    a, b = q.numerator, q.denominator

    def minus_one(m):
        # q^m - 1 = (a^m - b^m) / b^m, with a and b swapped for m < 0
        x, y = (a, b) if m >= 0 else (b, a)
        return x ** abs(m) - y ** abs(m), y ** abs(m)

    # Integer products throughout, and one Fraction at the end.
    top = bottom = 1
    for i in range(k):
        num, num_scale = minus_one(n - i)
        den, den_scale = minus_one(k - i)
        top *= num * den_scale
        bottom *= num_scale * den
    return Fraction(top, bottom)


class Polynomial:
    """Univariate polynomial with QuadExt coefficients, index = degree.

    The zero polynomial has an empty coefficient list; trailing zeros are
    trimmed so equality is structural.
    """

    __slots__ = ("coeffs", "q")

    def __init__(self, coeffs, q):
        coeffs = [c if isinstance(c, QuadExt) else QuadExt(c, 0, q) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.q = q

    @property
    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = QuadExt(0, 0, self.q)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = QuadExt(0, 0, self.q)
        out = [
            (self.coeffs[i] if i < len(self.coeffs) else z)
            + (other.coeffs[i] if i < len(other.coeffs) else z)
            for i in range(n)
        ]
        return Polynomial(out, self.q)

    def __sub__(self, other):
        return self + other * QuadExt(-1, 0, self.q)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            return Polynomial([c * other for c in self.coeffs], self.q)
        z = QuadExt(0, 0, self.q)
        out = [z] * (len(self.coeffs) + len(other.coeffs))
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return Polynomial(out, self.q)

    __rmul__ = __mul__

    def scale_arg(self, c):
        """p(c*t) as a new polynomial."""
        out = []
        power = QuadExt(1, 0, self.q)
        for coeff in self.coeffs:
            out.append(coeff * power)
            power = power * c
        return Polynomial(out, self.q)

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return QuadExt(0, 0, self.q)

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self.coeffs]}, q={self.q})"


def e_poly(m: int, ctx) -> Polynomial:
    """The generating polynomial prod_{i<m} (1 + q^i t), of degree m.

    Its t^l coefficient equals q^C(l,2) * [m choose l]_q.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if isinstance(ctx, GaussianContext):
        q = ctx.q
    else:
        q = GaussianContext(Fraction(ctx)).q
    if q.denominator != 1 or q <= 0:
        # Polynomial coefficients live in QuadExt, whose base must be a
        # positive integer; rational/negative q identity checks go through
        # gauss() directly.
        raise ValueError("e_poly requires a positive integer q")
    qi = int(q)
    poly = Polynomial([QuadExt(1, 0, qi)], qi)
    for i in range(m):
        factor = Polynomial([QuadExt(1, 0, qi), QuadExt(q**i, 0, qi)], qi)
        poly = poly * factor
    return poly


# ---------------------------------------------------------------------------
# Exact matrices over Q(r)
#
# Matrices are lists of lists of QuadExt (or anything with field arithmetic,
# e.g. Fraction).  These routines are deliberately dense and deterministic:
# pivots are chosen as the first row with a nonzero entry.


def mat_identity(m, one, zero):
    return [[one if i == j else zero for j in range(m)] for i in range(m)]


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    if len(A[0]) != inner:
        raise ValueError("dimension mismatch")
    out = []
    for i in range(rows):
        row = []
        Ai = A[i]
        for j in range(cols):
            acc = Ai[0] * B[0][j]
            for k in range(1, inner):
                acc = acc + Ai[k] * B[k][j]
            row.append(acc)
        out.append(row)
    return out


def _zero_one_like(x):
    if isinstance(x, QuadExt):
        return QuadExt(0, 0, x.q), QuadExt(1, 0, x.q)
    return Fraction(0), Fraction(1)


def _gauss_jordan(rows, ncols, zero, one):
    """Reduce rows in place to RREF, pivoting on the first ncols columns only.

    Row operations act on whole rows, so columns past ncols ride along (an
    augmented block).  Returns the pivot columns.
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = one / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != zero:
                f = rows[r][col]
                rows[r] = [x - f * p for x, p in zip(rows[r], rows[rank])]
        pivots.append(col)
    return pivots


def mat_inverse(A):
    """Exact inverse by Gauss-Jordan elimination of [A | I]."""
    m = len(A)
    if any(len(row) != m for row in A):
        raise ValueError("inverse requires a square matrix")
    zero, one = _zero_one_like(A[0][0])
    rows = [list(row) + unit for row, unit in zip(A, mat_identity(m, one, zero))]
    if len(_gauss_jordan(rows, m, zero, one)) != m:
        raise ZeroDivisionError("matrix is singular")
    return [row[m:] for row in rows]


def mat_kernel(A):
    """Basis of the right null space {v : A v = 0}, as a list of vectors.

    Deterministic: free columns are processed in increasing order and each
    basis vector has a 1 in its free position.
    """
    rows = [list(r) for r in A]
    if not rows:
        return []
    ncols = len(rows[0])
    zero, one = _zero_one_like(rows[0][0])
    pivots = _gauss_jordan(rows, ncols, zero, one)
    basis = []
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [zero] * ncols
        v[free] = one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][free]
        basis.append(v)
    return basis


def mat_charpoly(A):
    """Coefficients of det(x I - A), low degree first (Faddeev-LeVerrier)."""
    m = len(A)
    zero, one = _zero_one_like(A[0][0])
    coeffs = [zero] * (m + 1)
    coeffs[m] = one
    M = mat_identity(m, one, zero)
    c = one
    for k in range(1, m + 1):
        M = mat_mul(A, M)
        trace = M[0][0]
        for i in range(1, m):
            trace = trace + M[i][i]
        c = -(trace / k) if isinstance(trace, QuadExt) else -trace / k
        coeffs[m - k] = c
        for i in range(m):
            M[i][i] = M[i][i] + c
    return coeffs


# ---------------------------------------------------------------------------
# Scheme parameters from eigenmatrices


def pq_tensor(P, Q, N):
    """(i, j, k) -> (1/N) sum_l P[l][i] P[l][j] Q[k][l], each entry computed
    at most once: the intersection numbers p_ij^k from (P, Q), the Krein
    parameters q_ij^k from (Q, P) (Brouwer, Cohen and Neumaier, §2)."""
    table = {}

    def entry(i, j, k):
        if (i, j, k) not in table:
            acc = P[0][i] * P[0][j] * Q[k][0]
            for ell in range(1, len(P)):
                acc = acc + P[ell][i] * P[ell][j] * Q[k][ell]
            table[i, j, k] = acc / N
        return table[i, j, k]
    return entry


def is_tridiagonal(M):
    """True iff off the diagonal M[k][j] is nonzero exactly where |k - j| = 1."""
    return all(bool(M[k][j]) == (abs(k - j) == 1)
               for k in range(len(M)) for j in range(len(M)) if k != j)
