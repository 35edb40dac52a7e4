"""Exact scalars over Q(r), r^2 = q, and the scheme parameters of
eigenmatrices over it.

Provides arbitrary-precision rationals (``fractions.Fraction``), the quadratic
extension Q(r) as :class:`QuadExt`, Gaussian coefficients evaluated at any
rational q but 0 and +-1, the dual eigenmatrix of a symmetric scheme read
off its eigenmatrix by the relation Q_ij = m_j P_ji / k_i, the scheme
parameters read off a pair of eigenmatrices, and the tridiagonality test of
the Q-polynomial orderings.  A polynomial is a list of its coefficients, low
degree first.  ``pq_tensor`` returns the whole tensor as nested lists,
summed on integer pairs (x, y), meaning x + y r, with one common
denominator per eigenmatrix and one QuadExt per entry.  This module imports
neither numpy nor ``finite_field``.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "QuadExt",
    "gauss",
    "dual_eigenmatrix",
    "pq_tensor",
    "is_tridiagonal",
]


def _isqrt_if_square(n: int):
    """Return the integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    s = math.isqrt(n)
    return s if s * s == n else None


class QuadExt:
    """An element a + b*r of Q(r) with r = sqrt(q), q a positive integer.

    Stored as four ints (x, y, den, q) meaning (x + y*r)/den, kept canonical:
    den > 0, gcd(x, y, den) = 1, and y = 0 when q is a perfect square (the
    integer sqrt(q) is folded into x), so equality is component-wise.  Each
    arithmetic result is reduced by one gcd.  The rational parts are read as
    the Fraction views ``a`` = x/den and ``b`` = y/den.  Instances are
    immutable and hashable.
    """

    __slots__ = ("x", "y", "den", "q")

    def __init__(self, a, b=0, q=None):
        if q is None:
            raise ValueError("QuadExt requires the base q")
        if q <= 0:
            raise ValueError("base q must be a positive integer")
        q = int(q)
        if type(a) is int and type(b) is int:
            x, y, den = a, b, 1
        else:
            # Over the lcm of the two denominators gcd(x, y, den) is 1.
            a, b = Fraction(a), Fraction(b)
            den = math.lcm(a.denominator, b.denominator)
            x = a.numerator * (den // a.denominator)
            y = b.numerator * (den // b.denominator)
        s = _isqrt_if_square(q)
        if s is not None and y:
            x, y = x + y * s, 0
            g = math.gcd(den, x)
            x, den = x // g, den // g
        _set_x(self, x)
        _set_y(self, y)
        _set_den(self, den)
        _set_q(self, q)

    def __setattr__(self, *args):
        raise AttributeError("QuadExt is immutable")

    @property
    def a(self):
        """The rational part, x/den."""
        return Fraction(self.x, self.den)

    @property
    def b(self):
        """The coefficient of r, y/den."""
        return Fraction(self.y, self.den)

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other):
        """The parts (x, y, den) of other as an element of this field, or
        None when other is not an int, a Fraction or a QuadExt."""
        if type(other) is not QuadExt:
            if isinstance(other, int):
                return other, 0, 1
            if isinstance(other, Fraction):
                return other.numerator, 0, other.denominator
            if not isinstance(other, QuadExt):
                return None
        if other.q != self.q:
            raise ValueError(f"mixed bases {self.q} and {other.q}")
        return other.x, other.y, other.den

    @staticmethod
    def root(q):
        """The element r = sqrt(q)."""
        return QuadExt(0, 1, q)

    def is_rational(self):
        return self.y == 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        u, v, e = o
        d = self.den
        if d == e:
            return _reduced(self.x + u, self.y + v, d, self.q)
        return _reduced(self.x * e + u * d, self.y * e + v * d, d * e, self.q)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.x, -self.y, self.den, self.q)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        u, v, e = o
        d = self.den
        if d == e:
            return _reduced(self.x - u, self.y - v, d, self.q)
        return _reduced(self.x * e - u * d, self.y * e - v * d, d * e, self.q)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        u, v, e = o
        x, y = self.x, self.y
        if not v:
            return _reduced(x * u, y * u, self.den * e, self.q)
        if not y:
            return _reduced(x * u, x * v, self.den * e, self.q)
        return _reduced(x * u + y * v * self.q, x * v + y * u,
                        self.den * e, self.q)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(r)")
        # Conjugate trick; the norm x^2 - q y^2 is nonzero for nonzero
        # elements (q square implies y == 0 by canonical form).
        x, y, d = self.x, self.y, self.den
        norm = x * x - y * y * self.q
        if norm < 0:
            norm, d = -norm, -d
        return _reduced(d * x, -d * y, norm, self.q)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * _make(*o, self.q).inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, m):
        if not isinstance(m, int):
            return NotImplemented
        if m < 0:
            return self.inverse() ** (-m)
        # Integer powers of x + y r, and one reduction over den^m.
        q = self.q
        rx, ry, bx, by = 1, 0, self.x, self.y
        k = m
        while k:
            if k & 1:
                rx, ry = rx * bx + ry * by * q, rx * by + ry * bx
            k >>= 1
            if k:
                bx, by = bx * bx + by * by * q, 2 * bx * by
        return _reduced(rx, ry, self.den ** m, q)

    def conjugate(self):
        """Galois image under r -> -r (identity when q is a square)."""
        return _make(self.x, -self.y, self.den, self.q)

    # -- comparisons -------------------------------------------------------

    def __bool__(self):
        return self.x != 0 or self.y != 0

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return (self.q == other.q and self.x == other.x
                    and self.y == other.y and self.den == other.den)
        if isinstance(other, int):
            return self.y == 0 and self.den == 1 and self.x == other
        if isinstance(other, Fraction):
            return (self.y == 0 and self.x == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __hash__(self):
        if self.y == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.q))

    def sign(self):
        """Sign of the real number a + b*sqrt(q), computed exactly."""
        x, y = self.x, self.y      # den > 0, so x + y r has the same sign
        if y == 0:
            return (x > 0) - (x < 0)
        if x == 0:
            return (y > 0) - (y < 0)
        if x > 0 and y > 0:
            return 1
        if x < 0 and y < 0:
            return -1
        # Opposite signs: compare x^2 with q y^2 on the dominant side.
        if x > 0:  # y < 0
            return 1 if x * x > y * y * self.q else -1
        return -1 if x * x > y * y * self.q else 1

    # Comparisons go through __sub__, so an operand it cannot coerce gives
    # NotImplemented and Python raises the usual TypeError.

    def __lt__(self, other):
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else diff.sign() < 0

    def __le__(self, other):
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else diff.sign() <= 0

    def __gt__(self, other):
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else diff.sign() > 0

    def __ge__(self, other):
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else diff.sign() >= 0

    # -- io ----------------------------------------------------------------

    def __repr__(self):
        if self.y == 0:
            return f"QuadExt({self.a}, q={self.q})"
        return f"QuadExt({self.a} + {self.b}*sqrt({self.q}))"

    def __str__(self):
        if self.y == 0:
            return str(self.a)
        return f"{self.a}+{self.b}r"

    def to_json(self):
        """JSON form {"a": "num/den", "b": "num/den", "q": int}, each part
        in lowest terms, 0 as "0/1"."""
        x, y, den = self.x, self.y, self.den
        g, h = _gcd(x, den), _gcd(y, den)
        return {
            "a": f"{x // g}/{den // g}",
            "b": f"{y // h}/{den // h}",
            "q": self.q,
        }

    @staticmethod
    def from_json(obj):
        return QuadExt(Fraction(obj["a"]), Fraction(obj["b"]), obj["q"])


# Slot setters, which bypass the immutability guard on construction.
_set_x = QuadExt.x.__set__
_set_y = QuadExt.y.__set__
_set_den = QuadExt.den.__set__
_set_q = QuadExt.q.__set__
_new = object.__new__
_gcd = math.gcd


def _make(x, y, den, q):
    """Wrap (x + y r)/den, which the caller guarantees canonical."""
    z = _new(QuadExt)
    _set_x(z, x)
    _set_y(z, y)
    _set_den(z, den)
    _set_q(z, q)
    return z


def _reduced(x, y, den, q):
    """Canonical (x + y r)/den from ints with den > 0 and y == 0 when q is
    a square: divides out gcd(den, x, y), skipped when den == 1."""
    if den != 1:
        g = _gcd(den, x, y)
        if g != 1:
            x //= g
            y //= g
            den //= g
    return _make(x, y, den, q)


# ---------------------------------------------------------------------------
# Gaussian coefficients


def gauss(n: int, k: int, q) -> Fraction:
    """Gaussian coefficient [n choose k]_q for all integers n, k, at q an int
    or a Fraction other than 0 and +-1 (q^m - 1 = 0 for some m >= 1 at 1
    and -1).

    Returns 0 for k < 0 and 1 for k = 0; otherwise the product
    prod_{i<k} (q^(n-i) - 1)/(q^(k-i) - 1), which extends the subspace-count
    interpretation to all integer n (negative n gives Laurent values in q).
    """
    a, b = q.as_integer_ratio()
    if b == 1 and a in (0, 1, -1):
        raise ValueError("q must differ from 0, 1 and -1 (q^k - 1 denominators)")
    if k < 0:
        return Fraction(0)

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


# ---------------------------------------------------------------------------
# Scheme parameters from eigenmatrices


def _over_lcm(M):
    """The QuadExt matrix M as (x, y) int pairs over D, the lcm of its
    denominators, so that M[i][j] = (x + y r)/D; returns (pairs, D)."""
    D = math.lcm(*(z.den for row in M for z in row))
    return [[(z.x * (D // z.den), z.y * (D // z.den)) for z in row]
            for row in M], D


def dual_eigenmatrix(P, N):
    """Q = N P^-1 for the QuadExt eigenmatrix P of a symmetric association
    scheme on N points, read off P with no inverse (Brouwer, Cohen and
    Neumaier, §2.2): with the valencies k = P[0], m_j = N / sum_l P_jl^2 / k_l
    and Q_ij = m_j P_ji / k_i, so Q[0] holds the multiplicities.  This is row
    orthogonality of P; for any other P the result need not be N P^-1, and
    sum_j m_j = N, entry (0, 0) of Q P = N I, is a check that can fail.
    """
    d1 = len(P)
    inv_k = [k.inverse() for k in P[0]]
    m = [N / sum(P[j][l] * P[j][l] * inv_k[l] for l in range(d1)) for j in range(d1)]
    return [[m[j] * P[j][i] * inv_k[i] for j in range(d1)] for i in range(d1)]


def pq_tensor(P, Q, N):
    """The tensor T[i][j][k] = (1/N) sum_l P[l][i] P[l][j] Q[k][l] as nested
    lists: the intersection numbers p_ij^k from (P, Q), the Krein
    parameters q_ij^k from (Q, P) (Brouwer, Cohen and Neumaier, §2).

    P and Q are square QuadExt matrices over one base q; N is an int, a
    Fraction or a QuadExt, and N = 0 raises ZeroDivisionError.  The sums
    run on integer pairs (x, y), meaning x + y r: P over d_P, the lcm of
    its denominators, and Q over d_Q.  Each {i, j} plane is built once
    from the d + 1 products P[l][i] P[l][j] and shared, so T[j][i] is
    T[i][j]; an entry sums them against row k of Q, times the conjugate of
    N's numerator, and becomes one QuadExt by one reduction over
    d_P^2 d_Q norm(N).
    """
    q = P[0][0].q
    N = N if isinstance(N, QuadExt) else QuadExt(N, 0, q)
    if N.q != q or any(z.q != q for M in (P, Q) for row in M for z in row):
        raise ValueError("pq_tensor over mixed bases")
    pairs, d_p = _over_lcm(P)
    rows, d_q = _over_lcm(Q)
    nx, ny, nd = N.x, N.y, N.den
    # 1/N = nd (nx - ny r)/norm; a negative norm's sign moves to the top.
    norm = nx * nx - q * ny * ny
    if not norm:
        raise ZeroDivisionError("pq_tensor with N = 0")
    sign = 1 if norm > 0 else -1
    cx, cy = sign * nd * nx, -sign * nd * ny
    den = d_p * d_p * d_q * sign * norm
    d1 = len(P)
    T = [[None] * d1 for _ in range(d1)]
    for i in range(d1):
        for j in range(i, d1):
            pp = [(a * c + q * b * e, a * e + b * c)
                  for (a, b), (c, e) in ((row[i], row[j]) for row in pairs)]
            plane = T[i][j] = T[j][i] = []
            for row in rows:
                x = y = 0
                for (a, b), (u, v) in zip(pp, row):
                    x += a * u + q * b * v
                    y += a * v + b * u
                plane.append(_reduced(x * cx + q * y * cy, x * cy + y * cx,
                                      den, q))
    return T


def is_tridiagonal(M):
    """True iff off the diagonal M[k][j] is nonzero exactly where |k - j| = 1."""
    return all(bool(M[k][j]) == (abs(k - j) == 1)
               for k in range(len(M)) for j in range(len(M)) if k != j)
