"""Closed-form scheme parameters and their exact verification.

Everything here is a formula in (n, q) over Q(r), r = sqrt(q): the
tridiagonal-with-wing first intersection matrix L_1, the Q-sequence
sigma_j and polynomial family s_l certifying the Q-polynomial property,
and the quotient eigenmatrices whose interleaving yields the full P.
These are checked against brute-force scheme data by crosscheck_P and
against each other by exact residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import QNotOneModFour
from .exact_algebra import QuadExt, _isqrt_if_square, _make, gauss

__all__ = [
    "l1_closed",
    "q_sequence",
    "s_family",
    "verify_thm71",
    "eigenmatrices_closed",
    "crosscheck_P",
    "drg_abc",
]


def _check_domain(n, q):
    if n < 1:
        raise ValueError("n must be >= 1")
    if q % 4 != 1:
        raise QNotOneModFour(q)


def drg_abc(n, q, k):
    """Intersection numbers of the base dual polar graph at distance k."""
    a = Fraction(q**k - 1)
    b = Fraction(q ** (k + 1)) * gauss(n - k, 1, q)
    c = gauss(k, 1, q)
    return a, b, c


def l1_closed(n, q):
    """The (2n+2)-square first intersection matrix, as exact rationals.

    Row k <= n carries c_k at column k-1, a_k/2 at column k, b_k at column
    k+1 and a_k/2 at the mirror column 2n+1-k; rows beyond n mirror rows
    below via (L_1)[k][i] = (L_1)[2n+1-k][2n+1-i].
    """
    _check_domain(n, q)
    m = 2 * n + 2
    L = [[Fraction(0)] * m for _ in range(m)]
    for k in range(n + 1):
        a, b, c = drg_abc(n, q, k)
        if k >= 1:
            L[k][k - 1] += c
        L[k][k] += a / 2
        L[k][k + 1] += b
        L[k][2 * n + 1 - k] += a / 2
    for k in range(n + 1, m):
        for i in range(m):
            L[k][i] = L[2 * n + 1 - k][2 * n + 1 - i]
    return L


def q_sequence(n, q):
    """sigma_j = r^(-j) for j <= n, -r^(-(2n+1-j)) for j > n; all distinct."""
    _check_domain(n, q)
    r = QuadExt.root(q)
    sigma = [r ** (-j) for j in range(n + 1)]
    sigma += [-(r ** (-(2 * n + 1 - j))) for j in range(n + 1, 2 * n + 2)]
    if len(set(sigma)) != len(sigma):
        raise AssertionError("sigma values are not distinct")
    return sigma


def s_family(n, q):
    """Coefficient lists, low degree first, of s_0 .. s_{2n+1}: s_l has
    l + 1 entries, the last its x^l coefficient.

    Odd l:  s_l(x) = r^l [n-l+1 choose 1] x^l + r^(-(l-2)) [l-1 choose 1] x^(l-2)
    Even l: the same with corrections -r^(-l) on the leading and +r^(l-2)
    on the trailing bracket.  For l < 2 the trailing coefficient vanishes
    identically (this is asserted, not assumed).

    The x^l coefficients are the eigenvalues of A_1 in a Q-polynomial
    ordering, so they must be pairwise distinct; when 0 is an eigenvalue
    (even n, at l = n+1) one of them vanishes and the polynomial degree
    drops below l.  Distinctness of the x^l coefficients, not the literal
    degree, is what the triangularization argument needs, and that is what
    gets verified here.
    """
    _check_domain(n, q)
    r = QuadExt.root(q)
    zero = QuadExt(0, 0, q)
    out = []
    for ell in range(2 * n + 2):
        if ell % 2 == 1:
            lead = r**ell * gauss(n - ell + 1, 1, q)
            trail = r ** (-(ell - 2)) * gauss(ell - 1, 1, q)
        else:
            lead = r**ell * (gauss(n - ell + 1, 1, q) - r ** (-ell))
            trail = r ** (-(ell - 2)) * (gauss(ell - 1, 1, q) + r ** (ell - 2))
        coeffs = [zero] * (ell + 1)
        coeffs[ell] = lead
        if ell - 2 >= 0:
            coeffs[ell - 2] = trail
        elif trail != zero:
            raise AssertionError(f"s_{ell} has a nonzero coefficient below x^0")
        out.append(coeffs)
    leads = [p[-1] for p in out]
    if len(set(leads)) != len(leads):
        raise AssertionError("leading coefficients are not pairwise distinct")
    return out


@dataclass
class Thm71Report:
    ok: bool
    identities_checked: int
    failure: tuple = None       # (k, ell, lhs, rhs)


def verify_thm71(L1, sigma, s_polys, q) -> Thm71Report:
    """Check sum_j (L_1)[k][j] sigma_j^l = s_l(sigma_k) for all k, l.

    The sums run on integer pairs (x, y), meaning x + y r, with one common
    denominator per table: the powers sigma_j^l over D_p, the rational
    entries of L_1 over D_l and the coefficients of the s_l over D_s.
    Identity (k, l) is then D_s sum_j L[k][j] P[j][l] = D_l sum_i S[l][i]
    P[k][i], with (a + b r)(c + d r) = (ac + q bd, ad + bc), summed over
    nonzero terms only.  At square q every canonical QuadExt has y = 0, so
    every pair here does too.  QuadExt values are built only for the
    failure report.
    """
    m = len(L1)
    width = max([m] + [len(p) for p in s_polys])
    # sigma_j = (u_j + v_j r)/D over D = lcm den(sigma_j), so sigma_j^l is
    # (u_j + v_j r)^l D^(width-1-l) over D_p = D^(width-1).
    D = math.lcm(*(s.den for s in sigma))
    d_p = D ** (width - 1)
    scale = [D ** (width - 1 - ell) for ell in range(width)]
    pw = []
    for s in sigma:
        u, v = s.x * (D // s.den), s.y * (D // s.den)
        x, y, row = 1, 0, []
        for c in scale:
            row.append((x * c, y * c))
            x, y = x * u + q * y * v, x * v + y * u
        pw.append(row)
    d_l = math.lcm(*(x.denominator for row in L1 for x in row))
    support = [[(j, x.numerator * (d_l // x.denominator))
                for j, x in enumerate(row) if x] for row in L1]
    d_s = math.lcm(*(c.den for p in s_polys for c in p))
    terms = [[(i, c.x * (d_s // c.den), c.y * (d_s // c.den))
              for i, c in enumerate(p) if c] for p in s_polys]
    checked = 0
    for k in range(m):
        pk = pw[k]
        for ell in range(m):
            lx = ly = 0
            for j, a in support[k]:
                x, y = pw[j][ell]
                lx += a * x
                ly += a * y
            rx = ry = 0
            for i, a, b in terms[ell]:
                x, y = pk[i]
                rx += a * x + q * b * y
                ry += a * y + b * x
            checked += 1
            if d_s * lx != d_l * rx or d_s * ly != d_l * ry:
                lden, rden = d_l * d_p, d_s * d_p
                lhs = QuadExt(Fraction(lx, lden), Fraction(ly, lden), q)
                rhs = QuadExt(Fraction(rx, rden), Fraction(ry, rden), q)
                return Thm71Report(False, checked, (k, ell, lhs, rhs))
    return Thm71Report(True, checked)


@dataclass
class ClosedFormEigenmatrices:
    n: int
    q: int
    p_tilde: list               # (n+1)x(n+1) over Q(r)
    p_hat: list
    m_tilde: list               # tridiagonal, rational entries
    m_hat: list
    p_full: list                # (2n+2)x(2n+2)


def _gauss_table(size, q):
    """G[a][b] = [a choose b]_q for 0 <= a, b < size, as ints, by the
    q-Pascal rule [a choose b] = [a-1 choose b-1] + q^b [a-1 choose b]."""
    qb = [q**b for b in range(size)]
    G = [[1] + [0] * (size - 1)]
    for _ in range(1, size):
        prev = G[-1]
        G.append([1] + [prev[b - 1] + qb[b] * prev[b] for b in range(1, size)])
    return G


def _quotient_entry(i, j, with_shift, G, rp):
    """sum_l (-1)^l r^e [i choose l][n-i choose j-l], e as in the formulas,
    as the integer pair (x, y) of x + y r, from G[a][b] = [a choose b]_q
    (a, b <= n) and the pairs rp[e] of r^e."""
    n = len(G) - 1
    x = y = 0
    for ell in range(j + 1):
        g = G[i][ell] * G[n - i][j - ell]
        if not g:
            continue
        e = (j - ell) ** 2 + ell**2
        if with_shift:
            e += j - 2 * ell
        if ell % 2:
            g = -g
        a, b = rp[e]
        x += g * a
        y += g * b
    return x, y


def eigenmatrices_closed(n, q) -> ClosedFormEigenmatrices:
    """Quotient eigenmatrices, their tridiagonal partners, and the full P.

    Verifies the two residual identities P~ M~ = D~ P~ and P^ M^ = D^ P^
    exactly (D the diagonal of column-1 entries) before interleaving rows
    into the (2n+2)-square P: even row 2t mirrors row t of P~ symmetrically
    in j <-> 2n+1-j, odd row 2t+1 mirrors row t of P^ with a sign flip.
    The entries of P~ and P^ lie in Z[r] and are built and checked as
    integer pairs (x, y), meaning x + y r; each becomes a QuadExt at the
    end.
    """
    _check_domain(n, q)
    m = n + 1
    G = _gauss_table(m, q)
    # r^e for e <= n^2 + n; at square q, r = s is folded into x, as the
    # canonical QuadExt form requires.
    s = _isqrt_if_square(q)
    if s is None:
        rp = [(q ** (e // 2), 0) if e % 2 == 0 else (0, q ** (e // 2))
              for e in range(n * n + n + 1)]
    else:
        rp = [(s**e, 0) for e in range(n * n + n + 1)]
    p_tilde = [[_quotient_entry(i, j, True, G, rp) for j in range(m)]
               for i in range(m)]
    p_hat = [[_quotient_entry(i, j, False, G, rp) for j in range(m)]
             for i in range(m)]

    m_tilde = [[Fraction(0)] * m for _ in range(m)]
    for k in range(m):
        a, b, c = drg_abc(n, q, k)
        m_tilde[k][k] = a
        if k + 1 < m:
            m_tilde[k][k + 1] = b
        if k >= 1:
            m_tilde[k][k - 1] = c if k >= 2 else Fraction(1)
    m_hat = [[m_tilde[i][j] if i != j else Fraction(0) for j in range(m)]
             for i in range(m)]

    # Row i of P M over D_m = lcm den(M) against D_m (P[i][1] P[i][j]).
    for P, M, name in ((p_tilde, m_tilde, "symmetric"), (p_hat, m_hat, "skew")):
        d_m = math.lcm(*(x.denominator for row in M for x in row))
        columns = [[(ell, M[ell][j].numerator * (d_m // M[ell][j].denominator))
                    for ell in range(m) if M[ell][j]] for j in range(m)]
        for i in range(m):
            row = P[i]
            a, b = row[1]
            for j in range(m):
                lx = ly = 0
                for ell, c in columns[j]:
                    x, y = row[ell]
                    lx += c * x
                    ly += c * y
                x, y = row[j]
                if lx != d_m * (a * x + q * b * y) or ly != d_m * (a * y + b * x):
                    raise AssertionError(
                        f"{name} quotient residual nonzero at ({i},{j})")

    # Canonical already: den 1, and y = 0 at square q.
    p_tilde = [[_make(x, y, 1, q) for x, y in row] for row in p_tilde]
    p_hat = [[_make(x, y, 1, q) for x, y in row] for row in p_hat]
    p_full = []
    for t in range(m):
        p_full.append([p_tilde[t][j] if j <= n else p_tilde[t][2 * n + 1 - j]
                       for j in range(2 * n + 2)])
        p_full.append([p_hat[t][j] if j <= n else -p_hat[t][2 * n + 1 - j]
                       for j in range(2 * n + 2)])
    return ClosedFormEigenmatrices(n, q, p_tilde, p_hat, m_tilde, m_hat, p_full)


@dataclass
class CrosscheckReport:
    ok: bool
    row_map: list = None        # spectral row index for each closed-form row
    failure: str = ""


def crosscheck_P(n, q, sd, cf: ClosedFormEigenmatrices) -> CrosscheckReport:
    """Exact entry-wise match of the closed-form P with the spectral P.

    The spectral rows are sorted by eigenvalue; the closed-form rows follow
    the Q-polynomial ordering, so rows are matched by their column-1 entry
    (the A_1 eigenvalue) and then compared entry by entry.
    """
    m = 2 * n + 2
    if len(sd.P) != m:
        return CrosscheckReport(False, None, "class count mismatch")
    by_eig = {}
    for idx in range(m):
        by_eig[sd.P[idx][1]] = idx
    if len(by_eig) != m:
        return CrosscheckReport(False, None, "repeated spectral eigenvalue")
    row_map = []
    for i in range(m):
        theta = cf.p_full[i][1]
        if theta not in by_eig:
            return CrosscheckReport(
                False, None, f"closed-form eigenvalue {theta} not in spectrum")
        s = by_eig[theta]
        row_map.append(s)
        for j in range(m):
            if cf.p_full[i][j] != sd.P[s][j]:
                return CrosscheckReport(
                    False, None,
                    f"entry mismatch at closed-form ({i},{j}): "
                    f"{cf.p_full[i][j]} vs {sd.P[s][j]}")
    if sorted(row_map) != list(range(m)):
        return CrosscheckReport(False, None, "row matching is not a bijection")
    return CrosscheckReport(True, row_map)
