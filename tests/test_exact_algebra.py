"""Rationals, Q(r), Gaussian coefficients and the generating polynomials."""

import json
import math
import operator
import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from polarcover.closed_form import eigenmatrices_closed
from polarcover.exact_algebra import (
    QuadExt,
    _isqrt_if_square,
    gauss,
    is_tridiagonal,
    pq_tensor,
)
from polarcover.feasibility import candidate_parameters, parse_r
from polarcover.scheme_core import spectral_data, verify_scheme
from field_oracles import reference
from linalg_oracles import gauss_jordan, mat_charpoly, mat_kernel
from poly_oracles import assert_e_poly_identities, e_poly, poly_mul
from scheme_oracles import pq_tensor_per_term

GRID_Q = [2, 3, 5, 7, 9, 13, Fraction(1, 2), -2]
GRID_NK = range(-6, 11)


def binom2(k):
    return k * (k - 1) // 2


class TestGauss:
    def test_basic_values(self):
        assert gauss(2, 1, 5) == 6
        assert gauss(4, 2, 5) == 806
        assert gauss(3, -1, 7) == 0
        assert gauss(0, 0, 5) == 1
        assert gauss(-3, 0, 5) == 1

    def test_negative_n_product_formula(self):
        # Direct product formula at n = -1, k = 2: 1/q^3.
        assert gauss(-1, 2, 5) == Fraction(1, 125)
        assert gauss(-1, 1, 5) == Fraction(-1, 5)

    def test_counts_subspaces(self):
        # [4 choose 2]_5 = number of 2-subspaces of F_5^4, counted as the
        # 2 x 4 matrices in reduced row echelon form: one per pivot pair
        # c1 < c2 and value of its free entries (row 0 right of c1 except
        # at c2, row 1 right of c2).  Gauss-Jordan must fix each of them.
        from itertools import combinations, product

        from polarcover.finite_field import construct_field

        f = reference(construct_field(5, 1))
        seen = set()
        count = 0
        for c1, c2 in combinations(range(4), 2):
            free = [(0, j) for j in range(c1 + 1, 4) if j != c2]
            free += [(1, j) for j in range(c2 + 1, 4)]
            for values in product(range(5), repeat=len(free)):
                M = [[0] * 4, [0] * 4]
                M[0][c1] = M[1][c2] = 1
                for (i, j), v in zip(free, values):
                    M[i][j] = v
                rows = list(M)
                assert gauss_jordan(rows, 4, f)[0] == [c1, c2] and rows == M
                seen.add(tuple(map(tuple, rows)))
                count += 1
        assert len(seen) == count == 806

    @pytest.mark.parametrize("q", GRID_Q + [Fraction(-3, 7)])
    def test_matches_fraction_product(self, q):
        # The defining product taken factor by factor in Fractions.
        qf = Fraction(q)
        for n in GRID_NK:
            for k in GRID_NK:
                expected = Fraction(int(k >= 0))
                for i in range(max(k, 0)):
                    expected *= (qf ** (n - i) - 1) / (qf ** (k - i) - 1)
                got = gauss(n, k, q)
                assert type(got) is Fraction and got == expected, (n, k)

    def test_rejects_degenerate_q(self):
        # At q = -1, q^m - 1 = 0 for every even m: gauss(4, 2) would divide by
        # 0.  Rejected whatever n and k are.
        for q in (0, 1, -1, Fraction(-1), Fraction(2, 2)):
            for n, k in ((4, 2), (3, -1), (0, 0)):
                with pytest.raises(ValueError):
                    gauss(n, k, q)

    @pytest.mark.parametrize("q", GRID_Q)
    def test_pascal_recurrences(self, q):
        for n in GRID_NK:
            for k in GRID_NK:
                lhs = gauss(n, k, q)
                qf = Fraction(q)
                assert lhs == qf**k * gauss(n - 1, k, q) + gauss(n - 1, k - 1, q)
                assert lhs == gauss(n - 1, k, q) + qf ** (n - k) * gauss(n - 1, k - 1, q)

    @pytest.mark.parametrize("q", GRID_Q)
    def test_negation_identity(self, q):
        # The product-formula extension satisfies
        #   [-n choose k] = (-q^-n)^k q^(-C(k,2)) [n+k-1 choose k],
        # the q-analogue of binom(-n, k) = (-1)^k binom(n+k-1, k).
        for n in range(-6, 11):
            for k in range(0, 8):
                lhs = gauss(-n, k, q)
                rhs = ((-(Fraction(q) ** (-n))) ** k
                       * Fraction(q) ** (-binom2(k))
                       * gauss(n + k - 1, k, q))
                assert lhs == rhs, (n, k, q)

    @pytest.mark.parametrize("q", GRID_Q)
    def test_product_identity(self, q):
        for n in GRID_NK:
            for k in GRID_NK:
                for ell in GRID_NK:
                    assert (gauss(n, k, q) * gauss(k, ell, q)
                            == gauss(n, ell, q) * gauss(n - ell, k - ell, q))

    @pytest.mark.parametrize("q", GRID_Q)
    def test_symmetry(self, q):
        for n in range(0, 11):
            for k in range(0, n + 1):
                assert gauss(n, k, q) == gauss(n, n - k, q)


class TestEPoly:
    def test_small_cases(self):
        assert e_poly(0, 5) == [1]
        assert e_poly(2, 5) == [1, 6, 5]
        assert e_poly(1, 9) == [1, 1]

    @pytest.mark.parametrize("q", [5, 9, 13, 25])
    def test_coefficients_match_gauss(self, q):
        # The q-binomial theorem: the product expanded factor by factor.
        for m in range(9):
            assert poly_mul(*([1, q**i] for i in range(m))) == e_poly(m, q)

    @pytest.mark.parametrize("q", [5, 9, 13, 25])
    def test_functional_identities(self, q):
        for m in range(9):
            assert_e_poly_identities(q, m)


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


class FractionQuadExt:
    """Reference Q(r): a + b*r held as two Fractions, every operation done
    in Fraction arithmetic.  QuadExt must agree with it result by result."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a, b=0, q=None):
        a, b = Fraction(a), Fraction(b)
        s = math.isqrt(q)
        if s * s == q and b != 0:
            a, b = a + b * s, Fraction(0)
        self.a, self.b, self.q = a, b, q

    def _coerce(self, other):
        if isinstance(other, FractionQuadExt):
            assert other.q == self.q
            return other
        if isinstance(other, (int, Fraction)):
            return FractionQuadExt(other, 0, self.q)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return FractionQuadExt(self.a + o.a, self.b + o.b, self.q)

    __radd__ = __add__

    def __neg__(self):
        return FractionQuadExt(-self.a, -self.b, self.q)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return FractionQuadExt(self.a * o.a + self.b * o.b * self.q,
                               self.a * o.b + self.b * o.a, self.q)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(r)")
        norm = self.a * self.a - self.b * self.b * self.q
        return FractionQuadExt(self.a / norm, -self.b / norm, self.q)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, m):
        if m < 0:
            return self.inverse() ** (-m)
        result = FractionQuadExt(1, 0, self.q)
        for _ in range(m):
            result = result * self
        return result

    def conjugate(self):
        return FractionQuadExt(self.a, -self.b, self.q)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        o = self._coerce(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.q))

    def sign(self):
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        bigger_a = a * a > b * b * self.q
        return (1 if a > 0 else -1) * (1 if bigger_a else -1)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a}+{self.b}r"

    def to_json(self):
        return {"a": f"{self.a.numerator}/{self.a.denominator}",
                "b": f"{self.b.numerator}/{self.b.denominator}",
                "q": self.q}


def assert_canonical(x):
    """The integer form (x + y r)/den: den > 0, gcd(x, y, den) = 1, and
    y = 0 when q is a perfect square."""
    assert type(x) is QuadExt
    assert all(type(v) is int for v in (x.x, x.y, x.den, x.q))
    assert x.den > 0 and math.gcd(x.x, x.y, x.den) == 1
    if math.isqrt(x.q) ** 2 == x.q:
        assert x.y == 0


def assert_matches(res, ref):
    """res (a QuadExt) and ref (a FractionQuadExt) are the same number and
    look the same through every public view."""
    assert_canonical(res)
    assert type(res.a) is Fraction and type(res.b) is Fraction
    assert (res.a, res.b, res.q) == (ref.a, ref.b, ref.q)
    assert hash(res) == hash(ref)
    assert str(res) == str(ref)
    assert res.to_json() == ref.to_json()
    assert res.is_rational() == (ref.b == 0)
    assert bool(res) == bool(ref)
    assert res.sign() == ref.sign()


def check_against_reference(x, y, X, Y, k, f, m):
    """Every operation on (x, y) against the same on the references (X, Y),
    with an int k, a Fraction f and an exponent m as the other operands."""
    pairs = [(x + y, X + Y), (x - y, X - Y), (x * y, X * Y), (-x, -X),
             (x + k, X + k), (k + x, k + X), (x - f, X - f), (f - x, f - X),
             (x - k, X - k), (k - x, k - X), (x + f, X + f), (f + x, f + X),
             (x * k, X * k), (k * x, k * X), (x * f, X * f), (f * x, f * X),
             (x.conjugate(), X.conjugate())]
    if y:
        pairs += [(x / y, X / Y), (k / y, k / Y), (f / y, f / Y),
                  (y.inverse(), Y.inverse()), (y ** -m, Y ** -m)]
    if k:
        pairs.append((x / k, X / k))
    if f:
        pairs.append((x / f, X / f))
    pairs.append((x ** m, X ** m))
    for res, ref in pairs:
        assert_matches(res, ref)
    for op in (operator.lt, operator.le, operator.gt, operator.ge,
               operator.eq, operator.ne):
        for other, other_ref in ((y, Y), (x, X), (k, k), (f, f)):
            assert op(x, other) == op(X, other_ref), (op, other)
            assert op(other, x) == op(other_ref, X), (op, other)




class TestQuadExt:
    def test_examples(self):
        r = QuadExt.root(5)
        assert (1 + r) * (1 - r) == -4
        assert r * r == 5
        assert QuadExt.root(9) == QuadExt(3, 0, 9)
        assert QuadExt(2, 3, 5).conjugate() == QuadExt(2, -3, 5)
        assert QuadExt(7, 0, 5).conjugate() == QuadExt(7, 0, 5)

    def test_exact_roots_of_large_squares(self):
        # Integer square roots: a float sqrt misses (10^17 + 3)^2 and
        # overflows on 10^400.
        assert QuadExt.root((10**17 + 3) ** 2) == 10**17 + 3
        assert _isqrt_if_square(10**400) == 10**200
        assert _isqrt_if_square(10**400 + 1) is None

    def test_mixed_bases_rejected(self):
        with pytest.raises(ValueError):
            QuadExt.root(5) + QuadExt.root(13)

    def test_division(self):
        x = QuadExt(2, 3, 5)
        assert x * x.inverse() == QuadExt(1, 0, 5)
        with pytest.raises(ZeroDivisionError):
            QuadExt(0, 0, 5).inverse()

    def test_pow_negative(self):
        r = QuadExt.root(5)
        assert r**-2 == QuadExt(Fraction(1, 5), 0, 5)
        assert r**-1 == QuadExt(0, Fraction(1, 5), 5)

    def test_sign_and_order(self):
        r = QuadExt.root(5)
        assert (2 + r).sign() == 1
        assert (2 - r).sign() == -1    # 2 < sqrt(5)
        assert (3 - r).sign() == 1
        assert QuadExt(0, 0, 5).sign() == 0
        assert sorted([r, -r, QuadExt(2, 0, 5)]) == [-r, QuadExt(2, 0, 5), r]

    @given(a=rationals, b=rationals, c=rationals, d=rationals)
    def test_field_axioms(self, a, b, c, d):
        x = QuadExt(a, b, 5)
        y = QuadExt(c, d, 5)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + y) == x * y + x * y
        if y:
            assert (x / y) * y == x

    @pytest.mark.parametrize("q", [5, 13, 9, 25])
    def test_results_are_canonical(self, q):
        # Arithmetic builds its results without the public constructor; each
        # result must still be what that constructor makes of its parts.
        import random

        rng = random.Random(q)

        def frac():
            return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

        def element():
            # a third of the elements are rational, to reach the fast paths
            return QuadExt(frac(), frac() if rng.random() < 2 / 3 else 0, q)

        def check(res):
            assert type(res) is QuadExt and type(res.q) is int
            assert type(res.a) is Fraction and type(res.b) is Fraction
            ref = QuadExt(res.a, res.b, q)
            assert (ref.a, ref.b, ref.q) == (res.a, res.b, q)
            if q in (9, 25):
                assert res.b == 0
            if res.b == 0:
                assert hash(res) == hash(res.a)

        for _ in range(200):
            x, y = element(), element()
            k, f = rng.randint(-9, 9), frac()
            results = [x + y, x - y, -x, x * y, x.conjugate(),
                       x + k, k + x, x - f, f - x, x * k, f * x,
                       x ** rng.randint(0, 5), x / (k or 1), x * 0]
            if y:
                results += [x / y, k / y, y ** -rng.randint(1, 4),
                            y.inverse()]
            for res in results:
                check(res)

    @pytest.mark.parametrize("q", [5, 13, 9, 25])
    @settings(deadline=None)
    @given(a=rationals, b=rationals, c=rationals, d=rationals,
           k=st.integers(-10**6, 10**6), f=rationals, m=st.integers(0, 6))
    def test_matches_fraction_reference(self, q, a, b, c, d, k, f, m):
        x, y = QuadExt(a, b, q), QuadExt(c, d, q)
        X, Y = FractionQuadExt(a, b, q), FractionQuadExt(c, d, q)
        assert_matches(x, X)
        assert_matches(y, Y)
        assert_matches(QuadExt(k, m, q), FractionQuadExt(k, m, q))
        check_against_reference(x, y, X, Y, k, f, m)
        # Equal values built two ways must compare and hash equal.
        z = x * y - x * y + x
        assert z == x and hash(z) == hash(x) and (z != x) is False

    def test_matches_fraction_reference_large(self):
        # Entries of the closed-form P at n=12, q=101 have numerators and
        # denominators of hundreds of digits.
        P = eigenmatrices_closed(12, 101).p_full
        flat = [v for row in P for v in row]
        for i in range(0, len(flat), 23):
            x, y = flat[i], flat[(7 * i + 5) % len(flat)]
            X = FractionQuadExt(x.a, x.b, 101)
            Y = FractionQuadExt(y.a, y.b, 101)
            assert_matches(x, X)
            check_against_reference(x, y, X, Y, 101 ** 12 + 1,
                                    Fraction(-(101 ** 7), 2 ** 40 + 1), 3)

    @pytest.mark.parametrize("op", [operator.lt, operator.le,
                                    operator.gt, operator.ge])
    @pytest.mark.parametrize("other", [1.5, "1"])
    def test_order_with_unsupported_operand_raises(self, op, other):
        with pytest.raises(TypeError) as info:
            op(QuadExt(1, 0, 5), other)
        assert "NotImplementedType" not in str(info.value)
        with pytest.raises(TypeError) as info:
            op(other, QuadExt(1, 0, 5))
        assert "NotImplementedType" not in str(info.value)

    @given(a=rationals, b=rationals)
    def test_conjugate_involution(self, a, b):
        x = QuadExt(a, b, 13)
        assert x.conjugate().conjugate() == x
        assert (x * x.conjugate()).is_rational()

    def test_json_roundtrip(self):
        x = QuadExt(Fraction(-3, 7), Fraction(22, 5), 13)
        blob = json.dumps(x.to_json())
        assert QuadExt.from_json(json.loads(blob)) == x
        j = x.to_json()
        assert j == {"a": "-3/7", "b": "22/5", "q": 13}
        assert QuadExt(0, 0, 5).to_json() == {"a": "0/1", "b": "0/1", "q": 5}
        assert QuadExt(Fraction(3, 4), 0, 9).to_json() == {"a": "3/4", "b": "0/1", "q": 9}

    @given(a=rationals, b=rationals, q=st.sampled_from([5, 9, 13, 45, 125]))
    def test_json_parts_in_lowest_terms(self, a, b, q):
        # Each part over its own least denominator, as Fraction writes it.
        x = QuadExt(a, b, q)
        want = [f"{z.numerator}/{z.denominator}" for z in (x.a, x.b)]
        assert [x.to_json()[k] for k in "ab"] == want


class TestMatrixOps:
    def test_kernel_of_zero(self):
        zero = QuadExt(0, 0, 5)
        basis = mat_kernel([[zero, zero], [zero, zero]])
        assert len(basis) == 2

    def test_charpoly(self):
        A = [[Fraction(0), Fraction(1)], [Fraction(-2), Fraction(-3)]]
        # det(xI - A) = x^2 + 3x + 2
        assert mat_charpoly(A) == [Fraction(2), Fraction(3), Fraction(1)]

    def test_charpoly_quadext(self):
        r = QuadExt.root(5)
        zero = QuadExt(0, 0, 5)
        A = [[r, zero], [zero, -r]]
        coeffs = mat_charpoly(A)
        assert coeffs == [QuadExt(-5, 0, 5), zero, QuadExt(1, 0, 5)]

    @pytest.mark.parametrize("size", range(1, 7))
    def test_charpoly_of_int_matrices(self, size):
        # Ints in, ints out: equal to the Fraction path and, at several x,
        # to det(xI - A) by the Leibniz formula.
        rng = random.Random(size)
        singular = 0
        for _ in range(12):
            A = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(size)]
                 for _ in range(size)]
            coeffs = mat_charpoly(A)
            assert all(type(c) is int for c in coeffs)
            assert coeffs == mat_charpoly([[Fraction(a) for a in row] for row in A])
            for x in (-3, 0, 2, 7):
                det = 0
                for perm in permutations(range(size)):
                    term = 1
                    for i, j in enumerate(perm):
                        term *= (x if i == j else 0) - A[i][j]
                    inversions = sum(perm[i] > perm[j] for i in range(size)
                                     for j in range(i + 1, size))
                    det += -term if inversions % 2 else term
                assert sum(c * x**e for e, c in enumerate(coeffs)) == det
            singular += coeffs[0] == 0
        assert singular


def _candidate_pq(text):
    ps = candidate_parameters(parse_r(text))
    return ps.P, ps.Q, ps.N


def _perturbed_pq():
    # The "3+P" case of the pinned feasibility reports: P[1][1] raised by 1.
    P, Q, N = _candidate_pq("3")
    P[1][1] += 1
    return P, Q, N


def _irrational_N_pq(x):
    # N = x + r at q = 5, of norm x^2 - 5: N is rational at every candidate r.
    P, Q, _ = _candidate_pq("sqrt:5")
    return P, Q, x + QuadExt.root(5)


PQ_CASES = {
    **{f"r={t}": (lambda t=t: _candidate_pq(t))
       for t in ("3", "5", "2", "4", "-3", "sqrt:5", "sqrt:13")},
    "3+P": _perturbed_pq,
    "N=1+r": lambda: _irrational_N_pq(1),
    "N=3+r": lambda: _irrational_N_pq(3),
}


class TestPqTensor:
    """The integer-pair kernel against the per-term QuadExt oracle."""

    @staticmethod
    def assert_matches_oracle(P, Q, N):
        d = len(P) - 1
        for A, B in ((P, Q), (Q, P)):
            T, want = pq_tensor(A, B, N), pq_tensor_per_term(A, B, N)
            for i, j, k in product(range(d + 1), repeat=3):
                assert T[i][j][k] == want(i, j, k), (i, j, k)
                assert T[j][i] is T[i][j]        # one plane per {i, j}

    @pytest.mark.parametrize("case", list(PQ_CASES))
    def test_matches_per_term_oracle(self, case):
        self.assert_matches_oracle(*PQ_CASES[case]())

    @pytest.mark.parametrize("bundle", ["q5n1", "q9n1", "q13n1", "q5n2"])
    def test_matches_per_term_oracle_on_spectral_data(self, bundle, request):
        data = request.getfixturevalue(bundle)
        sd = spectral_data(verify_scheme(data["instance"]), data["space"].spec.q)
        self.assert_matches_oracle(sd.P, sd.Q, sd.N)

    @pytest.mark.parametrize("zero", [0, Fraction(0), QuadExt(0, 0, 5)])
    def test_zero_N_raises(self, zero):
        P, Q, _ = _candidate_pq("sqrt:5")
        with pytest.raises(ZeroDivisionError):
            pq_tensor(P, Q, zero)

    def test_mixed_bases_rejected(self):
        P, Q, N = _candidate_pq("sqrt:5")
        with pytest.raises(ValueError):
            pq_tensor(P, Q, QuadExt(N.x, N.y, 13))
        with pytest.raises(ValueError):
            pq_tensor(P, _candidate_pq("sqrt:13")[1], N)


def _finite_field(q):
    from polarcover.finite_field import construct_field

    return reference(construct_field(*{5: (5, 1), 9: (3, 2), 13: (13, 1)}[q]))


class TestMatrixOpsOverFq:
    """The same routines with the scalar F_q of ``field_oracles`` as the
    field, on F_q codes."""

    @staticmethod
    def dot(f, row, v):
        acc = 0
        for a, x in zip(row, v):
            acc = f.add(acc, f.mul(a, x))
        return acc

    @pytest.mark.parametrize("q", [5, 9])
    def test_kernel(self, q):
        # Basis of the null space against a brute-force count of it.
        f = _finite_field(q)
        rng = random.Random(q)
        for _ in range(100):
            r, c = rng.randint(1, 3), rng.randint(1, 4)
            A = [[rng.choice((0, 1, rng.randrange(q))) for _ in range(c)] for _ in range(r)]
            basis = mat_kernel(A, f)
            rank = len(gauss_jordan(list(A), c, f)[0])
            assert len(basis) == c - rank
            for v in basis:
                assert len(v) == c
                assert all(self.dot(f, row, v) == 0 for row in A)
            null = sum(all(self.dot(f, row, v) == 0 for row in A)
                       for v in product(range(q), repeat=c))
            assert q ** (c - rank) == null

    @pytest.mark.parametrize("q", [5, 9, 13])
    def test_det_matches_leibniz(self, q):
        # The signed pivot product is the determinant; chi(-1) = 1 would
        # hide a lost swap sign from every pair sign.
        f = _finite_field(q)
        rng = random.Random(q)
        singular = swapped = 0
        for _ in range(300):
            M = [[rng.choice((0, 0, 1, rng.randrange(q))) for _ in range(3)] for _ in range(3)]
            leibniz = 0
            for perm in permutations(range(3)):
                term = 1
                for i, j in enumerate(perm):
                    term = f.mul(term, M[i][j])
                inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
                leibniz = f.add(leibniz, f.neg(term) if inversions % 2 else term)
            pivots, det = gauss_jordan(list(M), 3, f)
            assert (det if len(pivots) == 3 else 0) == leibniz
            singular += len(pivots) < 3
            swapped += len(pivots) == 3 and not M[0][0]
        assert singular and swapped

class TestIsTridiagonal:
    def test_one_by_one(self):
        assert is_tridiagonal([[Fraction(0)]])
        assert is_tridiagonal([[Fraction(7)]])

    def test_full_band(self):
        assert is_tridiagonal([[0, 1, 0], [2, 0, 3], [0, 4, 0]])

    def test_zero_side_entry(self):
        assert not is_tridiagonal([[0, 1, 0], [2, 0, 0], [0, 4, 0]])
        assert not is_tridiagonal([[0, 0], [1, 0]])

    def test_nonzero_two_off_the_diagonal(self):
        assert not is_tridiagonal([[0, 1, 0], [2, 0, 3], [5, 4, 0]])
        assert not is_tridiagonal([[0, 1, 5], [2, 0, 3], [0, 4, 0]])

    def test_nonzero_diagonal_is_allowed(self):
        r = QuadExt.root(5)
        assert is_tridiagonal([[r, 1, 0], [1, -r, 1], [0, 1, r]])
