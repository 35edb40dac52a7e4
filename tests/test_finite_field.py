"""F_q arithmetic, irreducible modulus selection, quadratic character.

The array operations of ``FieldSpec`` are what the program runs; the scalar
reference of ``field_oracles`` is checked here as well, since the oracles
compute with it.
"""

from itertools import product

import numpy as np
import pytest

from field_oracles import reference
from polarcover.finite_field import construct_field


def _odd_prime_powers(bound):
    """(p, e) for every odd prime power p^e below bound."""
    out = []
    for q in range(3, bound, 2):
        p = next(d for d in range(3, q + 1, 2) if q % d == 0)
        e, m = 0, q
        while m % p == 0:
            m, e = m // p, e + 1
        if m == 1:
            out.append((p, e))
    return out


ODD_PRIME_POWERS = _odd_prime_powers(200)


def _poly_rem(f, g, p):
    """Remainder of f by the monic g over F_p; lists low degree first."""
    f = list(f)
    d = len(g) - 1
    for shift in range(len(f) - 1 - d, -1, -1):
        lead = f[shift + d]
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - lead * c) % p
    return f[:d]


def _schoolbook(a, b, modulus, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _poly_rem(prod, modulus, p)


def _table_by_definition(f, combine):
    """The rows of a binary table of f from its definition: combine gives
    the coefficient vector of a op b from those of a and b, before the
    reduction mod p."""
    code = reference(f).code
    coeffs = [f.coeffs(x) for x in range(f.q)]
    return [[code(combine(ca, cb)) for cb in coeffs] for ca in coeffs]


class TestConstruction:
    def test_prime_field(self):
        f = construct_field(5, 1)
        assert f.q == 5
        assert f.modulus == (0, 1)

    def test_f9_modulus(self):
        # Smallest monic irreducible over F_3, low-degree-first order: x^2 + 1.
        f = construct_field(3, 2)
        assert f.modulus == (1, 0, 1)

    def test_f25_modulus_irreducible(self):
        f = construct_field(5, 2)
        c0, c1, _ = f.modulus
        # x^2 + c1 x + c0 must have no root in F_5
        assert all((x * x + c1 * x + c0) % 5 != 0 for x in range(5))
        # and be minimal in the low-degree-first scan: c0=2, c1=0 works.
        assert f.modulus == (2, 0, 1)

    def test_rejects_bad_parameters(self):
        for p in (2, 4, 9, 1):
            with pytest.raises(ValueError):
                construct_field(p, 1)
        with pytest.raises(ValueError):
            construct_field(5, 0)
        with pytest.raises(ValueError):   # codes must fit int16
            construct_field(3, 10)


class TestArithmetic:
    @pytest.mark.parametrize("p,e", [(5, 1), (3, 2), (13, 1), (5, 2), (3, 3)])
    def test_field_axioms_exhaustive_on_samples(self, p, e):
        import random

        f = reference(construct_field(p, e))
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (rng.randrange(f.q) for _ in range(3))
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            if a:
                assert f.mul(a, f.inv(a)) == 1
        assert f.mul(0, 3 % f.q) == 0

    def test_f9_square_of_generator(self):
        # In F_3[x]/(x^2+1), x has code 3 and x*x = -1 = 2.
        f = construct_field(3, 2)
        assert f.mul(3, 3) == 2

    def test_division_by_zero(self):
        f = reference(construct_field(5, 1))
        with pytest.raises(ZeroDivisionError):
            f.inv(0)

    def test_pow_negative_exponent(self):
        f = reference(construct_field(13, 1))
        for a in range(1, 13):
            assert f.mul(f.pow(a, -1), a) == 1
            assert f.pow(a, -2) == f.inv(f.mul(a, a))

    def test_coeffs_roundtrip(self):
        f = construct_field(3, 2)
        for code in range(9):
            assert reference(f).code(f.coeffs(code)) == code


class TestCharacter:
    @pytest.mark.parametrize("p,e", [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2), (3, 3)])
    def test_chi_matches_squares(self, p, e):
        f = construct_field(p, e)
        nonzero = np.arange(1, f.q)
        squares = set(f.mul(nonzero, nonzero).tolist())
        assert f.chi(nonzero).tolist() == [1 if a in squares else -1 for a in range(1, f.q)]

    def test_chi_multiplicative(self):
        f = construct_field(13, 1)
        a, b = np.indices((12, 12)) + 1
        assert (f.chi(f.mul(a, b)) == f.chi(a) * f.chi(b)).all()

    def test_chi_minus_one_depends_on_q_mod_4(self):
        # chi(-1) = +1 iff q = 1 mod 4.
        for p, e in ((5, 1), (3, 2), (13, 1), (5, 2)):
            f = construct_field(p, e)
            assert f.chi(f.neg(1)) == (1 if f.q % 4 == 1 else -1)
        f7 = construct_field(7, 1)
        assert f7.chi(f7.neg(1)) == -1

    def test_chi_zero_is_an_error(self):
        for p, e in ((5, 1), (3, 2)):
            with pytest.raises(ValueError, match="chi"):
                reference(construct_field(p, e)).chi(0)

    def test_smallest_nonsquare(self):
        assert reference(construct_field(5, 1)).smallest_nonsquare() == 2
        f9 = reference(construct_field(3, 2))
        eta = f9.smallest_nonsquare()
        assert f9.chi(eta) == -1
        assert all(f9.chi(x) == 1 for x in range(1, eta))


class TestElementApi:
    def test_str_forms(self):
        f5 = construct_field(5, 1)
        assert f5.element_str(3) == "3"
        f9 = construct_field(3, 2)
        assert f9.element_str(5) == "2,1"   # 2 + x


EXTENSIONS = [(p, e) for p, e in ODD_PRIME_POWERS if e >= 2]


@pytest.mark.parametrize("p,e", EXTENSIONS, ids=[f"q{p**e}" for p, e in EXTENSIONS])
def test_modulus_is_first_candidate_without_zero_divisor(p, e):
    # The scan that skips candidates with a root in F_p picks the same
    # modulus as the plain scan: the first monic f of degree e, in
    # counting order of (c0, .., c_{e-1}), whose schoolbook product table
    # has no zero among products of nonzero elements.
    f = construct_field(p, e)
    nonzero = [v for v in product(range(p), repeat=e) if any(v)]

    def field_like(modulus):
        return all(any(_schoolbook(a, b, modulus, p)) for a in nonzero for b in nonzero)

    first = next(low for low in (f.coeffs(code) for code in range(f.q))
                 if field_like(list(low) + [1]))
    assert f.modulus == (*first, 1)


@pytest.mark.parametrize("p,e", ODD_PRIME_POWERS,
                         ids=[f"q{p**e}" for p, e in ODD_PRIME_POWERS])
class TestTableOracles:
    """Every entry of the array operations against its definition, for
    every odd q < 200."""

    def test_add_and_mul_are_polynomial_sum_and_product(self, p, e):
        # sub too: its table, add[:, neg], feeds eliminate_batch and the
        # big-cell index.
        f = construct_field(p, e)
        codes = np.arange(f.q)
        sums = _table_by_definition(f, lambda a, b: [x + y for x, y in zip(a, b)])
        diffs = _table_by_definition(f, lambda a, b: [x - y for x, y in zip(a, b)])
        prods = _table_by_definition(f, lambda a, b: _schoolbook(a, b, f.modulus, p))
        for a in range(f.q):
            assert f.add(a, codes).tolist() == sums[a], a
            assert f.sub(a, codes).tolist() == diffs[a], a
            assert f.mul(a, codes).tolist() == prods[a], a

    def test_neg_inv_chi(self, p, e):
        f = construct_field(p, e)
        scalar = reference(f)
        nonzero = np.arange(1, f.q)
        assert (f.add(nonzero, f.neg(nonzero)) == 0).all()
        assert (f.mul(nonzero, f.inv(nonzero)) == 1).all()
        # Euler's criterion
        minus_one = int(f.neg(1))
        euler = [scalar.pow(x, (f.q - 1) // 2) for x in range(1, f.q)]
        assert set(euler) <= {1, minus_one}
        assert f.chi(nonzero).tolist() == [1 if x == 1 else -1 for x in euler]
        # Zero lanes: neg, inv and chi of 0 are 0.
        zeros = np.zeros(3, dtype=np.int16)
        assert not f.neg(zeros).any() and not f.inv(zeros).any() and not f.chi(zeros).any()

    def test_modulus_is_smallest_irreducible(self, p, e):
        # Monic candidates of degree e in base-p counting order of the low
        # coefficients: each one before the modulus has a monic factor of
        # degree <= e/2, and the modulus has none.
        f = construct_field(p, e)
        assert len(f.modulus) == e + 1 and f.modulus[-1] == 1
        factors = [list(g) + [1] for d in range(1, e // 2 + 1)
                   for g in product(range(p), repeat=d)]

        def reducible(poly):
            return any(not any(_poly_rem(poly, g, p)) for g in factors)

        for code in range(reference(f).code(f.modulus[:e])):
            assert reducible(list(f.coeffs(code)) + [1]), code
        assert not reducible(list(f.modulus))
