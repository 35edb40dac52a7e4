"""Polynomials as coefficient lists, low degree first, for the identity tests."""

from functools import reduce

from polarcover.exact_algebra import QuadExt, gauss


def poly_mul(*factors):
    """The product of the polynomials given as coefficient lists."""
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return out
    return reduce(mul, factors, [1])


def scale_arg(p, c):
    """p(c t)."""
    return [coeff * c**i for i, coeff in enumerate(p)]


def e_poly(m, q):
    """prod_{i<m} (1 + q^i t) by the q-binomial theorem: its t^l coefficient
    is q^C(l,2) [m choose l]_q, read off ``gauss``."""
    return [q ** (l * (l - 1) // 2) * gauss(m, l, q) for l in range(m + 1)]


def assert_e_poly_identities(q, m):
    """E_m(-qt)(1-t) = (1-q^m t)E_m(-t), E_m(q^2 t)(1+qt) = (1+q^(m+1) t)E_m(qt)
    and E_m(r^3 t)(1+rt) = (1+r q^m t)E_m(rt), with E_m = e_poly(m, q) and
    r = sqrt(q)."""
    p, r = e_poly(m, q), QuadExt.root(q)
    assert poly_mul(scale_arg(p, -q), [1, -1]) == poly_mul([1, -q**m], scale_arg(p, -1))
    assert poly_mul(scale_arg(p, q * q), [1, q]) == poly_mul([1, q ** (m + 1)], scale_arg(p, q))
    assert poly_mul(scale_arg(p, r**3), [1, r]) == poly_mul([1, r * q**m], scale_arg(p, r))
