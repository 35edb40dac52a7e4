"""Arithmetic in F_q, q an odd prime power, with the quadratic character.

Elements are integer codes in [0, q): the code of the element with
coefficient vector (c0, .., c_{e-1}) is sum c_i p^i.  F_q = F_p[x]/(f) is
built as two q x q code tables in one numpy pass over the base-p digits of
all codes: add is the digit sum mod p, and mul is the digit convolution
reduced mod f.  F_p[x]/(f) is a field exactly when f is irreducible, so the
modulus is the first monic f of degree e, scanned in the base-p counting
order of (c0, .., c_{e-1}), whose mul table has no zero divisor: the
lexicographically smallest irreducible, low degree first (x when e = 1).
neg, inv and chi are read off the two tables.  :class:`FieldSpec` holds
them as numpy arrays, for lookups on whole arrays of codes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FieldSpec", "construct_field", "construct_bytes"]


def _check_codes(q):
    if q >= 2**15:
        raise ValueError(f"q = {q} must be below 2^15 (int16 codes)")


def _is_odd_prime(p):
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _build_tables(p, e):
    """(modulus, add, mul) of F_{p^e}, the tables as int16 (q, q) arrays.

    For each candidate f = x^e + sum c_i x^i in counting order, x^k for
    k >= e is reduced by x^k = -x^(k-e) (f - x^e), top degree first.
    Intermediates are int32: entries stay below 2e p^2 in absolute value.
    For e >= 2 a candidate with a root in F_p has a linear factor, so its
    table is never built; the zero-divisor test still decides the rest.
    """
    q = p**e
    weights = p ** np.arange(e, dtype=np.int32)
    digits = np.arange(q, dtype=np.int32)[:, None] // weights % p
    add = ((digits[:, None] + digits[None, :]) % p @ weights).astype(np.int16)
    conv = np.zeros((q, q, 2 * e - 1), dtype=np.int32)
    for i in range(e):
        conv[:, :, i:i + e] += digits[:, None, i, None] * digits[None, :, :]
    candidates = digits
    if e >= 2:
        # powers[t, i] = t^i mod p; f(t) = t^e + sum c_i t^i
        powers = np.arange(p)[:, None] ** np.arange(e + 1) % p
        candidates = digits[((digits @ powers[:, :e].T + powers[:, e]) % p != 0).all(axis=1)]
    for low in candidates:
        prod = conv.copy()
        for k in range(2 * e - 2, e - 1, -1):
            prod[:, :, k - e:k] -= prod[:, :, k, None] % p * low
        mul = (prod[:, :, :e] % p @ weights).astype(np.int16)
        if not (mul[1:, 1:] == 0).any():
            return (*low.tolist(), 1), add, mul
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldSpec:
    """F_q = F_p[x]/(modulus), q = p^e, as numpy tables applied elementwise
    to arrays of codes.

    Built from the (q, q) add and mul tables alone: neg(x) is where row x
    of add hits 0, inv(x) where row x of mul hits 1, and chi is +1 on the
    nonzero squares (the diagonal of mul) and -1 on the other nonzero
    codes.  Codes are stored as int16 (q < 2^15).  Binary tables are
    flattened, so a op b is one lookup at a * q + b, computed in intp
    whatever the integer type of the operands.  inv and chi map 0 to 0, so
    masked-out lanes of a batch stay harmless; callers decide what a zero
    means.
    """

    def __init__(self, p, e):
        if not _is_odd_prime(p):
            raise ValueError(f"p = {p} must be an odd prime")
        if e < 1:
            raise ValueError("e must be >= 1")
        _check_codes(p**e)
        self.p = p
        self.e = e
        self.q = q = p**e
        self.modulus, add, mul = _build_tables(p, e)
        self.neg_t = np.nonzero(add == 0)[1].astype(np.int16)
        self.inv_t = np.zeros(q, dtype=np.int16)
        self.inv_t[1:] = np.nonzero(mul[1:] == 1)[1]
        self.chi_t = np.full(q, -1, dtype=np.int8)
        self.chi_t[np.diagonal(mul)] = 1
        self.chi_t[0] = 0
        self.add_t = add.ravel()
        self.sub_t = add[:, self.neg_t].ravel()
        self.mul_t = mul.ravel()

    def add(self, a, b):
        return self.add_t[np.multiply(a, self.q, dtype=np.intp) + b]

    def sub(self, a, b):
        return self.sub_t[np.multiply(a, self.q, dtype=np.intp) + b]

    def mul(self, a, b):
        return self.mul_t[np.multiply(a, self.q, dtype=np.intp) + b]

    def neg(self, a):
        return self.neg_t[a]

    def inv(self, a):
        return self.inv_t[a]

    def chi(self, a):
        return self.chi_t[a]

    def coeffs(self, code):
        return tuple(code // self.p**i % self.p for i in range(self.e))

    def element_str(self, code):
        """Text form: plain int for prime fields, "c0,c1,.." for extensions."""
        if self.e == 1:
            return str(code)
        return ",".join(str(c) for c in self.coeffs(code))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, e={self.e}, modulus={self.modulus})"

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))


def construct_field(p, e):
    """Field with the lexicographically smallest monic irreducible modulus."""
    return FieldSpec(p, e)


def construct_bytes(p, e):
    """Predicted peak bytes of ``construct_field(p, e)``, its ValueError at
    q >= 2^15 first: 24 e - 4 bytes per q^2 entry, plus 1 MiB.  tracemalloc
    peaks (Python 3.11, q <= 3125) per entry: 18 for e = 1, then 38, 58, 88,
    98-99, 136 and 160 for e = 2..7."""
    q = p**e
    _check_codes(q)
    return q * q * (24 * e - 4) + 2**20
