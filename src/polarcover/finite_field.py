"""Arithmetic in F_q, q an odd prime power, with the quadratic character.

Elements are represented internally by integer codes in [0, q): the code of
an element with coefficient vector (c0, .., c_{e-1}) is sum c_i p^i.  A
:class:`FieldSpec` carries full multiplication/inverse tables (desk-scale q),
so all hot-loop arithmetic is table lookups on ints; its :class:`FieldTables`
are the same tables as numpy arrays, for lookups on whole arrays of codes.
:class:`FieldElement` is the thin value wrapper used at API boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PolarcoverError

__all__ = ["FieldSpec", "FieldTables", "FieldElement", "construct_field",
           "field_arith", "chi"]


class ZeroCharacterArgument(PolarcoverError):
    """chi(0) is undefined; a zero argument indicates an upstream bug."""


def _is_odd_prime(p):
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


# -- polynomial helpers over F_p (coefficient lists, low degree first) -------


def _poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mod(f, g, p):
    f = list(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    while len(f) - 1 >= dg and f:
        shift = len(f) - 1 - dg
        factor = f[-1] * inv_lead % p
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - factor * c) % p
        _poly_trim(f)
    return f


def _poly_mulmod(f, g, mod, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _poly_mod(_poly_trim(out), mod, p)


def _poly_powmod(f, n, mod, p):
    result = [1]
    base = _poly_mod(list(f), mod, p)
    while n:
        if n & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        n >>= 1
    return result


def _poly_gcd(f, g, p):
    f, g = list(f), list(g)
    while g:
        f = _poly_mod(f, g, p)
        f, g = g, f
    return f


def _is_irreducible(f, p):
    """Rabin's test for a monic polynomial f over F_p."""
    e = len(f) - 1
    x = [0, 1]
    xq = _poly_powmod(x, p**e, f, p)
    diff = [0] * max(len(xq), 2)
    for i, c in enumerate(xq):
        diff[i] = c
    diff[1] = (diff[1] - 1) % p
    if _poly_trim(diff):
        return False
    d = 2
    ee = e
    prime_divs = []
    while d * d <= ee:
        if ee % d == 0:
            prime_divs.append(d)
            while ee % d == 0:
                ee //= d
        d += 1
    if ee > 1:
        prime_divs.append(ee)
    for ell in prime_divs:
        xpk = _poly_powmod(x, p ** (e // ell), f, p)
        diff = [0] * max(len(xpk), 2)
        for i, c in enumerate(xpk):
            diff[i] = c
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(list(f), _poly_trim(diff), p)
        if len(g) - 1 > 0:
            return False
    return True


def _smallest_irreducible(p, e):
    """Lexicographically smallest monic irreducible of degree e over F_p.

    Coefficients are compared low-degree-first, so candidates are scanned in
    the natural base-p counting order of (c0, c1, .., c_{e-1}).
    """
    if e == 1:
        return [0, 1]  # the polynomial x; prime fields never reduce by it
    for code in range(p**e):
        coeffs = []
        c = code
        for _ in range(e):
            coeffs.append(c % p)
            c //= p
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldSpec:
    """F_q = F_p[x]/(modulus), q = p^e, with precomputed arithmetic tables."""

    def __init__(self, p, e):
        if not _is_odd_prime(p):
            raise ValueError(f"p = {p} must be an odd prime")
        if e < 1:
            raise ValueError("e must be >= 1")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = tuple(_smallest_irreducible(p, e))
        self._build_tables()

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q

        def decode(code):
            out = []
            for _ in range(e):
                out.append(code % p)
                code //= p
            return out

        def encode(coeffs):
            acc = 0
            for c in reversed(coeffs):
                acc = acc * p + (c % p)
            return acc

        self._decode, self._encode = decode, encode
        mod = list(self.modulus)
        self._add = [
            [encode([(a + b) % p for a, b in zip(decode(x), decode(y))]) for y in range(q)]
            for x in range(q)
        ]
        self._mul = [[0] * q for _ in range(q)]
        for x in range(q):
            fx = _poly_trim(decode(x))
            for y in range(x, q):
                fy = _poly_trim(decode(y))
                prod = _poly_mulmod(fx, fy, mod, p) if e > 1 else [fx[0] * fy[0] % p] if fx and fy else []
                code = encode(prod + [0] * (e - len(prod)))
                self._mul[x][y] = code
                self._mul[y][x] = code
        self._neg = [encode([(-c) % p for c in decode(x)]) for x in range(q)]
        self._inv = [None] * q
        for x in range(1, q):
            self._inv[x] = self.pow(x, q - 2)
        # Quadratic character table: chi[x] = +-1 for x != 0.
        half = (q - 1) // 2
        minus_one = self._neg[1]
        self._chi = [0] * q
        for x in range(1, q):
            v = self.pow(x, half)
            if v == 1:
                self._chi[x] = 1
            elif v == minus_one:
                self._chi[x] = -1
            else:  # pragma: no cover - impossible in a field
                raise AssertionError("x^((q-1)/2) not in {1, -1}")

    # -- code-level arithmetic (hot path) ---------------------------------

    def add(self, x, y):
        return self._add[x][y]

    def sub(self, x, y):
        return self._add[x][self._neg[y]]

    def mul(self, x, y):
        return self._mul[x][y]

    def neg(self, x):
        return self._neg[x]

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("division by zero in F_q")
        return self._inv[x]

    def div(self, x, y):
        return self._mul[x][self.inv(y)]

    def pow(self, x, m):
        if m < 0:
            x, m = self.inv(x), -m
        result = 1
        while m:
            if m & 1:
                result = self._mul[result][x]
            x = self._mul[x][x]
            m >>= 1
        return result

    def chi_code(self, x):
        if x == 0:
            raise ZeroCharacterArgument("chi(0) is undefined")
        return self._chi[x]

    def coeffs(self, code):
        return tuple(self._decode(code))

    def code(self, coeffs):
        return self._encode(list(coeffs))

    def element_str(self, code):
        """Text form: plain int for prime fields, "c0,c1,.." for extensions."""
        if self.e == 1:
            return str(code)
        return ",".join(str(c) for c in self._decode(code))

    @cached_property
    def tables(self):
        return FieldTables(self)

    def smallest_nonsquare(self):
        return next(x for x in range(1, self.q) if self._chi[x] == -1)

    def __repr__(self):
        return f"FieldSpec(p={self.p}, e={self.e}, modulus={self.modulus})"

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))


class FieldTables:
    """A FieldSpec's tables as numpy arrays, applied elementwise to code arrays.

    Codes are stored as int16 (q < 2^15).  Binary tables are flattened, so
    a op b is one lookup at a * q + b, computed in intp whatever the
    integer type of the operands.  inv and chi map 0 to 0, so masked-out
    lanes of a batch stay harmless; callers decide what a zero means.
    """

    def __init__(self, spec: FieldSpec):
        q = spec.q
        add = np.array(spec._add, dtype=np.int16)
        self.q = q
        self.add_t = add.ravel()
        self.sub_t = add[:, spec._neg].ravel()
        self.mul_t = np.array(spec._mul, dtype=np.int16).ravel()
        self.neg_t = np.array(spec._neg, dtype=np.int16)
        self.inv_t = np.array([0] + spec._inv[1:], dtype=np.int16)
        self.chi_t = np.array(spec._chi, dtype=np.int8)

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


@dataclass(frozen=True)
class FieldElement:
    """Value wrapper around an element code, for API-level use."""

    spec: FieldSpec
    code: int

    @property
    def coeffs(self):
        return self.spec.coeffs(self.code)

    def __str__(self):
        return self.spec.element_str(self.code)

    def __bool__(self):
        return self.code != 0


def construct_field(p, e):
    """Field with the lexicographically smallest monic irreducible modulus."""
    return FieldSpec(p, e)


_OPS = {"add", "sub", "mul", "div", "pow"}


def field_arith(a: FieldElement, b, op: str) -> FieldElement:
    """Binary arithmetic on FieldElements; b is an int exponent for 'pow'."""
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    spec = a.spec
    if op == "pow":
        return FieldElement(spec, spec.pow(a.code, b))
    if spec != b.spec:
        raise ValueError("elements from different fields")
    fn = getattr(spec, op)
    return FieldElement(spec, fn(a.code, b.code))


def chi(a: FieldElement, spec: FieldSpec = None) -> int:
    """Quadratic character: +1 for squares in F_q^x, -1 for nonsquares.

    Raises ZeroCharacterArgument for a = 0 (never silently returns a sign).
    """
    if isinstance(a, FieldElement):
        return a.spec.chi_code(a.code)
    return spec.chi_code(a)
