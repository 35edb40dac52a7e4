"""Scalar F_q arithmetic on int codes, for the per-object oracles.

``reference(spec)`` is the one scalar reference per field: the numpy tables
of a ``finite_field.FieldSpec`` as Python lists, so that one operation is
list indexing on ints.  It is the ``field`` argument of ``gauss_jordan``,
``mat_kernel`` and ``mat_mul`` over F_q.  Unlike the array tables, whose
inv and chi map 0 to 0 for masked-out lanes, its ``inv(0)`` and ``chi(0)``
raise.
"""

from functools import cache


class FieldReference:
    """F_q on int codes, read off the tables of a FieldSpec."""

    def __init__(self, spec):
        q = spec.q
        self.p, self.q = spec.p, q
        self.add_t = spec.add_t.reshape(q, q).tolist()
        self.sub_t = spec.sub_t.reshape(q, q).tolist()
        self.mul_t = spec.mul_t.reshape(q, q).tolist()
        self.neg_t = spec.neg_t.tolist()
        self.inv_t = spec.inv_t.tolist()
        self.chi_t = spec.chi_t.tolist()

    def add(self, x, y):
        return self.add_t[x][y]

    def sub(self, x, y):
        return self.sub_t[x][y]

    def mul(self, x, y):
        return self.mul_t[x][y]

    def neg(self, x):
        return self.neg_t[x]

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("division by zero in F_q")
        return self.inv_t[x]

    def pow(self, x, m):
        if m < 0:
            x, m = self.inv(x), -m
        result = 1
        while m:
            if m & 1:
                result = self.mul_t[result][x]
            x = self.mul_t[x][x]
            m >>= 1
        return result

    def chi(self, x):
        if x == 0:
            raise ValueError("chi(0) is undefined")
        return self.chi_t[x]

    def code(self, coeffs):
        """The code of the element with coefficients (c0, .., c_{e-1})."""
        return sum(c % self.p * self.p**i for i, c in enumerate(coeffs))

    def smallest_nonsquare(self):
        return self.chi_t.index(-1)


@cache
def reference(spec):
    """The scalar reference of spec's field, built once per field."""
    return FieldReference(spec)
