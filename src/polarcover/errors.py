"""Named error types shared across the package."""


class PolarcoverError(Exception):
    """Base class for all library errors."""


class ResourceCapExceeded(PolarcoverError):
    """A command's predicted peak bytes exceed the physical memory, its cap."""

    def __init__(self, predicted, cap):
        self.predicted = predicted
        self.cap = cap
        super().__init__(f"predicted {predicted} bytes exceeds cap {cap} bytes")


class QNotOneModFour(PolarcoverError):
    """The sign construction requires q = 1 mod 4; skew case unsupported."""

    def __init__(self, q):
        self.q = q
        super().__init__(f"q = {q} is not congruent to 1 mod 4")


class EigenvalueOutsideField(PolarcoverError):
    """An eigenvalue is not expressible as a + b*sqrt(q)."""


class RepeatedEigenvalue(PolarcoverError):
    """The intersection matrix L_1 has a repeated eigenvalue: its Krylov
    matrix [L_1^r e_0], r = 0..d, is singular, so A_1 does not generate the
    Bose-Mesner algebra.  ``verify_scheme``, which reads the p-tensor off
    that matrix, raises it, and so does ``spectral_data``."""


class NotInvariant(PolarcoverError):
    """A group element of a scheme instance breaks the switching law: it
    maps the witness pair, read on sheet 0, to a pair in another relation,
    so it is no automorphism and cannot stand for the pairs of its orbit."""

    def __init__(self, g, witness):
        self.g = g
        self.witness = witness
        super().__init__(f"group element {g} moves pair {witness} out of its relation")


class SchemeAxiomError(PolarcoverError):
    """Base class for association-scheme axiom violations (carries a witness)."""


class NotAPartition(SchemeAxiomError):
    pass


class IdentityNotR0(SchemeAxiomError):
    def __init__(self, relation, witness):
        self.relation = relation
        self.witness = witness
        x, y = witness
        super().__init__(f"distinct pair ({x},{y}) assigned relation 0" if x != y
                         else f"({x},{y}) has relation {relation}, not 0")


class NotSymmetric(SchemeAxiomError):
    def __init__(self, relation, witness=None):
        self.relation = relation
        self.witness = witness
        super().__init__(f"relation {relation} is not symmetric (witness {witness})")


class NonConstant(SchemeAxiomError):
    def __init__(self, i, j, k, witness):
        self.i, self.j, self.k = i, j, k
        self.witness = witness
        super().__init__(
            f"p[{i}][{j}]^{k} is not constant over pairs (witness pair {witness})"
        )
