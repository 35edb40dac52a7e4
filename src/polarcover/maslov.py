"""Pairwise and triple sign invariants on generators, and the two-graph.

For generators X, Y at distance k we pick bases (x_1..x_n), (y_1..y_n) with
a common tail x_i = y_i (k < i <= n) spanning the intersection, and set

    sigma(X, Y) = chi(delta_X(x_1..x_n) * delta_Y(y_1..y_n) * det[B(x_i, y_j)])

where the determinant runs over i, j <= k and delta_X is the determinant of
coordinates with respect to X's canonical RREF basis.  For q = 1 mod 4 this
is symmetric and independent of the basis choice; the coherent triples
(sigma(X,Y)sigma(Y,Z)sigma(Z,X) = +1) form a two-graph.  The test oracle
``pair_oracle`` (tests/symplectic_oracles.py) computes this definition one
pair at a time.

``CoherenceTable.sigma_matrix`` is the sign of the space's one pair pass,
``SymplecticSpace.signed_distance_matrix``, whose int8 entries sigma * d
carry the distance in their absolute value; its docstring derives the
batched formula, and shows why a pair of a big-cell generator [I | A] and
any Y has the sign of ([I | A - B'], Y*), with Y* the canonical
representative of Y under the translations by symmetric B', so that every
pair with a big-cell member reads one table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QNotOneModFour
from .scheme_core import _exact_int_product
from .symplectic import SymplecticSpace

__all__ = ["CoherenceTable", "verify_two_graph", "coherent_split_count"]


class CoherenceTable:
    """The sign matrix S of all generator pairs, for q = 1 mod 4."""

    def __init__(self, space: SymplecticSpace):
        if space.spec.q % 4 != 1:
            raise QNotOneModFour(space.spec.q)
        self.space = space

    def sigma_matrix(self):
        """Full symmetric matrix of sigma values, diagonal 0 (numpy int8),
        the sign of ``SymplecticSpace.signed_distance_matrix``; a new array
        on every call."""
        return np.sign(self.space.signed_distance_matrix())


@dataclass
class TwoGraphReport:
    ok: bool
    coherent_triples: int = 0
    triples_total: int = 0
    witness: tuple = None       # first pair (x, y) where S breaks the conditions


def verify_two_graph(table: CoherenceTable) -> TwoGraphReport:
    """Check that the coherent triples form a two-graph, and count them.

    The sign matrix S must be symmetric with zero diagonal and off-diagonal
    entries exactly +-1.  Given that, every 4-set has evenly many coherent
    triples, because each pair sign occurs twice in the product of a
    4-set's four triple signs; so these entry conditions are the whole check.
    A failing S reports its first bad pair and no count.  Coherent minus
    incoherent triples is then trace(S^3)/6, with S^2 from the exact
    integer product ``scheme_core._exact_int_product``.
    """
    from math import comb

    S = table.sigma_matrix()
    m = len(S)
    total = comb(m, 3)

    off_diagonal = ~np.eye(m, dtype=bool)
    bad = (S != S.T) | np.where(off_diagonal, np.abs(S) != 1, S != 0)
    if bad.any():
        x, y = map(int, np.argwhere(bad)[0])
        return TwoGraphReport(False, 0, total, (x, y))
    trace = int((_exact_int_product(S, S).astype(np.int64) * S).sum())  # S = S^T
    return TwoGraphReport(True, (total + trace // 6) // 2, total)


def coherent_split_count(table: CoherenceTable, x: int, y: int):
    """Counts of coherent/incoherent z with d(x,z) = d(x,y), d(y,z) = 1, for
    the generators of enumeration indices x and y."""
    if x == y:
        raise ValueError("distinct generators required")
    Ex, Ey = (table.space.signed_distance_matrix()[v] for v in (x, y))
    zs = np.flatnonzero((np.abs(Ex) == abs(Ex[y])) & (np.abs(Ey) == 1))  # never x or y
    # |E[x, z]| = |E[x, y]| and E[y, z] = sigma(y, z): coherent iff E[x, z] E[y, z] = E[x, y].
    coherent = int((Ex[zs] * Ey[zs] == Ex[y]).sum())
    return coherent, len(zs) - coherent
