"""Pairwise and triple sign invariants on generators, and the two-graph.

For generators X, Y at distance k we pick bases (x_1..x_n), (y_1..y_n) with
a common tail x_i = y_i (k < i <= n) spanning the intersection, and set

    sigma(X, Y) = chi(delta_X(x_1..x_n) * delta_Y(y_1..y_n) * det[B(x_i, y_j)])

where the determinant runs over i, j <= k and delta_X is the determinant of
coordinates with respect to X's canonical RREF basis.  For q = 1 mod 4 this
is symmetric and independent of the basis choice; the coherent triples
(sigma(X,Y)sigma(Y,Z)sigma(Z,X) = +1) form a two-graph.

``sigma_pair`` computes this one pair at a time and is the reference.
``CoherenceTable.sigma_matrix`` reads all pairs off the space's one pair
pass, ``SymplecticSpace.pair_matrices``, which gives the distance matrix D
from the same eliminations; its docstring derives the batched formula, and
shows why a big-cell pair [I | A], [I | B] has the sign of
([I | 0], [I | B - A]), so that those pairs read one table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QNotOneModFour
from .exact_algebra import gauss_jordan
from .scheme_core import _exact_int_product
from .symplectic import Generator, SymplecticSpace, intersect, mat_vec, rank_of

__all__ = ["CoherenceTable", "sigma_pair", "sigma_triple", "verify_two_graph",
           "coherent_split_count"]


def _require_q1mod4(spec):
    if spec.q % 4 != 1:
        raise QNotOneModFour(spec.q)


def field_det(spec, rows):
    """Determinant of a square matrix over F_q."""
    pivots, det = gauss_jordan(list(rows), len(rows), spec)
    return det if len(pivots) == len(rows) else 0


def solve_coordinates(spec, sub, v):
    """Coordinates of v on the RREF basis of a subspace."""
    if any(sub.residue(spec, v)):
        raise ValueError("vector not in subspace")
    return [v[p] for p in sub.pivots]


def _extend_basis(spec, gen_basis, tail):
    """Rows of gen_basis independent of the span of tail, greedily chosen.

    Returns the chosen head rows; head + tail is a basis of the generator.
    """
    head = []
    current = list(tail)
    r = len(current)            # tail is an RREF basis
    for row in gen_basis:
        if rank_of(spec, current + [row]) > r:
            head.append(row)
            current.append(row)
            r += 1
    return head


def _sigma_from_bases(space, X, Y, x_head, y_head, tail):
    """sigma value for explicit head/tail basis choices."""
    spec = space.spec
    k = len(x_head)
    x_basis = list(x_head) + list(tail)
    y_basis = list(y_head) + list(tail)
    coords_x = [solve_coordinates(spec, X.sub, v) for v in x_basis]
    coords_y = [solve_coordinates(spec, Y.sub, v) for v in y_basis]
    delta_x = field_det(spec, coords_x)
    delta_y = field_det(spec, coords_y)
    gram = [[space.bform(x_head[i], y_head[j]) for j in range(k)] for i in range(k)]
    g = field_det(spec, gram) if k else 1
    return spec.chi_code(spec.mul(spec.mul(delta_x, delta_y), g))


def sigma_pair(space: SymplecticSpace, X: Generator, Y: Generator, rng=None) -> int:
    """The pair sign in {+1, -1}; X = Y is rejected.

    With rng given, the deterministic basis extension is replaced by a random
    one (used to property-test basis independence); the value never changes.
    """
    _require_q1mod4(space.spec)
    if X.id == Y.id:
        raise ValueError("sigma_pair requires distinct generators")
    spec = space.spec
    meet = intersect(space, X.sub, Y.sub)
    tail = list(meet.basis)
    if rng is None:
        x_head = _extend_basis(spec, X.sub.basis, tail)
        y_head = _extend_basis(spec, Y.sub.basis, tail)
    else:
        x_head = _random_extension(space, X, tail, rng)
        y_head = _random_extension(space, Y, tail, rng)
    return _sigma_from_bases(space, X, Y, x_head, y_head, tail)


def _random_extension(space, G, tail, rng):
    """Random head completing tail to a basis of G (for gauge testing)."""
    spec = space.spec
    head = []
    current = list(tail)
    r = len(current)            # tail is an RREF basis
    while r < G.sub.dim:
        coeffs = [rng.randrange(spec.q) for _ in range(G.sub.dim)]
        v = mat_vec(spec, G.sub.basis, coeffs)
        if not any(v):
            continue
        if rank_of(spec, current + [v]) > r:
            head.append(v)
            current.append(v)
            r += 1
    return head


class CoherenceTable:
    """The sign matrix S of all generator pairs, for q = 1 mod 4."""

    def __init__(self, space: SymplecticSpace):
        _require_q1mod4(space.spec)
        self.space = space

    def sigma(self, X: Generator, Y: Generator) -> int:
        if X.id == Y.id:
            raise ValueError("sigma requires distinct generators")
        return int(self.sigma_matrix()[X.id, Y.id])

    def sigma_matrix(self):
        """Full symmetric matrix of sigma values, diagonal 0 (numpy int8),
        from ``SymplecticSpace.pair_matrices``."""
        return self.space.pair_matrices()[1]


def sigma_triple(table: CoherenceTable, X, Y, Z) -> int:
    if len({X.id, Y.id, Z.id}) != 3:
        raise ValueError("sigma_triple requires three distinct generators")
    return table.sigma(X, Y) * table.sigma(Y, Z) * table.sigma(Z, X)


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


def coherent_split_count(table: CoherenceTable, X: Generator, Y: Generator):
    """Counts of coherent/incoherent Z with d(X,Z) = d(X,Y), d(Y,Z) = 1."""
    if X.id == Y.id:
        raise ValueError("distinct generators required")
    x, y = X.id, Y.id
    S = table.sigma_matrix()
    D = table.space.distance_matrix()
    zs = np.flatnonzero((D[x] == D[x, y]) & (D[y] == 1))     # never x or y
    coherent = int((S[x, y] * S[y, zs] * S[zs, x] == 1).sum())
    return coherent, len(zs) - coherent
