"""The double cover of the dual polar graph as a view on its pair data.

Signed vertices are pairs (generator, sign).  Adjacency is
(X, e) ~ (Y, e') iff d(X, Y) = 1 and e e' = sigma(X, Y).  Vertex ids are
2*gen + (0 if sign = +1 else 1), so a fiber occupies two consecutive ids
and the antipode of a vertex is its id with the low bit flipped.

Ordered pairs fall into 2n+2 relations: index k when the signs agree with
sigma at distance k, and 2n+1-k when they disagree; index 0 is the identity
and 2n+1 the antipodality relation.  Adjacency is relation 1 (a disagreeing
pair would need 2n+1-k = 1, that is k = 2n > n), and the cover's metric
comes from the verified intersection tensor
(``scheme_core.class_distances``).  The relation rule lives in
``SchemeInstance.from_cover``; the cover holds no N x N data of its own.
"""

from __future__ import annotations

from .maslov import CoherenceTable
from .scheme_core import SchemeInstance

__all__ = ["CoverGraph"]


class CoverGraph:
    """Double cover on 2 * prod(q^i + 1) signed vertices, read off the
    signed distances sigma * d of its base generators."""

    def __init__(self, table: CoherenceTable):
        self.table = table
        self.space = table.space
        self.n = self.space.n
        self.num_vertices = 2 * len(self.space.generator_arrays()[0])

    def relation_matrix_index(self):
        """num_vertices^2 array of relation indices (numpy int8), the
        expansion of ``SchemeInstance.from_cover``."""
        return SchemeInstance.from_cover(self).relation_matrix()
