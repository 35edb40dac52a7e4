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

The cover also carries a group.  A symplectic g (g J g^T = J, acting on
row vectors from the right) maps each generator X to X g, and
``group_action`` reads off the permutation pi_g of the enumeration indices
and the switch f_g(X) = chi(product of the pivots that bring X g to RREF).
With bases x, y of X, Y as in ``maslov``, x g and y g are bases of X g and
Y g with a common tail and the same Gram matrix, and their coordinates on
the RREF bases are those of x and y times L^-1, L the elimination of X g
(or Y g); chi(det L) is chi of the pivot product, the row swaps only
changing its sign and chi(-1) = 1.  So d is kept and
sigma(X g, Y g) = f_g(X) f_g(Y) sigma(X, Y): the lift
(X, e) -> (X g, f_g(X) e) keeps every relation.  Nothing rests on this
argument: ``verify_scheme`` checks the resulting law on every pair.
"""

from __future__ import annotations

import numpy as np

from .maslov import CoherenceTable
from .scheme_core import SchemeInstance
from .symplectic import PAIR_CHUNK, _times_j, eliminate_batch, gram_batch

__all__ = ["CoverGraph", "root_elements", "group_action"]


def root_elements(spec, n):
    """2n root elements x_(+-alpha)(c) of Sp(2n, q), alpha over the simple
    roots of C_n (Steinberg, *Lectures on Chevalley Groups*, §3), as int16
    (2n, 2n) code matrices in the basis e_1..e_n, f_1..f_n.

    At the positive roots c = 1: I + c E_(i,i+1) on the e-block with
    -c E_(i+1,i) on the f-block for the short roots (i < n - 1), and
    [[I, c E_nn], [0, I]] for the long root.  The negative roots take the
    transposes, with c = p, the code of the field generator x, when q = p^e
    with e > 1, and c = 1 otherwise.
    """
    out = []
    for c, transpose in ((1, False), (spec.p if spec.e > 1 else 1, True)):
        for i in range(n):
            g = np.eye(2 * n, dtype=np.int16)
            if i < n - 1:
                g[i, i + 1] = c
                g[n + i + 1, n + i] = spec.neg(c)
            else:
                g[n - 1, 2 * n - 1] = c
            out.append(g.T.copy() if transpose else g)
    return out


def group_action(space, elements):
    """(pi, f), two (len(elements), m) arrays: generator x goes to pi[g, x]
    under element g, and f[g, x] = chi(pivot product) is its switch.

    Each element is checked symplectic, g J g^T = J.  The images X g of the
    code stack are formed and brought to RREF by one batched elimination,
    in chunks of PAIR_CHUNK bases, and looked up by one ``searchsorted`` of
    their base-q keys among those of the generators, which are sorted.  A key of 2n^2
    base-q digits fits int64 up to q^(2n^2) = 2^63, far past every
    instance whose m x m pair matrix fits in memory.
    """
    t, n = space.spec, space.n
    codes = space.generator_arrays()[0]
    m, size = len(codes), 2 * n * n
    if t.q ** size > 2**63:
        raise OverflowError(f"base-{t.q} keys of {size} digits exceed int64")
    g = np.asarray(elements, dtype=np.int16).reshape(-1, 2 * n, 2 * n)
    J = _times_j(t, np.eye(2 * n, dtype=np.int16), n)
    if (bad := np.flatnonzero((gram_batch(t, _times_j(t, g, n), g) != J).any(axis=(1, 2)))).size:
        raise ValueError(f"element {bad[0]} is not symplectic: g J g^T != J")
    # Lane l is generator l % m under element l // m: X g is the Gram
    # product of X with g^T, brought to RREF in place.
    images = np.empty((len(g) * m, n, 2 * n), dtype=np.int16)
    f = np.empty(len(images), dtype=np.int8)
    for start in range(0, len(images), PAIR_CHUNK):
        lane = np.arange(start, min(start + PAIR_CHUNK, len(images)))
        block = gram_batch(t, codes[lane % m], g.swapaxes(1, 2)[lane // m])
        f[lane] = t.chi(eliminate_batch(t, block)[2])
        images[lane] = block
    weights = t.q ** np.arange(size - 1, -1, -1, dtype=np.int64)
    keys = codes.reshape(m, size) @ weights
    wanted = images.reshape(-1, size) @ weights
    pi = np.minimum(np.searchsorted(keys, wanted), m - 1)
    if (miss := np.flatnonzero(keys[pi] != wanted)).size:
        g, x = divmod(int(miss[0]), m)
        raise AssertionError(f"element {g} maps generator {x} to no generator")
    return pi.reshape(-1, m), f.reshape(-1, m)


class CoverGraph:
    """Double cover on 2 * prod(q^i + 1) signed vertices, read off the
    signed distances sigma * d of its base generators."""

    def __init__(self, table: CoherenceTable):
        self.table = table
        self.space = table.space
        self.n = self.space.n
        self.num_vertices = 2 * len(self.space.generator_arrays()[0])
        self._action = None

    def root_action(self):
        """(pi, f) of ``root_elements`` (``group_action``), computed once."""
        if self._action is None:
            self._action = group_action(self.space, root_elements(self.space.spec, self.n))
        return self._action

    def relation_matrix_index(self):
        """num_vertices^2 array of relation indices (numpy int8), the
        expansion of ``SchemeInstance.from_cover``."""
        return SchemeInstance.from_cover(self).relation_matrix()
