"""The double cover of the dual polar graph and its pair relations.

Signed vertices are pairs (generator, sign).  Adjacency is
(X, e) ~ (Y, e') iff d(X, Y) = 1 and e e' = sigma(X, Y).  Vertex ids are
2*gen + (0 if sign = +1 else 1), so a fiber occupies two consecutive ids
and the antipode of a vertex is its id with the low bit flipped.

Ordered pairs fall into 2n+2 relations: index k when the signs agree with
sigma at distance k, and 2n+1-k when they disagree; index 0 is the identity
and 2n+1 the antipodality relation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .maslov import CoherenceTable

__all__ = ["SignedVertex", "CoverGraph"]


@dataclass(frozen=True)
class SignedVertex:
    gen: int    # generator id
    sign: int   # +1 or -1

    @property
    def vid(self):
        return 2 * self.gen + (0 if self.sign == 1 else 1)

    @staticmethod
    def from_vid(vid):
        return SignedVertex(vid // 2, 1 if vid % 2 == 0 else -1)

    def antipode(self):
        return SignedVertex(self.gen, -self.sign)


class CoverGraph:
    """Double cover on 2 * prod(q^i + 1) signed vertices."""

    def __init__(self, table: CoherenceTable):
        self.table = table
        self.space = table.space
        self.n = self.space.n
        self.num_vertices = 2 * len(self.space.generators())

    def vertices(self):
        return [SignedVertex.from_vid(v) for v in range(self.num_vertices)]

    def relation_index(self, u: SignedVertex, v: SignedVertex) -> int:
        if u.gen == v.gen:
            return 0 if u.sign == v.sign else 2 * self.n + 1
        k = int(self.space.distance_matrix()[u.gen, v.gen])
        if u.sign * v.sign == self.table.sigma_matrix()[u.gen, v.gen]:
            return k
        return 2 * self.n + 1 - k

    def adjacent(self, u: SignedVertex, v: SignedVertex) -> bool:
        return self.relation_index(u, v) == 1

    def neighbors(self, u: SignedVertex):
        js = np.flatnonzero(self.space.distance_matrix()[u.gen] == 1)
        signs = u.sign * self.table.sigma_matrix()[u.gen, js]
        return [SignedVertex(j, s) for j, s in zip(js.tolist(), signs.tolist())]

    def adjacency_matrix(self):
        """Dense 0/1 adjacency over the signed-vertex ids (numpy int64).

        Fiber block (sx, sy) is d(X, Y) = 1 with sigma(X, Y) = sx * sy.
        """
        edge = self.space.distance_matrix() == 1
        S = self.table.sigma_matrix()
        A = np.zeros((self.num_vertices, self.num_vertices), dtype=np.int64)
        for x, sx in enumerate((1, -1)):
            for y, sy in enumerate((1, -1)):
                A[x::2, y::2] = edge & (S == sx * sy)
        if not (A == A.T).all():
            raise AssertionError("cover adjacency not symmetric")
        return A

    def relation_matrix_index(self):
        """num_vertices^2 array of relation indices (numpy int8)."""
        D = self.space.distance_matrix()
        m = len(self.space.generators())
        S = self.table.sigma_matrix()  # 0 diagonal
        n = self.n
        R = np.zeros((2 * m, 2 * m), dtype=np.int8)
        signs = np.array([1, -1], dtype=np.int8)
        # Block over fibers: pair of signed vertices (x, sx), (y, sy).
        for sx in (0, 1):
            for sy in (0, 1):
                eps = signs[sx] * signs[sy]
                agree = S == eps          # sign product matches sigma
                block = np.where(agree, D, 2 * n + 1 - D)
                # same-generator pairs: identity or antipodality
                diag_val = 0 if eps == 1 else 2 * n + 1
                block = block.copy()
                np.fill_diagonal(block, diag_val)
                R[sx::2, sy::2] = block
        return R

    def bfs_distance(self, u: SignedVertex, v: SignedVertex) -> int:
        seen = {u.vid: 0}
        q = deque([u])
        while q:
            cur = q.popleft()
            if cur.vid == v.vid:
                return seen[cur.vid]
            for w in self.neighbors(cur):
                if w.vid not in seen:
                    seen[w.vid] = seen[cur.vid] + 1
                    q.append(w)
        raise ValueError("cover graph is disconnected")

    def diameter(self) -> int:
        A = self.adjacency_matrix()
        m = A.shape[0]
        dist = np.full((m, m), -1, dtype=np.int64)
        np.fill_diagonal(dist, 0)
        reach = np.eye(m, dtype=bool)
        power = np.eye(m, dtype=np.int64)
        d = 0
        while not reach.all():
            d += 1
            power = power @ A
            newly = (power > 0) & ~reach
            dist[newly] = d
            reach |= newly
            if d > m:
                raise ValueError("cover graph is disconnected")
        return int(dist.max())

    def lift_geodesic(self, path, start_sign):
        """Unique lift of a base-graph geodesic starting at given sign."""
        space = self.space
        D = space.distance_matrix()
        ids = [g.id for g in path]
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                if int(D[ids[i], ids[j]]) != j - i:
                    raise ValueError("input path is not a geodesic")
        out = [SignedVertex(ids[0], start_sign)]
        for a, b in zip(path, path[1:]):
            out.append(SignedVertex(b.id, out[-1].sign * self.table.sigma(a, b)))
        return out

    def count_paths3(self, u: SignedVertex, v: SignedVertex) -> int:
        """Number of length-3 walks from u to v that are paths."""
        count = 0
        for w1 in self.neighbors(u):
            if w1.vid == v.vid:
                continue
            for w2 in self.neighbors(w1):
                if w2.vid in (u.vid, v.vid):
                    continue
                if self.adjacent(w2, v):
                    count += 1
        return count

    def antipodal_by_paths(self, u: SignedVertex, v: SignedVertex) -> bool:
        """Antipodality detected from metric data alone.

        True iff the cover distance is 3 and the number of length-3 paths
        equals q(q^n - 1)/2, the count characterizing antipodal pairs.
        """
        if u.vid == v.vid:
            return False
        if self.bfs_distance(u, v) != 3:
            return False
        q, n = self.space.spec.q, self.n
        return self.count_paths3(u, v) == q * (q**n - 1) // 2

    def edge_list(self):
        out = []
        for vid in range(self.num_vertices):
            u = SignedVertex.from_vid(vid)
            for w in self.neighbors(u):
                if w.vid > vid:
                    out.append((vid, w.vid))
        return out

    def export(self):
        return {
            "q": self.space.spec.q,
            "n": self.n,
            "vertex_count": self.num_vertices,
            "degree": len(self.neighbors(SignedVertex(0, 1))),
            "edges": self.edge_list(),
        }
