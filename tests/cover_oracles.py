"""Reference functions for the double cover, one vertex or one pair at a time.

The cover has (X, e) ~ (Y, e') iff d(X, Y) = 1 and e e' = sigma(X, Y).
The functions here read that rule, and the relation index, straight off the
base pair data (the distance matrix D and the sign matrix S), or walk the
cover's relation 1, so they stay independent of the N x N builder
``CoverGraph.relation_matrix_index`` and of the distances that
``scheme_core.class_distances`` reads off the intersection tensor.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SignedVertex:
    """The cover vertex (gen, sign), with id 2*gen + (0 if sign = +1 else 1)."""

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


def pair_data(cover):
    return cover.space.distance_matrix(), cover.table.sigma_matrix()


def adjacency(cover):
    """The cover's 0/1 adjacency (int64): relation 1 of its relation index."""
    return (cover.relation_matrix_index() == 1).astype(np.int64)


def fiber_block_adjacency(cover):
    """The 0/1 adjacency by fiber blocks: block (sx, sy) of the signed-vertex
    ids is d(X, Y) = 1 with sigma(X, Y) = sx * sy."""
    D, S = pair_data(cover)
    A = np.zeros((cover.num_vertices,) * 2, dtype=np.int64)
    for x, sx in enumerate((1, -1)):
        for y, sy in enumerate((1, -1)):
            A[x::2, y::2] = (D == 1) & (S == sx * sy)
    return A


def _relation(D, S, n, u, v):
    """``relation_index`` on the pair data (D, S) of a cover of rank n."""
    if u.gen == v.gen:
        return 0 if u.sign == v.sign else 2 * n + 1
    k, s = int(D[u.gen, v.gen]), int(S[u.gen, v.gen])
    if s not in (1, -1):
        return -1
    return k if u.sign * v.sign == s else 2 * n + 1 - k


def _neighbors(D, S, u):
    """``neighbors`` on the pair data (D, S) of a cover."""
    js = np.flatnonzero(D[u.gen] == 1)
    signs = u.sign * S[u.gen, js]
    return [SignedVertex(j, s) for j, s in zip(js.tolist(), signs.tolist())]


def relation_index(cover, u: SignedVertex, v: SignedVertex) -> int:
    """The relation of (u, v); a pair whose sign is neither +1 nor -1 is in
    the out-of-range relation -1."""
    return _relation(*pair_data(cover), cover.n, u, v)


def relation_index_matrix(cover):
    """The N x N relation index, the ``relation_index`` rule per ordered
    pair on pair data read once."""
    D, S = pair_data(cover)
    vertices = [SignedVertex.from_vid(v) for v in range(cover.num_vertices)]
    return np.array([[_relation(D, S, cover.n, u, v) for v in vertices]
                     for u in vertices], dtype=np.int8)


def adjacent(cover, u: SignedVertex, v: SignedVertex) -> bool:
    return relation_index(cover, u, v) == 1


def neighbors(cover, u: SignedVertex):
    return _neighbors(*pair_data(cover), u)


def adjacency_lists(A):
    """Neighbour ids of each vertex of the 0/1 (or boolean) matrix A."""
    return [np.flatnonzero(row).tolist() for row in A]


def bfs_distances(adj, source):
    """Distances from vertex ``source`` over the adjacency lists ``adj``."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        for w in adj[cur]:
            if dist[w] < 0:
                dist[w] = dist[cur] + 1
                queue.append(w)
    if -1 in dist:
        raise ValueError("cover graph is disconnected")
    return dist


def graph_distances(A):
    """All-pairs distances of the 0/1 int matrix A, from its powers."""
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
    return dist


def count_paths3(cover, u: SignedVertex, v: SignedVertex) -> int:
    """Number of length-3 walks from u to v that are paths."""
    D, S = pair_data(cover)
    count = 0
    for w1 in _neighbors(D, S, u):
        if w1.vid == v.vid:
            continue
        for w2 in _neighbors(D, S, w1):
            if w2.vid in (u.vid, v.vid):
                continue
            if _relation(D, S, cover.n, w2, v) == 1:
                count += 1
    return count


def antipodal_by_paths(cover, u: SignedVertex, v: SignedVertex) -> bool:
    """Antipodality detected from metric data alone.

    True iff the cover distance is 3 and the number of length-3 paths
    equals q(q^n - 1)/2, the count characterizing antipodal pairs.
    """
    if u.vid == v.vid:
        return False
    adj = adjacency_lists(adjacency(cover))
    if bfs_distances(adj, u.vid)[v.vid] != 3:
        return False
    q, n = cover.space.spec.q, cover.n
    return count_paths3(cover, u, v) == q * (q**n - 1) // 2


def lift_geodesic(cover, path, start_sign):
    """Unique lift of a base-graph geodesic, a list of generator indices,
    starting at given sign."""
    D, S = pair_data(cover)
    for i in range(len(path)):
        for j in range(i + 1, len(path)):
            if int(D[path[i], path[j]]) != j - i:
                raise ValueError("input path is not a geodesic")
    out = [SignedVertex(path[0], start_sign)]
    for a, b in zip(path, path[1:]):
        out.append(SignedVertex(b, out[-1].sign * int(S[a, b])))
    return out
