"""The signed double cover: adjacency, lifts, relations, antipodality."""

from fractions import Fraction

import numpy as np
import pytest

from cover_oracles import (
    SignedVertex,
    adjacency,
    adjacency_lists,
    adjacent,
    antipodal_by_paths,
    bfs_distances,
    count_paths3,
    fiber_block_adjacency,
    lift_geodesic,
    neighbors,
    pair_data,
    relation_index,
    relation_index_matrix,
)
from linalg_oracles import mat_charpoly
from polarcover.exact_algebra import gauss
from polarcover.scheme_core import class_distances, verify_scheme
from poly_oracles import poly_mul
from symplectic_oracles import triple_sign


class TestSignedVertex:
    def test_vid_roundtrip(self):
        for vid in range(40):
            v = SignedVertex.from_vid(vid)
            assert v.vid == vid
            assert v.sign in (1, -1)
        assert SignedVertex(3, 1).vid == 6
        assert SignedVertex(3, -1).vid == 7

    def test_antipode(self):
        v = SignedVertex(7, 1)
        assert v.antipode() == SignedVertex(7, -1)
        assert v.antipode().antipode() == v


class TestCoveringProperty:
    @pytest.mark.parametrize("bundle", ["q5n1", "q5n2", "q9n1"])
    def test_vertex_count_and_degree(self, bundle, request):
        cover = request.getfixturevalue(bundle)["cover"]
        space = cover.space
        q, n = space.spec.q, space.n
        assert cover.num_vertices == 2 * len(space.generator_arrays()[0])
        deg = q * int(gauss(n, 1, q))
        for vid in range(10):
            assert len(neighbors(cover, SignedVertex.from_vid(vid))) == deg

    def test_neighbors_project_bijectively(self, q5n2):
        # Exactly one lift of each base neighbor, and the two lifts of a
        # base vertex have disjoint neighborhoods covering both fibers.
        cover = q5n2["cover"]
        for gen in (0, 17, 100):
            up = SignedVertex(gen, 1)
            down = SignedVertex(gen, -1)
            nu = neighbors(cover, up)
            nd = neighbors(cover, down)
            assert len({w.gen for w in nu}) == len(nu)
            assert {w.vid for w in nu}.isdisjoint({w.vid for w in nd})
            assert {w.gen for w in nu} == {w.gen for w in nd}

    def test_adjacency_matrix_symmetric_regular(self, q5n2):
        A = adjacency(q5n2["cover"])
        assert (A == A.T).all()
        assert (A.sum(axis=1) == 30).all()
        assert (np.diag(A) == 0).all()

    def test_no_edge_within_fiber(self, q5n2):
        cover = q5n2["cover"]
        for gen in range(0, 156, 13):
            assert not adjacent(cover, SignedVertex(gen, 1), SignedVertex(gen, -1))

    def test_adjacency_is_relation_one(self, q5n2):
        # Relation 1 of the index is exactly the fiber-block rule
        # d(X, Y) = 1 with sigma(X, Y) = sx * sy: a disagreeing pair would
        # need 2n+1-k = 1, that is k = 2n > n.
        A = adjacency(q5n2["cover"])
        assert (A == fiber_block_adjacency(q5n2["cover"])).all()
        assert (A == A.T).all()


class TestDiameter:
    @pytest.mark.parametrize("bundle,want", [("q5n1", 3), ("q9n1", 3),
                                             ("q13n1", 3), ("q5n2", 3)])
    def test_diameter(self, bundle, want, request):
        data = request.getfixturevalue(bundle)
        cover = data["cover"]
        dist = class_distances(verify_scheme(data["instance"]))
        assert max(dist) == want
        assert want == max(cover.n + 1, 3)
        # Every pair's BFS distance on R == 1 is the distance of its class.
        R = cover.relation_matrix_index()
        adj = adjacency_lists(R == 1)
        by_class = np.array(dist)
        for u in range(cover.num_vertices):
            assert bfs_distances(adj, u) == by_class[R[u]].tolist()

    def test_antipode_at_full_distance(self, q5n1, q5n2):
        for bundle in (q5n1, q5n2):
            cover = bundle["cover"]
            u = SignedVertex(0, 1)
            dist = bfs_distances(adjacency_lists(adjacency(cover)), u.vid)
            assert dist[u.antipode().vid] == max(cover.n + 1, 3)


class TestSpectrum:
    def test_icosahedron_exact_charpoly(self, q5n1):
        # q=5, n=1 gives the icosahedron; its adjacency spectrum is
        # 5^1, sqrt(5)^3, (-sqrt(5))^3, (-1)^5.
        A = adjacency(q5n1["cover"])
        coeffs = mat_charpoly([[Fraction(int(x)) for x in row] for row in A])
        assert coeffs == poly_mul([-5, 1], *[[1, 1]] * 5, *[[-5, 0, 1]] * 3)

    def test_icosahedron_is_icosahedron(self, q5n1):
        A = adjacency(q5n1["cover"])
        assert A.shape == (12, 12)
        assert (A.sum(axis=1) == 5).all()
        # Each edge lies in exactly 2 triangles, the icosahedral signature.
        A2 = A @ A
        assert (A2[A == 1] == 2).all()


class TestRelations:
    def test_relation_index_examples(self, q5n2):
        cover = q5n2["cover"]
        D, S = pair_data(cover)
        x = 0
        y = int(np.flatnonzero(D[x] == 1)[0])
        s = int(S[x, y])
        u = SignedVertex(x, 1)
        assert relation_index(cover, u, u) == 0
        assert relation_index(cover, u, u.antipode()) == 5
        v_match = SignedVertex(y, s)
        v_flip = SignedVertex(y, -s)
        assert relation_index(cover, u, v_match) == 1
        assert relation_index(cover, u, v_flip) == 2 * cover.n   # = 4

    def test_relation_matrix_agrees_with_pointwise(self, q5n2):
        cover = q5n2["cover"]
        R = cover.relation_matrix_index()
        assert (R == relation_index_matrix(cover)).all()
        assert (R == R.T).all()

    def test_relation_row_profile(self, q5n2):
        # Relation k and its antipodal mirror 2n+1-k both have the base
        # distance-k count; all rows share one profile.
        cover = q5n2["cover"]
        R = cover.relation_matrix_index()
        prof = {k: int((R[0] == k).sum()) for k in range(6)}
        assert prof == {0: 1, 1: 30, 2: 125, 3: 125, 4: 30, 5: 1}
        for row in R:
            assert {k: int((row == k).sum()) for k in range(6)} == prof


class TestLifts:
    def test_lift_geodesic_sign_law(self, q5n2):
        cover = q5n2["cover"]
        D, S = pair_data(cover)
        x = 0
        # build a geodesic x - y - z with d(x, z) = 2
        y = int(np.flatnonzero(D[x] == 1)[0])
        z = int(np.flatnonzero((D[x] == 2) & (D[y] == 1))[0])
        lift = lift_geodesic(cover, [x, y, z], 1)
        assert [v.gen for v in lift] == [x, y, z]
        assert lift[1].sign == S[x, y]
        assert lift[2].sign == lift[1].sign * S[y, z]
        # consecutive lifted vertices really are cover edges
        for a, b in zip(lift, lift[1:]):
            assert adjacent(cover, a, b)
        # and the end sign matches sigma of the endpoints (distance 2 pair,
        # geodesics preserve coherence)
        assert lift[2].sign == S[x, z]

    def test_lift_rejects_non_geodesic(self, q5n2):
        cover = q5n2["cover"]
        D = cover.space.distance_matrix()
        y = int(np.flatnonzero(D[0] == 1)[0])
        with pytest.raises(ValueError):
            lift_geodesic(cover, [0, y, 0], 1)

    def test_coherent_triangle_lifts_to_two_triangles(self, q5n1):
        # A coherent base triangle lifts to two disjoint triangles; a
        # non-coherent one lifts to a single 6-cycle.
        cover = q5n1["cover"]
        D, S = pair_data(cover)
        m = len(D)
        found = {1: 0, -1: 0}
        for x in range(m):
            for y in range(x + 1, m):
                if D[x, y] != 1:
                    continue
                for z in range(y + 1, m):
                    if D[x, z] != 1 or D[y, z] != 1:
                        continue
                    s = triple_sign(S, x, y, z)
                    u = SignedVertex(x, 1)
                    v = SignedVertex(y, int(S[x, y]))
                    w = SignedVertex(z, int(S[x, z]))
                    assert adjacent(cover, u, v) and adjacent(cover, u, w)
                    # closing edge exists iff the triangle is coherent
                    assert adjacent(cover, v, w) == (s == 1)
                    if s == -1:
                        assert adjacent(cover, v, w.antipode())
                    found[s] += 1
        assert found[1] > 0 and found[-1] > 0


class TestAntipodality:
    def test_path_counts_icosahedron(self, q5n1):
        cover = q5n1["cover"]
        u = SignedVertex(0, 1)
        # antipodal pair: 10 = q(q^n - 1)/2 shortest length-3 paths
        assert count_paths3(cover, u, u.antipode()) == 10
        assert antipodal_by_paths(cover, u, u.antipode())

    def test_metric_detection_matches_relation(self, q5n1, q9n1):
        for bundle in (q5n1, q9n1):
            cover = bundle["cover"]
            d = 2 * cover.n + 1
            for vid in range(0, cover.num_vertices, 3):
                u = SignedVertex.from_vid(vid)
                for wid in range(cover.num_vertices):
                    v = SignedVertex.from_vid(wid)
                    want = relation_index(cover, u, v) == d
                    assert antipodal_by_paths(cover, u, v) == want
