"""The signed double cover: adjacency, lifts, relations, antipodality."""

import random
from fractions import Fraction

import numpy as np
import pytest

from polarcover.cover import CoverGraph, SignedVertex
from polarcover.exact_algebra import GaussianContext, Polynomial, gauss, mat_charpoly


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
        assert cover.num_vertices == 2 * len(space.generators())
        deg = q * int(gauss(n, 1, GaussianContext(q)))
        for v in cover.vertices()[:10]:
            assert len(cover.neighbors(v)) == deg

    def test_neighbors_project_bijectively(self, q5n2):
        # Exactly one lift of each base neighbor, and the two lifts of a
        # base vertex have disjoint neighborhoods covering both fibers.
        cover = q5n2["cover"]
        for gen in (0, 17, 100):
            up = SignedVertex(gen, 1)
            down = SignedVertex(gen, -1)
            nu = cover.neighbors(up)
            nd = cover.neighbors(down)
            assert len({w.gen for w in nu}) == len(nu)
            assert {w.vid for w in nu}.isdisjoint({w.vid for w in nd})
            assert {w.gen for w in nu} == {w.gen for w in nd}

    def test_adjacency_matrix_symmetric_regular(self, q5n2):
        A = q5n2["cover"].adjacency_matrix()
        assert (A == A.T).all()
        assert (A.sum(axis=1) == 30).all()
        assert (np.diag(A) == 0).all()

    def test_no_edge_within_fiber(self, q5n2):
        cover = q5n2["cover"]
        for gen in range(0, 156, 13):
            assert not cover.adjacent(SignedVertex(gen, 1), SignedVertex(gen, -1))


class TestDiameter:
    @pytest.mark.parametrize("bundle,want", [("q5n1", 3), ("q9n1", 3),
                                             ("q13n1", 3), ("q5n2", 3)])
    def test_diameter(self, bundle, want, request):
        cover = request.getfixturevalue(bundle)["cover"]
        assert cover.diameter() == want
        assert want == max(cover.n + 1, 3)

    def test_antipode_at_full_distance(self, q5n1, q5n2):
        for bundle in (q5n1, q5n2):
            cover = bundle["cover"]
            u = SignedVertex(0, 1)
            assert cover.bfs_distance(u, u.antipode()) == max(cover.n + 1, 3)


class TestSpectrum:
    def test_icosahedron_exact_charpoly(self, q5n1):
        # q=5, n=1 gives the icosahedron; its adjacency spectrum is
        # 5^1, sqrt(5)^3, (-sqrt(5))^3, (-1)^5.
        A = q5n1["cover"].adjacency_matrix()
        coeffs = mat_charpoly([[Fraction(int(x)) for x in row] for row in A])
        x = Polynomial([0, 1], 5)
        const = lambda c: Polynomial([c], 5)
        want = x - const(5)
        for factor, mult in ((x + const(1), 5), (x * x - const(5), 3)):
            for _ in range(mult):
                want = want * factor
        assert Polynomial(coeffs, 5) == want

    def test_icosahedron_is_icosahedron(self, q5n1):
        A = q5n1["cover"].adjacency_matrix()
        assert A.shape == (12, 12)
        assert (A.sum(axis=1) == 5).all()
        # Each edge lies in exactly 2 triangles, the icosahedral signature.
        A2 = A @ A
        assert (A2[A == 1] == 2).all()


class TestRelations:
    def test_relation_index_examples(self, q5n2):
        cover = q5n2["cover"]
        space = cover.space
        gens = space.generators()
        D = space.distance_matrix()
        x = 0
        y = int(np.flatnonzero(D[x] == 1)[0])
        s = cover.table.sigma(gens[x], gens[y])
        u = SignedVertex(x, 1)
        assert cover.relation_index(u, u) == 0
        assert cover.relation_index(u, u.antipode()) == 5
        v_match = SignedVertex(y, s)
        v_flip = SignedVertex(y, -s)
        assert cover.relation_index(u, v_match) == 1
        assert cover.relation_index(u, v_flip) == 2 * cover.n   # = 4

    def test_relation_matrix_agrees_with_pointwise(self, q5n2):
        cover = q5n2["cover"]
        R = cover.relation_matrix_index()
        rng = random.Random(6)
        for _ in range(300):
            a, b = rng.randrange(312), rng.randrange(312)
            u, v = SignedVertex.from_vid(a), SignedVertex.from_vid(b)
            assert int(R[a, b]) == cover.relation_index(u, v)
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
        space = cover.space
        gens = space.generators()
        D = space.distance_matrix()
        x = 0
        # build a geodesic x - y - z with d(x, z) = 2
        y = int(np.flatnonzero(D[x] == 1)[0])
        z = int(np.flatnonzero((D[x] == 2) & (D[y] == 1))[0])
        path = [gens[x], gens[y], gens[z]]
        lift = cover.lift_geodesic(path, 1)
        assert [v.gen for v in lift] == [x, y, z]
        assert lift[1].sign == cover.table.sigma(gens[x], gens[y])
        assert lift[2].sign == (lift[1].sign
                                * cover.table.sigma(gens[y], gens[z]))
        # consecutive lifted vertices really are cover edges
        for a, b in zip(lift, lift[1:]):
            assert cover.adjacent(a, b)
        # and the end sign matches sigma of the endpoints (distance 2 pair,
        # geodesics preserve coherence)
        assert lift[2].sign == cover.table.sigma(gens[x], gens[z])

    def test_lift_rejects_non_geodesic(self, q5n2):
        cover = q5n2["cover"]
        space = cover.space
        gens = space.generators()
        D = space.distance_matrix()
        y = int(np.flatnonzero(D[0] == 1)[0])
        with pytest.raises(ValueError):
            cover.lift_geodesic([gens[0], gens[y], gens[0]], 1)

    def test_coherent_triangle_lifts_to_two_triangles(self, q5n1):
        # A coherent base triangle lifts to two disjoint triangles; a
        # non-coherent one lifts to a single 6-cycle.
        cover = q5n1["cover"]
        space = cover.space
        table = cover.table
        gens = space.generators()
        D = space.distance_matrix()
        from polarcover.maslov import sigma_triple

        found = {1: 0, -1: 0}
        for x in range(len(gens)):
            for y in range(x + 1, len(gens)):
                if D[x, y] != 1:
                    continue
                for z in range(y + 1, len(gens)):
                    if D[x, z] != 1 or D[y, z] != 1:
                        continue
                    s = sigma_triple(table, gens[x], gens[y], gens[z])
                    u = SignedVertex(x, 1)
                    v = SignedVertex(y, table.sigma(gens[x], gens[y]))
                    w = SignedVertex(z, table.sigma(gens[x], gens[z]))
                    assert cover.adjacent(u, v) and cover.adjacent(u, w)
                    # closing edge exists iff the triangle is coherent
                    assert cover.adjacent(v, w) == (s == 1)
                    if s == -1:
                        assert cover.adjacent(v, w.antipode())
                    found[s] += 1
        assert found[1] > 0 and found[-1] > 0


class TestAntipodality:
    def test_path_counts_icosahedron(self, q5n1):
        cover = q5n1["cover"]
        u = SignedVertex(0, 1)
        # antipodal pair: 10 = q(q^n - 1)/2 shortest length-3 paths
        assert cover.count_paths3(u, u.antipode()) == 10
        assert cover.antipodal_by_paths(u, u.antipode())

    def test_metric_detection_matches_relation(self, q5n1, q9n1):
        for bundle in (q5n1, q9n1):
            cover = bundle["cover"]
            d = 2 * cover.n + 1
            for vid in range(0, cover.num_vertices, 3):
                u = SignedVertex.from_vid(vid)
                for wid in range(cover.num_vertices):
                    v = SignedVertex.from_vid(wid)
                    want = cover.relation_index(u, v) == d
                    assert cover.antipodal_by_paths(u, v) == want

    def test_export_shape(self, q5n1):
        data = q5n1["cover"].export()
        assert data["vertex_count"] == 12
        assert data["degree"] == 5
        assert len(data["edges"]) == 30
        assert all(a < b for a, b in data["edges"])
