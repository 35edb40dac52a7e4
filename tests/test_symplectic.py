"""Symplectic space, generator enumeration, dual polar graph metrics."""

import numpy as np
import pytest

from field_oracles import reference
from linalg_oracles import gauss_jordan
from polarcover.finite_field import construct_field
from polarcover.symplectic import SymplecticSpace, distance_profile, enumerate_generators
from scheme_oracles import DRGReport, verify_drg_parameters
from symplectic_oracles import (
    bases,
    bform,
    generator_image,
    nonsquare_similarity,
    pair_oracle,
    sp_sample_elements,
    verify_similarity,
)


def predicted(q, n):
    out = 1
    for i in range(1, n + 1):
        out *= q**i + 1
    return out


class TestEnumeration:
    @pytest.mark.parametrize("p,e,n", [(5, 1, 1), (5, 1, 2), (3, 2, 1), (13, 1, 1)])
    def test_generator_count(self, p, e, n):
        space = SymplecticSpace(construct_field(p, e), n)
        assert len(space.generator_arrays()[0]) == predicted(p**e, n)

    def test_generators_are_maximal_isotropic(self, q5n2):
        space = q5n2["space"]
        f = reference(space.spec)
        for basis in bases(space):
            assert len(gauss_jordan([list(row) for row in basis], space.dim, f)[0]) == space.n
            assert all(bform(space, u, v) == 0 for u in basis for v in basis)

    def test_enumeration_is_sorted_and_stable(self, q5n1):
        space = q5n1["space"]
        found = bases(space)
        assert found == sorted(found) and len(set(found)) == len(found)
        again = enumerate_generators(space)
        assert [tuple(map(tuple, basis)) for basis in again.tolist()] == found

    def test_bform_alternating(self, q5n2):
        space = q5n2["space"]
        import random

        rng = random.Random(3)
        for _ in range(100):
            u = tuple(rng.randrange(5) for _ in range(4))
            v = tuple(rng.randrange(5) for _ in range(4))
            assert bform(space, u, u) == 0
            assert bform(space, u, v) == reference(space.spec).neg(bform(space, v, u))


class TestMetrics:
    def test_distance_profile_q5n2(self, q5n2):
        space = q5n2["space"]
        profile = distance_profile(space, 0)
        assert profile == {0: 1, 1: 30, 2: 125}

    def test_distance_profile_counts(self):
        # At distance k there are q^C(k+1,2) [n choose k]_q generators.
        def gaussian_binomial(n, k, q):
            num = den = 1
            for i in range(k):
                num *= q**(n - i) - 1
                den *= q**(i + 1) - 1
            return num // den

        for p, e, n in [(5, 1, 1), (3, 2, 1), (5, 1, 2), (3, 2, 2), (13, 1, 2),
                        (5, 2, 1), (5, 1, 3)]:
            space = SymplecticSpace(construct_field(p, e), n)
            q = p**e
            want = {k: q**(k * (k + 1) // 2) * gaussian_binomial(n, k, q)
                    for k in range(n + 1)}
            m = predicted(q, n)
            for x in (0, m // 2, m - 1):
                assert distance_profile(space, x) == want, (q, n, x)
        assert want == {0: 1, 1: 155, 2: 3875, 3: 15625}      # q = 5, n = 3

    def test_distance_symmetric_and_metric(self, q5n2):
        space = q5n2["space"]
        found = bases(space)
        D = space.distance_matrix()
        assert (D == D.T).all()
        assert pair_oracle(space, found[0], found[17])[0] == int(D[0, 17])

    def test_intersection_dimension(self, q5n2):
        # dim(X meet Y) = 2n - dim(X + Y) = n - d(X, Y), with dim(X + Y) the
        # rank of the stacked bases.
        space = q5n2["space"]
        found = bases(space)
        D = space.distance_matrix()
        for y, Y in enumerate(found[:20]):
            stacked = [list(row) for row in found[0] + Y]
            rank = len(gauss_jordan(stacked, space.dim, reference(space.spec))[0])
            assert 2 * space.n - rank == space.n - D[0, y]

    @pytest.mark.parametrize("bundle", ["q5n1", "q5n2", "q9n1"])
    def test_drg_parameters(self, bundle, request):
        space = request.getfixturevalue(bundle)["space"]
        q, n = space.spec.q, space.n
        report = verify_drg_parameters(space)
        assert report.ok, report.failure
        from polarcover.closed_form import drg_abc

        for k, (c, a, b) in report.parameters.items():
            ak, bk, ck = drg_abc(n, q, k)
            assert (c, a, b) == (int(ck) if k else 0, int(ak), int(bk))

    def test_drg_rejects_perturbed_distance(self, monkeypatch):
        space = SymplecticSpace(construct_field(5, 1), 2)
        D = space.distance_matrix().copy()
        x, y = map(int, np.argwhere(D == 1)[0])
        D[x, y] = D[y, x] = 2
        monkeypatch.setattr(space, "distance_matrix", lambda: D)
        report = verify_drg_parameters(space)
        assert not report.ok
        assert report.parameters == {}


class CayleyStub:
    """A diameter-2 graph in the place of a space: ``verify_drg_parameters``
    reads only n and the distance matrix."""

    n = 2

    def __init__(self, adjacent):
        self.D = np.where(adjacent, 1, 2).astype(np.int8)
        np.fill_diagonal(self.D, 0)

    def distance_matrix(self):
        return self.D


def z4_squared(connection):
    """Adjacency of the Cayley graph on Z4^2 with the given connection set,
    vertex i*4 + j."""
    points = [(i, j) for i in range(4) for j in range(4)]
    return np.array([[((a - c) % 4, (b - e) % 4) in connection for c, e in points]
                     for a, b in points])


SHRIKHANDE = z4_squared({(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)})
ROOK_4X4 = z4_squared({(a, 0) for a in (1, 2, 3)} | {(0, b) for b in (1, 2, 3)})
PALEY_13 = np.array([[(x - y) % 13 in {z * z % 13 for z in range(1, 13)}
                      for y in range(13)] for x in range(13)])


class TestDiamonds:
    """The diamond test of ``verify_drg_parameters`` on strongly regular
    graphs with and without diamonds, and under relabelling."""

    @pytest.mark.parametrize("graph,ok,failure", [
        ("SHRIKHANDE", False, "induced diamond on (0,1,5,12)"),
        ("ROOK_4X4", True, ""),
    ])
    def test_same_parameters_one_diamond(self, graph, ok, failure):
        # Both are strongly regular with the same parameters.
        report = verify_drg_parameters(CayleyStub(globals()[graph]))
        assert report == DRGReport(ok, {0: (0, 0, 6), 1: (1, 2, 3), 2: (2, 4, 0)},
                                   failure)

    @pytest.mark.parametrize("graph", ["SHRIKHANDE", "ROOK_4X4", "PALEY_13"])
    def test_relabelled_graphs_keep_report(self, graph):
        # ok and the parameters do not depend on the labels, and a reported
        # diamond is one in the relabelled graph.
        adjacent = globals()[graph]
        base = verify_drg_parameters(CayleyStub(adjacent))
        rng = np.random.default_rng(7)
        for _ in range(8):
            perm = rng.permutation(len(adjacent))
            A = adjacent[perm][:, perm]
            report = verify_drg_parameters(CayleyStub(A))
            assert (report.ok, report.parameters) == (base.ok, base.parameters)
            if not report.ok:
                x, y, u, v = map(int, report.failure.removeprefix(
                    "induced diamond on (").rstrip(")").split(","))
                assert x < y and u < v
                assert A[x, y] and A[x, u] and A[x, v] and A[y, u] and A[y, v]
                assert not A[u, v]


class TestIsometries:
    def test_sampled_isometries_preserve_form(self, q5n2):
        space = q5n2["space"]
        for iso in sp_sample_elements(space, 10, seed=42):
            assert iso.multiplier == 1
            assert verify_similarity(space, iso.matrix, 1)

    def test_sampling_is_seeded(self, q5n2):
        space = q5n2["space"]
        a = sp_sample_elements(space, 5, seed=1)
        b = sp_sample_elements(space, 5, seed=1)
        c = sp_sample_elements(space, 5, seed=2)
        assert [x.matrix for x in a] == [x.matrix for x in b]
        assert [x.matrix for x in a] != [x.matrix for x in c]

    def test_nonsquare_similarity(self, q5n2):
        space = q5n2["space"]
        iso = nonsquare_similarity(space)
        assert space.spec.chi(iso.multiplier) == -1
        assert verify_similarity(space, iso.matrix, iso.multiplier)

    def test_isometries_permute_generators(self, q5n1):
        space = q5n1["space"]
        m = len(bases(space))
        for iso in sp_sample_elements(space, 5, seed=9):
            assert {generator_image(space, x, iso) for x in range(m)} == set(range(m))
