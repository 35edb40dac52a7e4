"""Pair and triple signs, gauge invariance, the two-graph, half splits."""

import random
from itertools import combinations

import numpy as np
import pytest

from polarcover.errors import QNotOneModFour
from polarcover.finite_field import construct_field
from polarcover.maslov import (
    CoherenceTable,
    coherent_split_count,
    sigma_pair,
    sigma_triple,
    verify_two_graph,
)
from polarcover.symplectic import Subspace, SymplecticSpace, distance
from symplectic_oracles import (
    generator_by_basis,
    generator_image,
    nonsquare_similarity,
    sp_sample_elements,
    verify_invariance,
)


def gen_by_rows(space, rows):
    sub = Subspace.from_rows(space.spec, rows)
    return generator_by_basis(space, sub.basis)


class TestSigmaPair:
    def test_hyperbolic_line_examples(self, q5n1):
        space = q5n1["space"]
        X = gen_by_rows(space, [(1, 0)])           # <e1>
        Y = gen_by_rows(space, [(0, 1)])           # <f1>
        Z = gen_by_rows(space, [(1, 2)])           # <e1 + 2 f1>
        assert sigma_pair(space, X, Y) == 1
        assert sigma_pair(space, X, Z) == -1       # chi(2) = -1 in F_5

    def test_rejects_equal_arguments(self, q5n1):
        space = q5n1["space"]
        X = space.generators()[0]
        with pytest.raises(ValueError):
            sigma_pair(space, X, X)

    def test_rejects_q_3_mod_4(self):
        space = SymplecticSpace(construct_field(7, 1), 1)
        X, Y = space.generators()[:2]
        with pytest.raises(QNotOneModFour):
            sigma_pair(space, X, Y)
        with pytest.raises(QNotOneModFour):
            CoherenceTable(space)

    @pytest.mark.parametrize("bundle", ["q5n1", "q5n2", "q9n1", "q13n1"])
    def test_symmetry(self, bundle, request):
        space = request.getfixturevalue(bundle)["space"]
        gens = space.generators()
        rng = random.Random(11)
        pairs = min(1000, len(gens) * (len(gens) - 1) // 2)
        for _ in range(pairs):
            X, Y = rng.sample(gens, 2)
            assert sigma_pair(space, X, Y) == sigma_pair(space, Y, X)

    @pytest.mark.parametrize("bundle", ["q5n2", "q9n1"])
    def test_gauge_invariance(self, bundle, request):
        # Randomized basis extensions never change the value.
        space = request.getfixturevalue(bundle)["space"]
        gens = space.generators()
        rng = random.Random(5)
        for _ in range(500):
            X, Y = rng.sample(gens, 2)
            baseline = sigma_pair(space, X, Y)
            assert sigma_pair(space, X, Y, rng=rng) == baseline

    def test_table_memoization_consistent(self, q5n1):
        space = q5n1["space"]
        table = CoherenceTable(space)
        gens = space.generators()
        for X in gens:
            for Y in gens:
                if X.id < Y.id:
                    assert table.sigma(X, Y) == sigma_pair(space, X, Y)
                    assert table.sigma(Y, X) == table.sigma(X, Y)


class TestSigmaTriple:
    def test_geodesic_triple_coherent(self, q5n2):
        space = q5n2["space"]
        table = CoherenceTable(space)
        X = gen_by_rows(space, [(1, 0, 0, 0), (0, 1, 0, 0)])   # <e1, e2>
        Y = gen_by_rows(space, [(0, 0, 1, 0), (0, 1, 0, 0)])   # <f1, e2>
        Z = gen_by_rows(space, [(0, 0, 1, 0), (0, 0, 0, 1)])   # <f1, f2>
        assert (distance(space, X, Y), distance(space, Y, Z),
                distance(space, X, Z)) == (1, 1, 2)
        assert sigma_triple(table, X, Y, Z) == 1

    def test_triangle_character_values(self, q5n1):
        space = q5n1["space"]
        table = CoherenceTable(space)
        X = gen_by_rows(space, [(1, 0)])
        Y = gen_by_rows(space, [(0, 1)])
        for alpha, want in ((2, -1), (4, 1), (1, 1), (3, -1)):
            Z = gen_by_rows(space, [(1, alpha)])
            assert sigma_triple(table, X, Y, Z) == want

    def test_every_geodesic_triple_coherent_exhaustive(self, q5n2):
        space = q5n2["space"]
        table = CoherenceTable(space)
        D = space.distance_matrix().astype(np.int64)
        S = table.sigma_matrix().astype(np.int64)
        m = len(space.generators())
        distinct = ~np.eye(m, dtype=bool)
        for y in range(m):
            geo = (D[:, y][:, None] + D[y, :][None, :]) == D
            geo &= distinct[:, y][:, None] & distinct[y, :][None, :] & distinct
            tri = S[:, y][:, None] * S[y, :][None, :] * S
            assert (tri[geo] == 1).all()

    def test_rejects_repeats(self, q5n1):
        space = q5n1["space"]
        table = CoherenceTable(space)
        X, Y = space.generators()[:2]
        with pytest.raises(ValueError):
            sigma_triple(table, X, Y, X)


class TestTwoGraph:
    def _check(self, table, coherent, total):
        report = verify_two_graph(table)
        assert report.ok and report.witness is None
        assert (report.coherent_triples, report.triples_total) == (coherent, total)

    def _check_per_triple(self, table, coherent, total):
        S = table.sigma_matrix().tolist()
        triples = list(combinations(range(len(S)), 3))
        assert (sum(S[x][y] * S[y][z] * S[z][x] == 1 for x, y, z in triples),
                len(triples)) == (coherent, total)
        self._check(table, coherent, total)

    def test_exhaustive_q5n1(self, q5n1):
        self._check_per_triple(CoherenceTable(q5n1["space"]), 10, 20)

    def test_exhaustive_q5n2(self, q5n2):
        self._check(CoherenceTable(q5n2["space"]), 372060, 620620)   # C(156, 3)

    def test_exhaustive_q9n1(self, q9n1):
        self._check_per_triple(CoherenceTable(q9n1["space"]), 60, 120)  # C(10, 3)

    @pytest.mark.parametrize("fault", ["asymmetric", "zero_off_diagonal"])
    def test_broken_sign_matrix_has_witness(self, q5n1, monkeypatch, fault):
        table = CoherenceTable(q5n1["space"])
        S = table.sigma_matrix().copy()
        if fault == "asymmetric":
            S[0, 1] = -S[0, 1]
        else:
            S[0, 1] = S[1, 0] = 0
        monkeypatch.setattr(table, "sigma_matrix", lambda: S)
        report = verify_two_graph(table)
        assert not report.ok
        assert report.witness == (0, 1)


class TestHalfSplits:
    def test_function_examples(self, q5n2, q9n1):
        space = q5n2["space"]
        table = CoherenceTable(space)
        gens = space.generators()
        D = space.distance_matrix()
        x = 0
        y1 = int(np.flatnonzero(D[x] == 1)[0])
        y2 = int(np.flatnonzero(D[x] == 2)[0])
        assert coherent_split_count(table, gens[x], gens[y1]) == (2, 2)
        assert coherent_split_count(table, gens[x], gens[y2]) == (12, 12)

        space9 = q9n1["space"]
        table9 = CoherenceTable(space9)
        gens9 = space9.generators()
        assert coherent_split_count(table9, gens9[0], gens9[1]) == (4, 4)

    @pytest.mark.parametrize("bundle", ["q5n1", "q5n2"])
    def test_exhaustive_over_all_pairs(self, bundle, request):
        space = request.getfixturevalue(bundle)["space"]
        table = CoherenceTable(space)
        q = space.spec.q
        D = space.distance_matrix().astype(np.int64)
        S = table.sigma_matrix().astype(np.int64)
        m = len(space.generators())
        for x in range(m):
            for y in range(m):
                k = int(D[x, y])
                if k == 0:
                    continue
                zs = np.flatnonzero((D[x] == k) & (D[y] == 1))
                zs = zs[(zs != x) & (zs != y)]
                tri = S[x, y] * S[y, zs] * S[zs, x]
                assert len(zs) == q**k - 1
                assert (tri == 1).sum() == (q**k - 1) // 2


class TestInvariance:
    def test_isometries_preserve_sigma(self, q5n2):
        table = CoherenceTable(q5n2["space"])
        elements = sp_sample_elements(q5n2["space"], 10, seed=21)
        report = verify_invariance(table, elements, trials=500, seed=8)
        assert report.ok, report.failures[:1]

    def test_nonsquare_similarity_flips_odd_perimeter(self, q5n2):
        space = q5n2["space"]
        table = CoherenceTable(space)
        iso = nonsquare_similarity(space)
        report = verify_invariance(table, [iso], trials=300, seed=4)
        assert report.ok, report.failures[:1]
        # And a concrete odd-perimeter triangle must flip:
        rng = random.Random(2)
        gens = space.generators()
        flipped = 0
        while flipped < 5:
            X, Y, Z = rng.sample(gens, 3)
            perim = (distance(space, X, Y) + distance(space, Y, Z)
                     + distance(space, Z, X))
            if perim % 2 == 0:
                continue
            before = sigma_triple(table, X, Y, Z)
            after = sigma_triple(
                table,
                generator_image(space, X, iso),
                generator_image(space, Y, iso),
                generator_image(space, Z, iso),
            )
            assert after == -before
            flipped += 1

    def test_reference_coherent_to_incoherent_example(self, q5n2):
        # The similarity with nonsquare multiplier maps the coherent triple
        # {<e1,e2>, <f1,e2>, <e1+f1,e2>} to a non-coherent one; equivalently
        # the eta-perturbed triple is non-coherent.
        space = q5n2["space"]
        table = CoherenceTable(space)
        eta = space.spec.smallest_nonsquare()
        X = gen_by_rows(space, [(1, 0, 0, 0), (0, 1, 0, 0)])
        Y = gen_by_rows(space, [(0, 0, 1, 0), (0, 1, 0, 0)])
        Z = gen_by_rows(space, [(1, 0, 1, 0), (0, 1, 0, 0)])
        Zp = gen_by_rows(space, [(1, 0, eta, 0), (0, 1, 0, 0)])
        assert sigma_triple(table, X, Y, Z) == 1
        assert sigma_triple(table, X, Y, Zp) == -1
        iso = nonsquare_similarity(space)
        imgs = [generator_image(space, G, iso) for G in (X, Y, Z)]
        assert sigma_triple(table, *imgs) == -1
