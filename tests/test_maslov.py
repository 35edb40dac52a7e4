"""Pair and triple signs, gauge invariance, the two-graph, half splits."""

import random
from itertools import combinations

import numpy as np
import pytest

from field_oracles import reference
from polarcover.errors import QNotOneModFour
from polarcover.finite_field import construct_field
from polarcover.maslov import CoherenceTable, coherent_split_count, verify_two_graph
from polarcover.symplectic import SymplecticSpace
from symplectic_oracles import (
    bases,
    generator_image,
    generator_index,
    nonsquare_similarity,
    pair_oracle,
    sp_sample_elements,
    triple_sign,
    verify_invariance,
)


def sign(space, X, Y, rng=None):
    return pair_oracle(space, X, Y, rng)[1]


class TestSigmaPair:
    def test_hyperbolic_line_examples(self, q5n1):
        space = q5n1["space"]
        X, Y, Z = [(1, 0)], [(0, 1)], [(1, 2)]      # <e1>, <f1>, <e1 + 2 f1>
        assert sign(space, X, Y) == 1
        assert sign(space, X, Z) == -1              # chi(2) = -1 in F_5
        S = CoherenceTable(space).sigma_matrix()
        x, y, z = (generator_index(space, G) for G in (X, Y, Z))
        assert (S[x, y], S[x, z]) == (1, -1)

    def test_rejects_equal_arguments(self, q5n1):
        space = q5n1["space"]
        X = bases(space)[0]
        with pytest.raises(ValueError):
            pair_oracle(space, X, X)

    def test_rejects_q_3_mod_4(self):
        space = SymplecticSpace(construct_field(7, 1), 1)
        with pytest.raises(QNotOneModFour):
            CoherenceTable(space)

    @pytest.mark.parametrize("bundle", ["q5n1", "q5n2", "q9n1", "q13n1"])
    def test_symmetry(self, bundle, request):
        space = request.getfixturevalue(bundle)["space"]
        found = bases(space)
        rng = random.Random(11)
        pairs = min(1000, len(found) * (len(found) - 1) // 2)
        for _ in range(pairs):
            X, Y = rng.sample(found, 2)
            assert pair_oracle(space, X, Y) == pair_oracle(space, Y, X)

    @pytest.mark.parametrize("bundle", ["q5n2", "q9n1"])
    def test_gauge_invariance(self, bundle, request):
        # Randomized basis extensions never change the value.
        space = request.getfixturevalue(bundle)["space"]
        found = bases(space)
        rng = random.Random(5)
        for _ in range(500):
            X, Y = rng.sample(found, 2)
            baseline = sign(space, X, Y)
            assert sign(space, X, Y, rng=rng) == baseline

    def test_table_memoization_consistent(self, q5n1):
        space = q5n1["space"]
        S = CoherenceTable(space).sigma_matrix()
        found = bases(space)
        assert (S == S.T).all()
        for x, y in zip(*np.triu_indices(len(found), 1)):
            assert S[x, y] == sign(space, found[x], found[y])


class TestSigmaTriple:
    def test_geodesic_triple_coherent(self, q5n2):
        space = q5n2["space"]
        D = space.distance_matrix()
        S = CoherenceTable(space).sigma_matrix()
        x = generator_index(space, [(1, 0, 0, 0), (0, 1, 0, 0)])   # <e1, e2>
        y = generator_index(space, [(0, 0, 1, 0), (0, 1, 0, 0)])   # <f1, e2>
        z = generator_index(space, [(0, 0, 1, 0), (0, 0, 0, 1)])   # <f1, f2>
        assert (D[x, y], D[y, z], D[x, z]) == (1, 1, 2)
        assert triple_sign(S, x, y, z) == 1

    def test_triangle_character_values(self, q5n1):
        space = q5n1["space"]
        S = CoherenceTable(space).sigma_matrix()
        x = generator_index(space, [(1, 0)])
        y = generator_index(space, [(0, 1)])
        for alpha, want in ((2, -1), (4, 1), (1, 1), (3, -1)):
            z = generator_index(space, [(1, alpha)])
            assert triple_sign(S, x, y, z) == want

    def test_every_geodesic_triple_coherent_exhaustive(self, q5n2):
        space = q5n2["space"]
        table = CoherenceTable(space)
        D = space.distance_matrix().astype(np.int64)
        S = table.sigma_matrix().astype(np.int64)
        m = len(S)
        distinct = ~np.eye(m, dtype=bool)
        for y in range(m):
            geo = (D[:, y][:, None] + D[y, :][None, :]) == D
            geo &= distinct[:, y][:, None] & distinct[y, :][None, :] & distinct
            tri = S[:, y][:, None] * S[y, :][None, :] * S
            assert (tri[geo] == 1).all()


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
        D = space.distance_matrix()
        x = 0
        y1 = int(np.flatnonzero(D[x] == 1)[0])
        y2 = int(np.flatnonzero(D[x] == 2)[0])
        assert coherent_split_count(table, x, y1) == (2, 2)
        assert coherent_split_count(table, x, y2) == (12, 12)
        with pytest.raises(ValueError):
            coherent_split_count(table, x, x)

        table9 = CoherenceTable(q9n1["space"])
        assert coherent_split_count(table9, 0, 1) == (4, 4)

    @pytest.mark.parametrize("bundle", ["q5n1", "q5n2"])
    def test_exhaustive_over_all_pairs(self, bundle, request):
        space = request.getfixturevalue(bundle)["space"]
        table = CoherenceTable(space)
        q = space.spec.q
        D = space.distance_matrix().astype(np.int64)
        S = table.sigma_matrix().astype(np.int64)
        m = len(S)
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
        found = bases(space)
        S = table.sigma_matrix()
        flipped = 0
        while flipped < 5:
            X, Y, Z = rng.sample(found, 3)
            perim = sum(pair_oracle(space, U, V)[0] for U, V in ((X, Y), (Y, Z), (Z, X)))
            if perim % 2 == 0:
                continue
            xyz = [generator_index(space, G) for G in (X, Y, Z)]
            before = triple_sign(S, *xyz)
            after = triple_sign(S, *(generator_image(space, g, iso) for g in xyz))
            assert after == -before
            flipped += 1

    def test_reference_coherent_to_incoherent_example(self, q5n2):
        # The similarity with nonsquare multiplier maps the coherent triple
        # {<e1,e2>, <f1,e2>, <e1+f1,e2>} to a non-coherent one; equivalently
        # the eta-perturbed triple is non-coherent.
        space = q5n2["space"]
        S = CoherenceTable(space).sigma_matrix()
        eta = reference(space.spec).smallest_nonsquare()
        x = generator_index(space, [(1, 0, 0, 0), (0, 1, 0, 0)])
        y = generator_index(space, [(0, 0, 1, 0), (0, 1, 0, 0)])
        z = generator_index(space, [(1, 0, 1, 0), (0, 1, 0, 0)])
        zp = generator_index(space, [(1, 0, eta, 0), (0, 1, 0, 0)])
        assert triple_sign(S, x, y, z) == 1
        assert triple_sign(S, x, y, zp) == -1
        iso = nonsquare_similarity(space)
        assert triple_sign(S, *(generator_image(space, g, iso) for g in (x, y, z))) == -1
