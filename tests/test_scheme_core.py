"""Scheme axioms, exact eigenmatrices, Krein parameters, idempotents."""

import dataclasses
import functools
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import polarcover.scheme_core as scheme_core
from polarcover.closed_form import eigenmatrices_closed, l1_closed
from polarcover.errors import (
    EigenvalueOutsideField,
    IdentityNotR0,
    NonConstant,
    NotAPartition,
    NotInvariant,
    NotSymmetric,
    RepeatedEigenvalue,
)
from polarcover.cover import CoverGraph, group_action, root_elements
from polarcover.exact_algebra import QuadExt, dual_eigenmatrix, pq_tensor
from polarcover.finite_field import construct_field
from polarcover.maslov import CoherenceTable
from polarcover.scheme_core import (
    IntersectionTensor,
    SchemeInstance,
    SpectralData,
    _exact_eigenvalues,
    class_distances,
    export_scheme,
    intersection_matrix,
    krein,
    q_bipartite_check,
    q_poly_orderings,
    spectral_data,
    verify_scheme,
    verify_scheme_bytes,
)
from polarcover.symplectic import SymplecticSpace
from field_oracles import reference
from linalg_oracles import gauss_jordan, mat_charpoly, mat_kernel, mat_mul
from scheme_oracles import inverse, matmul_tensor, verify_idempotents
from symplectic_oracles import bases, generator_index, rref, verify_similarity


def triangle_instance():
    """K_3 as a 1-class scheme."""
    R = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    return SchemeInstance.from_matrix(R, 1)


def pentagon_instance():
    """C5 distance scheme: a clean 2-class scheme over Q(sqrt(5))."""
    R = np.zeros((5, 5), dtype=np.int8)
    for x in range(5):
        for y in range(5):
            if x != y:
                R[x, y] = 1 if (x - y) % 5 in (1, 4) else 2
    return SchemeInstance.from_matrix(R, 2)


class TestFaultInjection:
    def test_not_a_partition_out_of_range(self):
        R = np.array([[0, 5], [5, 0]])
        with pytest.raises(NotAPartition):
            verify_scheme(SchemeInstance.from_matrix(R, 1))

    def test_not_a_partition_empty_relation(self):
        R = np.array([[0, 1], [1, 0]])
        with pytest.raises(NotAPartition):
            verify_scheme(SchemeInstance.from_matrix(R, 2))

    def test_identity_not_r0_diagonal(self):
        R = np.array([[1, 1], [1, 0]])
        with pytest.raises(IdentityNotR0):
            verify_scheme(SchemeInstance.from_matrix(R, 1))

    def test_identity_not_r0_offdiagonal(self):
        R = np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        with pytest.raises(IdentityNotR0):
            verify_scheme(SchemeInstance.from_matrix(R, 1))

    def test_not_symmetric(self):
        R = np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
        with pytest.raises(NotSymmetric) as exc:
            verify_scheme(SchemeInstance.from_matrix(R, 2))
        assert exc.value.witness is not None

    def test_nonconstant_valency(self):
        # path on 3 points graded by distance: relation 1 has valency 1 or 2
        R = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with pytest.raises(NonConstant):
            verify_scheme(SchemeInstance.from_matrix(R, 2))

    def test_nonconstant_p_tensor(self):
        # 6-cycle with "adjacent" vs "everything else": valencies are
        # constant (2 and 3) but p_{11}^2 is not.
        R = np.zeros((6, 6), dtype=np.int8)
        for x in range(6):
            for y in range(6):
                if x != y:
                    R[x, y] = 1 if (x - y) % 6 in (1, 5) else 2
        with pytest.raises(NonConstant) as exc:
            verify_scheme(SchemeInstance.from_matrix(R, 2))
        assert exc.value.witness is not None

    def test_nonconstant_past_the_first_row_block(self):
        # K_64 and K_2, in relation 2 across: (A_1 A_1)[x, x] is 63 on the
        # first 64 points and 1 on the last two, so only rows past the
        # constancy comparison's first 64-row block break.
        R = np.full((66, 66), 2, dtype=np.int8)
        R[:64, :64] = R[64:, 64:] = 1
        np.fill_diagonal(R, 0)
        with pytest.raises(NonConstant) as exc:
            verify_scheme(SchemeInstance.from_matrix(R, 2))
        assert (exc.value.i, exc.value.j, exc.value.k) == (1, 1, 0)
        assert exc.value.witness == (64, 64)


class TestExactProduct:
    """``_exact_int_product`` at its float32 bound: 1040 * 127 * 127 =
    16,774,160 <= 2^24 < 1041 * 127 * 127."""

    @staticmethod
    def operands(inner):
        return (np.full((1, inner), 127, dtype=np.int8),
                np.full((inner, 1), 127, dtype=np.int8))

    def test_int8_at_bound_is_exact_float32(self):
        M = scheme_core._exact_int_product(*self.operands(1040))
        assert M.dtype == np.float32
        assert int(M[0, 0]) == 16_774_160

    def test_int8_past_bound_raises(self):
        with pytest.raises(OverflowError):
            scheme_core._exact_int_product(*self.operands(1041))

    def test_int8_bound_reads_the_most_negative_entry(self):
        A = np.full((1, 1040), -128, dtype=np.int8)
        B = np.full((1040, 1), 127, dtype=np.int8)
        with pytest.raises(OverflowError):
            scheme_core._exact_int_product(A, B)

    def test_int64_operands_share_the_float32_bound(self):
        A, B = (X.astype(np.int64) for X in self.operands(1040))
        M = scheme_core._exact_int_product(A, B)
        assert M.dtype == np.float32
        assert int(M[0, 0]) == 16_774_160
        with pytest.raises(OverflowError):
            scheme_core._exact_int_product(*(X.astype(np.int64)
                                             for X in self.operands(1041)))

    @staticmethod
    def symmetric(size):
        """A symmetric int8 matrix with entries in [-127, 127], 127 on the
        diagonal, so A A^T is at the bound when size is 1040."""
        rng = np.random.default_rng(size)
        A = rng.integers(-127, 128, (size, size), dtype=np.int8)
        A = np.triu(A) + np.triu(A, 1).T
        np.fill_diagonal(A, 127)
        return A

    def test_square_of_symmetric_int8_at_bound_is_exact(self):
        A = self.symmetric(1040)
        M = scheme_core._exact_int_product(A, A)          # syrk: B is A
        assert M.dtype == np.float32
        assert (M == scheme_core._exact_int_product(A, A.copy())).all()
        assert (M.astype(np.int64) == A.astype(np.int64) @ A).all()
        full = np.full((1040, 1040), 127, dtype=np.int8)
        assert (scheme_core._exact_int_product(full, full) == 16_774_160).all()

    def test_square_of_symmetric_int8_past_bound_raises(self):
        A = self.symmetric(1041)
        with pytest.raises(OverflowError):
            scheme_core._exact_int_product(A, A)


class TestPentagon:
    def test_tensor(self):
        t = verify_scheme(pentagon_instance())
        assert [t.p[i][i][0] for i in range(3)] == [1, 2, 2]
        assert t.p[1][1][2] == 1
        assert t.p[1][2][1] == 1
        L1 = intersection_matrix(t, 1)
        assert L1[0][1] == 2
        assert {type(x) for row in L1 for x in row} == {int}

    def test_class_distances(self):
        assert class_distances(verify_scheme(pentagon_instance())) == [0, 1, 2]

    def test_class_distances_disconnected(self):
        # two triangles: relation 1 never reaches relation 2 (K_{3,3}).
        # A_1 has 2 eigenvalues for 3 classes, so verify_scheme refuses it;
        # the tensor comes from the int64 products.
        R = np.array([[0 if x == y else 1 if x // 3 == y // 3 else 2
                       for y in range(6)] for x in range(6)])
        t = IntersectionTensor(2, 6, matmul_tensor(R, 2))
        with pytest.raises(ValueError, match=r"classes \[2\] are unreachable"):
            class_distances(t)

    def test_spectral(self):
        t = verify_scheme(pentagon_instance())
        sd = spectral_data(t, 5)
        r = QuadExt.root(5)
        two = QuadExt(2, 0, 5)
        # eigenvalues of C5, column 1 of P: 2, (-1+sqrt5)/2, (-1-sqrt5)/2
        assert [row[1] for row in sd.P] == [two, (r - 1) / 2, (-r - 1) / 2]
        assert sd.Q[0] == [QuadExt(1, 0, 5), two, two]

    def test_pq_identity(self):
        t = verify_scheme(pentagon_instance())
        sd = spectral_data(t, 5)
        prod = mat_mul(sd.P, sd.Q)
        for i in range(3):
            for j in range(3):
                want = QuadExt(5 if i == j else 0, 0, 5)
                assert prod[i][j] == want


class TestCoverScheme:
    def test_valencies_q5n2(self, q5n2_scheme):
        t = q5n2_scheme["tensor"]
        assert [t.p[i][i][0] for i in range(6)] == [1, 30, 125, 125, 30, 1]
        assert t.N == 312

    @staticmethod
    def representative_checks(instance, monkeypatch):
        """(representatives, masks): the rows ``verify_scheme`` counts, and
        the shapes of the masks it searches from then on.  No product may
        be formed."""
        masks, reps = [], []
        first_true = scheme_core._first_true
        orbit_representatives = scheme_core._orbit_representatives

        def counted(mask):
            masks.append(mask.shape)
            return first_true(mask)

        def recorded(pi, m):
            reps.append(orbit_representatives(pi, m))
            masks.clear()
            return reps[-1]

        def no_product(*args):
            raise AssertionError("a matrix product was formed")
        monkeypatch.setattr(scheme_core, "_first_true", counted)
        monkeypatch.setattr(scheme_core, "_orbit_representatives", recorded)
        monkeypatch.setattr(scheme_core, "_exact_int_product", no_product)
        verify_scheme(instance)
        return reps[0], masks

    @pytest.mark.parametrize("bundle,n", [("q5n1", 1), ("q5n2", 2)])
    def test_one_check_per_sheet_per_folded_pair(self, bundle, n, request,
                                                 monkeypatch):
        # The root elements are transitive, so one representative row is
        # counted: its entries of A_1 A_b for the folded pairs (1, b),
        # b <= n, on both sheets, checked by one search of an (n, 2, m)
        # mask; A_1 generates, so the pairs a >= 2 are derived from L_1.
        instance = request.getfixturevalue(bundle)["instance"]
        reps, masks = self.representative_checks(instance, monkeypatch)
        assert reps.tolist() == [0]
        assert masks == [(n, 2, len(instance.matrix))]

    @pytest.mark.parametrize("bundle,n", [("q5n1", 1), ("q5n2", 2)])
    def test_one_sheet_multiplies_only_relation_one(self, bundle, n, request,
                                                    monkeypatch):
        # One sheet with no group: every point is a representative, and its
        # row of A_1 A_b is checked for every b = 1..d, with no product.
        cover = request.getfixturevalue(bundle)["instance"]
        d = 2 * n + 1
        instance = SchemeInstance.from_matrix(cover.relation_matrix(), d)
        reps, masks = self.representative_checks(instance, monkeypatch)
        assert reps.tolist() == list(range(instance.N))
        assert masks == [(d, 1, instance.N)] * instance.N

    @pytest.mark.parametrize("bundle", ["q5n1", "q5n2"])
    def test_cross_sheet_pair_in_relation_zero(self, bundle, request):
        # R[x, y] = d puts (2x, 2y + 1), on opposite sheets, in class 0;
        # R stays in range, symmetric and 0 only on its diagonal.
        instance = request.getfixturevalue(bundle)["instance"]
        R = instance.matrix.copy()
        x, y = 1, 4
        R[x, y] = R[y, x] = instance.d
        with pytest.raises(IdentityNotR0) as exc:
            verify_scheme(dataclasses.replace(instance, matrix=R))
        assert exc.value.witness == (2 * x, 2 * y + 1)

    @pytest.mark.parametrize("bundle", ["q5n2", "q9n1", "q9n2"])
    def test_memory_prediction_bounds_peak(self, bundle, request):
        instance = request.getfixturevalue(bundle)["instance"]
        tracemalloc.start()
        try:
            verify_scheme(instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= verify_scheme_bytes(instance.N, instance.d)

    def test_pq_identity(self, q5n2_scheme):
        sd = q5n2_scheme["sd"]
        prod = mat_mul(sd.P, sd.Q)
        N = sd.N
        for i in range(6):
            for j in range(6):
                assert prod[i][j] == QuadExt(N if i == j else 0, 0, 5)

    def test_eigenvalues_strictly_decreasing(self, q5n2_scheme, q5n1_scheme):
        for bundle in (q5n2_scheme, q5n1_scheme):
            P = bundle["sd"].P
            ev = [row[1] for row in P]
            assert all(a > b for a, b in zip(ev, ev[1:]))
            assert ev[0] == P[0][1]

    def test_multiplicities_sum(self, q5n2_scheme):
        sd = q5n2_scheme["sd"]
        total = sd.Q[0][0]
        for m in sd.Q[0][1:]:
            total = total + m
        assert total == QuadExt(sd.N, 0, 5)

    def test_splitting_field_usage(self, q5n1_scheme, q9n1, q13n1):
        # q = 5, 13: genuinely irrational entries.  q = 9: r = 3 rational.
        sd5 = q5n1_scheme["sd"]
        assert any(x.b for row in sd5.P for x in row)
        t13 = verify_scheme(q13n1["instance"])
        sd13 = spectral_data(t13, 13)
        assert any(x.b for row in sd13.P for x in row)
        t9 = verify_scheme(q9n1["instance"])
        sd9 = spectral_data(t9, 9)
        assert all(not x.b for row in sd9.P for x in row)

    def test_conjugation_permutes_p_rows(self, q5n2_scheme):
        # The Galois map r -> -r permutes the rows of P.
        sd = q5n2_scheme["sd"]
        rows = [tuple(x for x in row) for row in sd.P]
        conj = [tuple(x.conjugate() for x in row) for row in sd.P]
        assert sorted(map(str, rows)) == sorted(map(str, conj))
        # and the permutation is not the identity (irrational rows move)
        assert rows != conj


class TestKrylovDerivation:
    """Every p_ab read off L_1 when A_1 generates; RepeatedEigenvalue when not."""

    @staticmethod
    def k2_by_k3():
        """K_2 x K_3 on the points 3x + y: relation 1 differs in x only, 2 in
        y only, 3 in both; A_1 = (J - I) (x) I has the 2 eigenvalues +-1."""
        return np.array([[(x != u) + 2 * (y != v) for u in range(2) for v in range(3)]
                         for x in range(2) for y in range(3)])

    @staticmethod
    def all_plus_k4():
        """The all-plus sign pattern of K_4 on one sheet: A_1 = (J - I) (x) I_2
        has the 2 eigenvalues 3 and -1."""
        R = np.ones((4, 4), dtype=np.int8)
        np.fill_diagonal(R, 0)
        return SchemeInstance(3, R, sheets=2).relation_matrix()

    @staticmethod
    def klein_four():
        """Z_2 x Z_2 with R[x, y] = x XOR y: L_1 has eigenvalues 1, 1, -1, -1."""
        return np.array([[x ^ y for y in range(4)] for x in range(4)])

    @pytest.mark.parametrize("relations", ["k2_by_k3", "all_plus_k4", "klein_four"])
    def test_singular_krylov_raises(self, relations, monkeypatch):
        # Each is a 3-class scheme (the products of the oracle are
        # constant) whose A_1 has 2 eigenvalues, so K is singular:
        # verify_scheme raises at the L_1 of the oracle, read off the rows
        # of A_1 A_b with no matrix product, and before any root is sought.
        R = getattr(self, relations)()
        want = matmul_tensor(R, 3)
        inverted = []

        def recorded(L1):
            inverted.append(L1)
            return krylov_inverse(L1)

        def refused(*args):
            raise AssertionError("a product was formed or a root sought")
        krylov_inverse = scheme_core._krylov_inverse
        monkeypatch.setattr(scheme_core, "_exact_int_product", refused)
        monkeypatch.setattr(scheme_core, "_krylov_inverse", recorded)
        monkeypatch.setattr(scheme_core, "_exact_eigenvalues", refused)
        with pytest.raises(RepeatedEigenvalue):
            verify_scheme(SchemeInstance.from_matrix(R, 3))
        assert inverted == [[[want[1][j][k] for j in range(4)] for k in range(4)]]

    @pytest.mark.parametrize("relations", ["k2_by_k3", "all_plus_k4"])
    def test_singular_krylov_has_a_repeated_eigenvalue(self, relations, monkeypatch):
        # spectral_data raises at the singular K of the oracle's tensor,
        # before any root is sought.
        R = getattr(self, relations)()
        t = IntersectionTensor(3, len(R), matmul_tensor(R, 3))

        def no_roots(*args):
            raise AssertionError("roots sought")
        monkeypatch.setattr(scheme_core, "_exact_eigenvalues", no_roots)
        with pytest.raises(RepeatedEigenvalue):
            spectral_data(t, 5)

    def test_inexact_entry_is_refused(self, q5n1, monkeypatch):
        # X off by one in one entry, as a faulty elimination might leave it:
        # p_00^0 = (K X e_0)_0 / delta becomes (delta + 1)/delta with
        # delta = 20 at q = 5, n = 1, which floor division would read as 1.
        krylov_inverse = scheme_core._krylov_inverse

        def off_by_one(L1):
            delta, X = krylov_inverse(L1)
            X[0][0] += 1
            return delta, X
        monkeypatch.setattr(scheme_core, "_krylov_inverse", off_by_one)
        with pytest.raises(AssertionError, match=r"\(a=0, b=0, k=0\) is 21/20, "
                                                 "not a nonnegative integer"):
            verify_scheme(q5n1["instance"])

    def test_krylov_inverse(self):
        # K = [e_0, L e_0, L^2 e_0] has det -9 and needs a row swap.
        L = [[0, 0, 1], [0, 0, 1], [3, 0, 0]]
        K = [[1, 0, 3], [0, 0, 3], [0, 3, 0]]
        delta, X = scheme_core._krylov_inverse(L)
        assert abs(delta) == 9
        assert mat_mul(X, K) == [[delta * (i == j) for j in range(3)] for i in range(3)]
        # The Klein four group: L_1 e_0 = e_1 and L_1^2 e_0 = e_0.
        L1 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        with pytest.raises(RepeatedEigenvalue):
            scheme_core._krylov_inverse(L1)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("q", [5, 9, 13, 125])
    def test_closed_form_eigenmatrix(self, q, n):
        # P from the closed-form L_1, past the reach of the graph path,
        # against the closed-form P, row by row matched by eigenvalue.
        L1 = l1_closed(n, q)
        assert all(x.denominator == 1 for row in L1 for x in row)
        P = scheme_core._eigenmatrix([[int(x) for x in row] for row in L1], q)
        want = {row[1]: row for row in eigenmatrices_closed(n, q).p_full}
        assert len(P) == len(want) == 2 * n + 2      # d + 1 distinct rows
        assert {row[1]: row for row in P} == want


@functools.lru_cache(maxsize=None)
def cover_instance(p, e, n):
    """The scheme instance of the cover over F_{p^e}, with its root elements."""
    space = SymplecticSpace(construct_field(p, e), n)
    return SchemeInstance.from_cover(CoverGraph(CoherenceTable(space)))


@functools.lru_cache(maxsize=None)
def cover_scheme(p, e, n):
    """(intersection tensor, spectral data) of the cover over F_{p^e}."""
    tensor = verify_scheme(cover_instance(p, e, n))
    return tensor, spectral_data(tensor, p**e)


def krein_per_term(sd):
    """q_ij^k = (m_i m_j / N) sum_l P_il P_jl P_kl / k_l^2, term by term."""
    P, m, k = sd.P, sd.Q[0], sd.P[0]
    d = len(P) - 1
    out = [[[None] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for i, j, kk in itertools.product(range(d + 1), repeat=3):
        acc = QuadExt(0, 0, P[0][0].q)
        for ell in range(d + 1):
            acc = acc + P[i][ell] * P[j][ell] * P[kk][ell] / (k[ell] * k[ell])
        out[i][j][kk] = m[i] * m[j] * acc / sd.N
    return out


COVERS = [(5, 1, 1), (3, 2, 1), (13, 1, 1), (5, 1, 2), (3, 2, 2)]


def siegel_translations(spec, n):
    """[[I, S], [0, I]] for S = c (E_ij + E_ji), i <= j, c over the F_p-basis
    p^0..p^(e-1) of the codes: they generate the translations by symmetric
    S, which fix the span of f_1..f_n and so are not transitive."""
    out = []
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        for c in spec.p ** np.arange(spec.e):
            g = np.eye(2 * n, dtype=np.int16)
            g[i, n + j] = g[j, n + i] = c
            out.append(g)
    return out


class TestCoverGroup:
    """The root elements' action on the generators, the switching law on
    every pair, and the rows of A_1 A_b at one point per orbit."""

    @pytest.mark.parametrize("p,e,n", COVERS)
    def test_matches_matmul_tensor(self, p, e, n):
        # The oracle multiplies all the N x N relation matrices.
        tensor, _ = cover_scheme(p, e, n)
        instance = cover_instance(p, e, n)
        assert tensor.p == matmul_tensor(instance.relation_matrix(), instance.d)

    @pytest.mark.parametrize("p,e,n", COVERS)
    def test_root_elements_are_transitive(self, p, e, n):
        instance = cover_instance(p, e, n)
        assert len(instance.pi) == 2 * n
        reps = scheme_core._orbit_representatives(instance.pi, len(instance.matrix))
        assert reps.tolist() == [0]

    @pytest.mark.parametrize("p,e,n", [(5, 1, 1), (3, 2, 1), (5, 1, 2), (3, 2, 2)])
    def test_action_matches_oracle(self, p, e, n):
        # pi from the scalar RREF of each image X g, and f as chi of the
        # determinant of the coordinates of X g on that RREF basis, which
        # are X g's columns at the RREF's pivots.
        instance = cover_instance(p, e, n)
        space = SymplecticSpace(construct_field(p, e), n)
        f = reference(space.spec)
        for g, pi, switch in zip(root_elements(space.spec, n), instance.pi, instance.f):
            assert verify_similarity(space, g.tolist(), 1)
            for x, basis in enumerate(bases(space)):
                image = mat_mul([list(row) for row in basis], g.tolist(), f)
                pivots = [next(c for c, v in enumerate(row) if v)
                          for row in rref(space.spec, image)]
                coordinates = [[row[c] for c in pivots] for row in image]
                assert pi[x] == generator_index(space, image)
                assert switch[x] == f.chi(gauss_jordan(coordinates, n, f)[1])

    def test_non_symplectic_element_refused(self):
        space = SymplecticSpace(construct_field(5, 1), 1)
        g = np.array([[2, 0], [0, 1]], dtype=np.int16)      # B(u g, v g) = 2 B(u, v)
        with pytest.raises(ValueError, match="element 1 is not symplectic"):
            group_action(space, [np.eye(2, dtype=np.int16), g])

    @pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
    def test_siegel_translations_one_row_per_orbit(self, p, e, monkeypatch):
        # At n = 2 the translations have q + 3 orbits: the big cell, the
        # span of f_1, f_2, and the q + 1 classes of a generator meeting it
        # in a line.  One row per orbit gives the tensor of the cover.
        q = p**e
        cover = CoverGraph(CoherenceTable(SymplecticSpace(construct_field(p, e), 2)))
        pi, f = group_action(cover.space, siegel_translations(cover.space.spec, 2))
        instance = dataclasses.replace(cover_instance(p, e, 2), pi=pi, f=f)
        reps = []
        orbit_representatives = scheme_core._orbit_representatives

        def recorded(pi, m):
            reps.append(orbit_representatives(pi, m))
            return reps[-1]
        monkeypatch.setattr(scheme_core, "_orbit_representatives", recorded)
        assert verify_scheme(instance).p == cover_scheme(p, e, 2)[0].p
        assert len(reps[0]) == q + 3

    def test_lifted_group_on_one_sheet(self):
        # The lift 2x + b -> 2 pi(x) + (b XOR [f(x) = -1]) keeps every
        # relation of the N x N index, with no switch on one sheet.
        instance = cover_instance(5, 1, 2)
        lifted = 2 * instance.pi[:, :, None] + (np.arange(2) ^ (instance.f[:, :, None] < 0))
        one_sheet = SchemeInstance(instance.d, instance.relation_matrix(), 1,
                                   lifted.reshape(len(lifted), -1))
        assert verify_scheme(one_sheet).p == cover_scheme(5, 1, 2)[0].p

    @pytest.mark.parametrize("mutation", ["no_switch", "transposition", "flipped_switch"])
    def test_switching_law_refuses_a_wrong_action(self, mutation):
        # f forced to 1, pi[0] composed with a transposition, or one switch
        # flipped: some pair leaves its relation, and the element and the
        # pair are named.
        instance = cover_instance(5, 1, 2)
        pi, f = instance.pi.copy(), instance.f.copy()
        if mutation == "no_switch":
            f[:] = 1
        elif mutation == "transposition":
            pi[0, [3, 7]] = pi[0, [7, 3]]
        else:
            f[1, 5] *= -1
        instance = dataclasses.replace(instance, pi=pi, f=f)
        with pytest.raises(NotInvariant) as exc:
            verify_scheme(instance)
        R, d, g = instance.matrix, instance.d, exc.value.g
        x, y = (v // 2 for v in exc.value.witness)
        want = R[x, y] if f[g, x] == f[g, y] else d - R[x, y]
        assert R[pi[g, x], pi[g, y]] != want

    @pytest.mark.parametrize("pi,f,message", [
        ([[0, 1, 1, 3, 4, 5]], [[1] * 6], "permutation"),
        ([[1, 2, 3, 4, 5, 6]], [[1] * 6], "permutation"),
        ([list(range(6))], [[1, 1, 2, 1, 1, 1]], "f must be"),
        ([list(range(5))], [[1] * 5], "arrays"),
    ], ids=["repeat", "out_of_range", "switch_not_sign", "shape"])
    def test_malformed_group_refused(self, pi, f, message):
        instance = dataclasses.replace(cover_instance(5, 1, 1), pi=np.array(pi),
                                       f=np.array(f))
        with pytest.raises(ValueError, match=message):
            verify_scheme(instance)

    def test_one_sheet_takes_no_switch(self):
        R = pentagon_instance().matrix
        instance = SchemeInstance(2, R, 1, np.array([list(range(5))]),
                                  np.array([[1, -1, 1, 1, 1]]))
        with pytest.raises(ValueError, match="1 on one sheet"):
            verify_scheme(instance)


class TestKreinAndOrderings:
    @pytest.mark.parametrize("p,e,n", COVERS)
    def test_krein_matches_per_term_formula(self, p, e, n):
        _, sd = cover_scheme(p, e, n)
        assert krein(sd) == krein_per_term(sd)

    @pytest.mark.parametrize("p,e,n", COVERS)
    def test_pq_tensor_gives_the_verified_p_tensor(self, p, e, n):
        tensor, sd = cover_scheme(p, e, n)
        assert pq_tensor(sd.P, sd.Q, sd.N) == tensor.p

    @pytest.mark.parametrize("n", [1, 2])
    def test_orderings_match_exhaustive_search(self, n):
        # Every (0, pi) with L*_{pi_1}, read in that ordering, nonzero off
        # the diagonal exactly on the two side diagonals.
        qk = krein(cover_scheme(5, 1, n)[1])
        d = 2 * n + 1
        want = []
        for pi in itertools.permutations(range(1, d + 1)):
            e = (0, *pi)
            if all(bool(qk[e[1]][e[j]][e[k]]) == (abs(k - j) == 1)
                   for k in range(d + 1) for j in range(d + 1) if k != j):
                want.append(e)
        assert want
        assert sorted(q_poly_orderings(qk)) == want

    def test_orderings_of_thirteen_classes(self):
        # The closed-form P at n = 6, q = 5 (d = 13), Q read off P.
        P = eigenmatrices_closed(6, 5).p_full
        N = int(sum(P[0][1:], P[0][0]).a)
        Q = dual_eigenmatrix(P, N)
        assert q_poly_orderings(krein(SpectralData(N, P, Q))) == [
            tuple(range(14)), (0, 13, 2, 11, 4, 9, 6, 7, 8, 5, 10, 3, 12, 1)]

    def test_krein_nonnegative(self, q5n2_scheme):
        for plane in krein(q5n2_scheme["sd"]):
            for row in plane:
                for v in row:
                    assert v.sign() >= 0

    def test_two_q_poly_orderings(self, q5n2_scheme):
        qk = krein(q5n2_scheme["sd"])
        orderings = q_poly_orderings(qk)
        assert sorted(orderings) == [(0, 1, 2, 3, 4, 5), (0, 5, 2, 3, 4, 1)]
        for o in orderings:
            assert q_bipartite_check(qk, o)

    def test_orderings_icosahedron(self, q5n1_scheme):
        qk = krein(q5n1_scheme["sd"])
        orderings = q_poly_orderings(qk)
        assert len(orderings) == 2
        for o in orderings:
            assert o[0] == 0
            assert q_bipartite_check(qk, o)

    def test_conjugate_orderings_swap(self, q5n2_scheme):
        # The two orderings are exchanged by the Galois row permutation of P
        # (r -> -r swaps one conjugate pair of eigenspaces, fixes the rest).
        sd = q5n2_scheme["sd"]
        qk = krein(sd)
        o1, o2 = sorted(q_poly_orderings(qk))
        index_of = {tuple(map(str, row)): i for i, row in enumerate(sd.P)}
        pi = {i: index_of[tuple(str(x.conjugate()) for x in row)]
              for i, row in enumerate(sd.P)}
        assert tuple(pi[j] for j in o1) == o2
        # exactly one transposition
        moved = [i for i in pi if pi[i] != i]
        assert len(moved) == 2 and pi[moved[0]] == moved[1]

    def test_trivial_rank_one_scheme(self):
        # complete graph on 3 points: d = 1, unique ordering (0, 1)
        sd = spectral_data(verify_scheme(triangle_instance()), 5)
        qk = krein(sd)
        assert q_poly_orderings(qk) == [(0, 1)]


class TestDualEigenmatrix:
    """Q read off P by the symmetric-scheme relation, against N times the
    Gauss-Jordan inverse of P, which does not use the relation."""

    @staticmethod
    def assert_n_p_inverse(P, Q, N):
        assert Q == [[N * x for x in row] for row in inverse(P)]
        assert mat_mul(P, Q) == [[N * (i == j) for j in range(len(P))]
                                 for i in range(len(P))]

    @pytest.mark.parametrize("p,e,n", COVERS)
    def test_spectral_data_of_covers(self, p, e, n):
        sd = cover_scheme(p, e, n)[1]
        self.assert_n_p_inverse(sd.P, sd.Q, sd.N)

    @pytest.mark.parametrize("instance", [pentagon_instance, triangle_instance])
    def test_spectral_data_of_small_schemes(self, instance):
        sd = spectral_data(verify_scheme(instance()), 5)
        self.assert_n_p_inverse(sd.P, sd.Q, sd.N)

    @pytest.mark.parametrize("n", [3, 6, 12])
    @pytest.mark.parametrize("q", [5, 101])
    def test_closed_form(self, q, n):
        # N = 2 prod_(1 <= i <= n) (q^i + 1) points of the cover
        P = eigenmatrices_closed(n, q).p_full
        N = 2 * math.prod(q**i + 1 for i in range(1, n + 1))
        self.assert_n_p_inverse(P, dual_eigenmatrix(P, N), N)


class TestEigenvalueResolver:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("q", [5, 9, 13, 125, 169])
    def test_closed_form_spectrum(self, q, n):
        # square q = 9 and 169 and non-squarefree q = 125 = 5^2 * 5 included
        want = [row[1] for row in eigenmatrices_closed(n, q).p_full]
        L1 = l1_closed(n, q)
        got = _exact_eigenvalues(L1, mat_charpoly(L1), q)
        assert sorted(got, reverse=True) == sorted(want, reverse=True)

    @pytest.mark.parametrize("coefficients", [int, Fraction])
    @pytest.mark.parametrize("q,L,want", [
        # x^2 - x - 1: (1 +- sqrt 5)/2, with sqrt 5 = sqrt(q)/s, q = s^2 5
        (5, [[0, 1], [1, 1]], [(Fraction(1, 2), Fraction(1, 2))] * 2),
        (45, [[0, 1], [1, 1]], [(Fraction(1, 2), Fraction(1, 6))] * 2),
        (125, [[0, 1], [1, 1]], [(Fraction(1, 2), Fraction(1, 10))] * 2),
        # x^2 - x - 2 = (x - 2)(x + 1) over a square q: rational roots
        (9, [[0, 2], [1, 1]], [(2, 0), (-1, 0)]),
        (169, [[0, 2], [1, 1]], [(2, 0), (-1, 0)]),
    ], ids=["5", "45", "125", "9", "169"])
    def test_hints_repeated_and_off_the_roots(self, q, L, want, coefficients,
                                              monkeypatch):
        # Every eigenvalue hinted twice, and one hint, 0.3, near no root:
        # each root comes back once, and nothing else does.
        roots = np.linalg.eigvals(np.array(L, dtype=np.float64)).real
        hints = np.concatenate([roots, roots, [0.3]])
        monkeypatch.setattr(np.linalg, "eigvals", lambda A: hints)
        charpoly = [coefficients(c) for c in mat_charpoly(L)]
        got = _exact_eigenvalues(L, charpoly, q)
        if want[0] == want[1]:          # a conjugate pair a +- b sqrt(t)
            (a, b), _ = want
            want = [QuadExt(a, b, q), QuadExt(a, -b, q)]
        else:
            want = [QuadExt(a, b, q) for a, b in want]
        assert sorted(got) == sorted(want) and len(got) == 2
        monkeypatch.setattr(np.linalg, "eigvals", lambda A: np.array([0.3]))
        assert _exact_eigenvalues(L, charpoly, q) == []

    @pytest.mark.parametrize("p,e,n", COVERS)
    def test_krylov_against_oracles(self, p, e, n, monkeypatch):
        # The characteristic polynomial against Faddeev-LeVerrier, and each
        # row of P against the left kernel of L_1 - theta I, scaled to 1.
        t, sd = cover_scheme(p, e, n)
        q, L1 = p**e, intersection_matrix(t, 1)
        seen = []

        def resolve(L, charpoly, q):
            seen.append(charpoly)
            return _exact_eigenvalues(L, charpoly, q)
        monkeypatch.setattr(scheme_core, "_exact_eigenvalues", resolve)
        assert spectral_data(t, q).P == sd.P
        assert seen == [mat_charpoly(L1)]
        for row in sd.P:
            theta = row[1]
            B = [[QuadExt(x, 0, q) - theta * (i == j) for j, x in enumerate(col)]
                 for i, col in enumerate(t.p[1])]
            (u,) = mat_kernel(B)
            assert row == [x / u[0] for x in u]

    def test_heptagon_outside_field(self):
        # C7 distance scheme: eigenvalues 2 cos(2 pi k / 7) are cubic surds
        R = np.array([[min((x - y) % 7, (y - x) % 7) for y in range(7)]
                      for x in range(7)])
        t = verify_scheme(SchemeInstance.from_matrix(R, 3))
        with pytest.raises(EigenvalueOutsideField):
            spectral_data(t, 5)

    def test_klein_four_repeated(self):
        # Z2 x Z2 with R[x, y] = x XOR y: L_1 has eigenvalues 1, 1, -1, -1;
        # verify_scheme refuses it, so the tensor is the oracle's
        R = TestKrylovDerivation.klein_four()
        t = IntersectionTensor(3, len(R), matmul_tensor(R, 3))
        with pytest.raises(RepeatedEigenvalue):
            spectral_data(t, 5)


class TestIdempotents:
    """``spectral_data``'s Q against the relation matrices: the idempotents
    E_j = (1/N) sum_i Q_ij A_i, in exact int64 products."""

    def _a_list(self, instance):
        R = instance.relation_matrix()
        return [(R == i).astype(np.int64) for i in range(instance.d + 1)]

    def test_icosahedron(self, q5n1_scheme):
        sd = q5n1_scheme["sd"]
        report = verify_idempotents(sd, self._a_list(q5n1_scheme["instance"]))
        assert report.ok, report.failure
        assert all(report.checks.values())

    def test_pentagon(self):
        inst = pentagon_instance()
        t = verify_scheme(inst)
        sd = spectral_data(t, 5)
        report = verify_idempotents(sd, self._a_list(inst))
        assert report.ok, report.failure

    def test_perturbed_q_fails(self, q5n1_scheme):
        sd = q5n1_scheme["sd"]
        Q = [list(row) for row in sd.Q]
        Q[1][2] = Q[1][2] + 1
        report = verify_idempotents(dataclasses.replace(sd, Q=Q),
                                    self._a_list(q5n1_scheme["instance"]))
        assert not report.ok
        assert report.failure == "pair (0,2)"
        assert not report.checks["E0E2=0"]


class TestExport:
    def test_json_serializable(self, q5n1_scheme):
        sd = q5n1_scheme["sd"]
        t = q5n1_scheme["tensor"]
        qk = krein(sd)
        blob = export_scheme(sd, t, qk, q_poly_orderings(qk))
        text = json.dumps(blob, sort_keys=True)
        back = json.loads(text)
        assert back["N"] == 12
        assert back["d"] == 3
        assert len(back["P"]) == 4
