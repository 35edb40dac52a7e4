"""Closed-form L_1, Q-sequence, polynomial family, eigenmatrix formulas."""

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import polarcover.closed_form as closed_form
from polarcover.cli import main
from polarcover.errors import QNotOneModFour
from polarcover.exact_algebra import QuadExt, gauss
from polarcover.closed_form import (
    crosscheck_P,
    drg_abc,
    eigenmatrices_closed,
    l1_closed,
    q_sequence,
    s_family,
    verify_thm71,
)
from polarcover.scheme_core import intersection_matrix

GRID = [(1, 5), (1, 9), (1, 13), (2, 5), (2, 9), (3, 5), (3, 13), (4, 29)]
# Square q (r an integer) at n <= 4 as well: 25 and 81 beside 9.
ORACLE_GRID = [(n, q) for q in (5, 9, 13, 29) for n in range(1, 7)] + \
    [(n, q) for q in (25, 81) for n in range(1, 5)]


def thm71_oracle(L1, sigma, s_polys, q):
    """verify_thm71 term by term: sigma_j ** l per term, Horner for s_l."""
    m = len(L1)
    checked = 0
    for k in range(m):
        for ell in range(m):
            lhs = QuadExt(0, 0, q)
            for j in range(m):
                if L1[k][j]:
                    lhs = lhs + L1[k][j] * sigma[j] ** ell
            rhs = QuadExt(0, 0, q)
            for c in reversed(s_polys[ell]):
                rhs = rhs * sigma[k] + c
            checked += 1
            if lhs != rhs:
                return False, checked, (k, ell, lhs, rhs)
    return True, checked, None


def eigenrow_oracle(n, q, i, j, with_shift):
    """One quotient eigenmatrix entry with r ** e and gauss per term."""
    r = QuadExt.root(q)
    acc = QuadExt(0, 0, q)
    for ell in range(j + 1):
        g = gauss(i, ell, q) * gauss(n - i, j - ell, q)
        if not g:
            continue
        e = (j - ell) ** 2 + ell**2
        if with_shift:
            e += j - 2 * ell
        term = r**e * g
        if ell % 2:
            term = -term
        acc = acc + term
    return acc


def assert_same_report(L1, sigma, polys, q):
    rep = verify_thm71(L1, sigma, polys, q)
    assert (rep.ok, rep.identities_checked, rep.failure) == \
        thm71_oracle(L1, sigma, polys, q)
    return rep


class TestL1Closed:
    def test_rejects_bad_domain(self):
        with pytest.raises(QNotOneModFour):
            l1_closed(2, 7)
        with pytest.raises(ValueError):
            l1_closed(0, 5)

    @pytest.mark.parametrize("n,q", GRID)
    def test_row_sums_are_degree(self, n, q):
        # the cover is regular of degree q [n choose 1]_q
        L = l1_closed(n, q)
        k1 = sum(Fraction(q) ** i for i in range(1, n + 1))
        for row in L:
            assert sum(row) == k1

    def test_mirror_symmetry(self):
        L = l1_closed(3, 5)
        m = len(L)
        for k in range(m):
            for i in range(m):
                assert L[k][i] == L[m - 1 - k][m - 1 - i]

    def test_matches_brute_force_q5n1(self, q5n1_scheme):
        t = q5n1_scheme["tensor"]
        assert l1_closed(1, 5) == intersection_matrix(t, 1)

    def test_matches_brute_force_q5n2(self, q5n2_scheme):
        t = q5n2_scheme["tensor"]
        assert l1_closed(2, 5) == intersection_matrix(t, 1)

    def test_explicit_icosahedron(self):
        # n=1, q=5: L_1 of the icosahedron scheme
        assert l1_closed(1, 5) == [
            [0, 5, 0, 0],
            [1, 2, 2, 0],
            [0, 2, 2, 1],
            [0, 0, 5, 0],
        ]


class TestQSequence:
    @pytest.mark.parametrize("n,q", GRID)
    def test_values_and_distinctness(self, n, q):
        sigma = q_sequence(n, q)
        assert len(sigma) == 2 * n + 2
        assert sigma[0] == QuadExt(1, 0, q)
        r = QuadExt.root(q)
        for j in range(n + 1):
            assert sigma[j] == r ** -j
        for j in range(n + 1, 2 * n + 2):
            assert sigma[j] == -r ** -(2 * n + 1 - j)
        assert len(set(sigma)) == 2 * n + 2

    def test_antisymmetric_pairing(self):
        sigma = q_sequence(2, 5)
        for j in range(6):
            assert sigma[j] == -sigma[5 - j]


class TestSFamily:
    @pytest.mark.parametrize("n,q", GRID)
    def test_family_builds_and_verifies(self, n, q):
        L = l1_closed(n, q)
        sigma = q_sequence(n, q)
        polys = s_family(n, q)
        report = verify_thm71(L, sigma, polys, q)
        assert report.ok, report.failure
        assert report.identities_checked == (2 * n + 2) ** 2

    def test_degrees(self):
        polys = s_family(3, 5)
        for ell, p in enumerate(polys):
            assert len(p) == ell + 1

    def test_degree_drop_at_even_n(self):
        # For even n, 0 is an A_1 eigenvalue and the x^(n+1) coefficient of
        # s_{n+1} vanishes; for odd n it does not.
        polys2 = s_family(2, 5)
        assert polys2[3][3] == QuadExt(0, 0, 5)
        polys1 = s_family(1, 5)
        assert polys1[2][2] != QuadExt(0, 0, 5)
        polys3 = s_family(3, 5)
        assert polys3[4][4] != QuadExt(0, 0, 5)

    def test_leading_coeffs_are_eigenvalues(self, q5n2_scheme):
        # x^l coefficients of the family = spectrum of A_1.
        polys = s_family(2, 5)
        leads = {polys[ell][ell] for ell in range(6)}
        assert leads == {row[1] for row in q5n2_scheme["sd"].P}

    def test_conjugate_sequence_also_verifies(self):
        # Galois conjugation r -> -r of both sigma and the family is again
        # a valid solution of the same identities.
        n, q = 2, 5
        L = l1_closed(n, q)
        sigma = [s.conjugate() for s in q_sequence(n, q)]
        conj = [[c.conjugate() for c in p] for p in s_family(n, q)]
        report = verify_thm71(L, sigma, conj, q)
        assert report.ok, report.failure


class TestThm71Oracle:
    @pytest.mark.parametrize("n,q", ORACLE_GRID)
    def test_matches_oracle(self, n, q):
        rep = assert_same_report(l1_closed(n, q), q_sequence(n, q),
                                 s_family(n, q), q)
        assert rep.ok and rep.identities_checked == (2 * n + 2) ** 2

    @pytest.mark.parametrize("n,q", ORACLE_GRID)
    def test_conjugate_sequence(self, n, q):
        sigma = [s.conjugate() for s in q_sequence(n, q)]
        polys = [[c.conjugate() for c in p] for p in s_family(n, q)]
        assert assert_same_report(l1_closed(n, q), sigma, polys, q).ok

    @pytest.mark.parametrize("n,q", ORACLE_GRID)
    def test_perturbed_l1_entry(self, n, q):
        # Zero and nonzero entries alike: a zero entry joins the support.
        rng = random.Random(100 * n + q)
        sigma, polys = q_sequence(n, q), s_family(n, q)
        m = 2 * n + 2
        for k, j in [(rng.randrange(m), rng.randrange(m)) for _ in range(3)]:
            L = l1_closed(n, q)
            L[k][j] += 1
            rep = assert_same_report(L, sigma, polys, q)
            assert not rep.ok and rep.failure[0] == k

    @pytest.mark.parametrize("n,q", ORACLE_GRID)
    def test_perturbed_s_coefficient(self, n, q):
        # Coefficients inside the degree, at a vanishing x^l coefficient,
        # and one degree past the power table of the sequence.
        rng = random.Random(100 * n + q)
        L, sigma = l1_closed(n, q), q_sequence(n, q)
        m = 2 * n + 2
        for ell in (rng.randrange(m), n + 1, m - 1):
            for i in (rng.randrange(ell + 1), ell, max(ell - 2, 0), m):
                polys = s_family(n, q)
                coeffs = polys[ell]
                coeffs += [QuadExt(0, 0, q)] * (i + 1 - len(coeffs))
                coeffs[i] = coeffs[i] + 1
                rep = assert_same_report(L, sigma, polys, q)
                assert not rep.ok and rep.failure[1] == ell

    @pytest.mark.parametrize("n,q", ORACLE_GRID)
    def test_fractional_l1_entry(self, n, q):
        # A non-integral entry puts L_1 over the denominator 2.
        rng = random.Random(100 * n + q)
        sigma, polys = q_sequence(n, q), s_family(n, q)
        m = 2 * n + 2
        for k, j in [(rng.randrange(m), rng.randrange(m)) for _ in range(3)]:
            L = l1_closed(n, q)
            L[k][j] += Fraction(1, 2)
            rep = assert_same_report(L, sigma, polys, q)
            assert not rep.ok and rep.failure[0] == k

    @pytest.mark.parametrize("n,q", ORACLE_GRID)
    def test_perturbed_sigma(self, n, q):
        # sigma_j moved by an integer, a rational with a new denominator,
        # or a multiple of r; the power table changes at j and at j alone.
        rng = random.Random(100 * n + q)
        L, polys = l1_closed(n, q), s_family(n, q)
        m = 2 * n + 2
        for shift in (1, Fraction(1, 3), QuadExt(0, Fraction(2, 7), q)):
            sigma = q_sequence(n, q)
            j = rng.randrange(m)
            sigma[j] = sigma[j] + shift
            rep = assert_same_report(L, sigma, polys, q)
            assert not rep.ok


class TestEigenmatricesOracle:
    @pytest.mark.parametrize("n,q", ORACLE_GRID)
    def test_matches_oracle(self, n, q):
        cf = eigenmatrices_closed(n, q)
        m = n + 1
        p_tilde = [[eigenrow_oracle(n, q, i, j, True) for j in range(m)]
                   for i in range(m)]
        p_hat = [[eigenrow_oracle(n, q, i, j, False) for j in range(m)]
                 for i in range(m)]
        assert cf.p_tilde == p_tilde
        assert cf.p_hat == p_hat
        p_full = []
        for t in range(m):
            p_full.append([p_tilde[t][min(j, 2 * n + 1 - j)]
                           for j in range(2 * n + 2)])
            p_full.append([p_hat[t][j] if j <= n else -p_hat[t][2 * n + 1 - j]
                           for j in range(2 * n + 2)])
        assert cf.p_full == p_full

    def test_largest_benchmark_instance(self):
        n, q = 12, 101
        cf = eigenmatrices_closed(n, q)
        for i in range(n + 1):
            for j in range(n + 1):
                assert cf.p_tilde[i][j] == eigenrow_oracle(n, q, i, j, True)
                assert cf.p_hat[i][j] == eigenrow_oracle(n, q, i, j, False)

    @pytest.mark.parametrize("q", [5, 9, 13, 81, 101])
    def test_gauss_table_matches_gauss(self, q):
        assert closed_form._gauss_table(13, q) == \
            [[gauss(a, b, q) for b in range(13)] for a in range(13)]

    @staticmethod
    def assert_first_dense_mismatch(n, q, bump, monkeypatch):
        m_tilde = eigenmatrices_closed(n, q).m_tilde
        m_tilde[1][2] += bump
        P = [[eigenrow_oracle(n, q, i, j, True) for j in range(n + 1)]
             for i in range(n + 1)]
        first = next(
            (i, j) for i in range(n + 1) for j in range(n + 1)
            if sum((P[i][ell] * m_tilde[ell][j] for ell in range(n + 1)),
                   QuadExt(0, 0, q)) != P[i][1] * P[i][j])
        abc = closed_form.drg_abc

        def perturbed(n_, q_, k):
            a, b, c = abc(n_, q_, k)
            return a, b + bump * (k == 1), c

        monkeypatch.setattr(closed_form, "drg_abc", perturbed)
        with pytest.raises(AssertionError,
                           match=rf"symmetric quotient residual nonzero at \({first[0]},{first[1]}\)"):
            eigenmatrices_closed(n, q)

    @pytest.mark.parametrize("n,q", [(2, 5), (3, 13), (5, 29)])
    def test_residual_failure_at_first_dense_mismatch(self, n, q, monkeypatch):
        # b_1 + 1 breaks P~ M~ = D~ P~; the first failing (i, j) must be the
        # one a dense product over every entry of M~ finds.
        self.assert_first_dense_mismatch(n, q, 1, monkeypatch)

    @pytest.mark.parametrize("n,q", [(2, 5), (3, 13), (3, 81)])
    def test_fractional_residual_failure(self, n, q, monkeypatch):
        # b_1 + 1/2 puts M~ over the denominator 2.
        self.assert_first_dense_mismatch(n, q, Fraction(1, 2), monkeypatch)


    @pytest.mark.parametrize("n,q", [(3, 5), (4, 13), (5, 29)])
    def test_skew_residual_failure_at_first_dense_mismatch(self, n, q,
                                                           monkeypatch):
        # P^[1][3] + r breaks only P^ M^ = D^ P^, and first in an r part:
        # at (1, 2), through M^[3][2] = c_3.
        m_hat = eigenmatrices_closed(n, q).m_hat
        P = [[eigenrow_oracle(n, q, i, j, False) for j in range(n + 1)]
             for i in range(n + 1)]
        P[1][3] = P[1][3] + QuadExt.root(q)
        first = next(
            (i, j) for i in range(n + 1) for j in range(n + 1)
            if sum((P[i][ell] * m_hat[ell][j] for ell in range(n + 1)),
                   QuadExt(0, 0, q)) != P[i][1] * P[i][j])
        assert first == (1, 2)
        entry = closed_form._quotient_entry

        def perturbed(i, j, with_shift, G, rp):
            x, y = entry(i, j, with_shift, G, rp)
            return (x, y + ((i, j, with_shift) == (1, 3, False)))

        monkeypatch.setattr(closed_form, "_quotient_entry", perturbed)
        with pytest.raises(AssertionError,
                           match=r"skew quotient residual nonzero at \(1,2\)"):
            eigenmatrices_closed(n, q)


class TestEigenmatricesClosed:
    @pytest.mark.parametrize("n,q", GRID)
    def test_residuals_vanish(self, n, q):
        # eigenmatrices_closed raises if P~ M~ = D~ P~ or the skew variant
        # fails; building it at all is the assertion.
        cf = eigenmatrices_closed(n, q)
        assert len(cf.p_full) == 2 * n + 2

    def test_explicit_entries_q5n2(self):
        cf = eigenmatrices_closed(2, 5)
        assert cf.p_tilde[0][0] == QuadExt(1, 0, 5)
        assert cf.p_tilde[0][2] == QuadExt(125, 0, 5)
        assert cf.p_hat[1][1] == QuadExt(0, 0, 5)
        # row 0 of the full P holds the valencies
        assert [x.a for x in cf.p_full[0]] == [1, 30, 125, 125, 30, 1]

    @pytest.mark.parametrize("n,q", GRID)
    def test_row0_total_is_vertex_count(self, n, q):
        cf = eigenmatrices_closed(n, q)
        total = QuadExt(0, 0, q)
        for x in cf.p_full[0]:
            total = total + x
        want = 2
        for i in range(1, n + 1):
            want *= q**i + 1
        assert total == QuadExt(want, 0, q)

    @pytest.mark.parametrize("n,q", GRID)
    def test_interleaving_symmetry(self, n, q):
        # even rows symmetric, odd rows antisymmetric under j <-> 2n+1-j
        cf = eigenmatrices_closed(n, q)
        m = 2 * n + 2
        for i in range(m):
            for j in range(m):
                mirrored = cf.p_full[i][m - 1 - j]
                if i % 2 == 0:
                    assert cf.p_full[i][j] == mirrored
                else:
                    assert cf.p_full[i][j] == -mirrored

    def test_m_tilde_shape(self):
        cf = eigenmatrices_closed(2, 5)
        assert cf.m_tilde == [
            [Fraction(0), Fraction(30), Fraction(0)],
            [Fraction(1), Fraction(4), Fraction(25)],
            [Fraction(0), Fraction(6), Fraction(24)],
        ]
        for i in range(3):
            assert cf.m_hat[i][i] == 0


class TestCrosscheck:
    def test_q5n1(self, q5n1_scheme):
        cf = eigenmatrices_closed(1, 5)
        report = crosscheck_P(1, 5, q5n1_scheme["sd"], cf)
        assert report.ok, report.failure
        assert sorted(report.row_map) == [0, 1, 2, 3]

    def test_q5n2(self, q5n2_scheme):
        cf = eigenmatrices_closed(2, 5)
        report = crosscheck_P(2, 5, q5n2_scheme["sd"], cf)
        assert report.ok, report.failure

    def test_q9n1(self, q9n1):
        from polarcover.scheme_core import spectral_data, verify_scheme

        t = verify_scheme(q9n1["instance"])
        sd = spectral_data(t, 9)
        report = crosscheck_P(1, 9, sd, eigenmatrices_closed(1, 9))
        assert report.ok, report.failure

    def test_exported_p_in_a_namespace(self, capsys):
        # The exported P, read back from JSON into a namespace with d and P
        # only, is all that crosscheck_P needs.
        assert main(["scheme", "--q", "5", "--n", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        P = [[QuadExt.from_json(x) for x in row] for row in payload["P"]]
        sd = SimpleNamespace(d=payload["d"], P=P)
        report = crosscheck_P(1, 5, sd, eigenmatrices_closed(1, 5))
        assert report.ok, report.failure
        assert sorted(report.row_map) == [0, 1, 2, 3]

    def test_detects_mismatch(self, q5n1_scheme):
        cf = eigenmatrices_closed(1, 5)
        cf.p_full[2][2] = cf.p_full[2][2] + QuadExt(1, 0, 5)
        report = crosscheck_P(1, 5, q5n1_scheme["sd"], cf)
        assert not report.ok
        assert "mismatch" in report.failure


class TestDrgAbc:
    def test_values_q5n2(self):
        assert drg_abc(2, 5, 0) == (0, 30, 0)
        assert drg_abc(2, 5, 1) == (4, 25, 1)
        assert drg_abc(2, 5, 2) == (24, 0, 6)

    def test_sum_is_degree(self):
        for n, q in GRID:
            k1 = sum(Fraction(q) ** i for i in range(1, n + 1))
            for k in range(n + 1):
                a, b, c = drg_abc(n, q, k)
                assert a + b + c == k1
