"""Candidate 4-class parameter tables and the feasibility checker."""

from fractions import Fraction

import pytest

from polarcover.exact_algebra import QuadExt, is_tridiagonal
from polarcover.feasibility import (
    candidate_parameters,
    check_feasibility,
    parse_r,
    sweep,
    verify_Lstar,
)


def int_r(v):
    return parse_r(str(v))


class TestParseR:
    def test_integer(self):
        r = parse_r("3")
        assert r == QuadExt(3, 0, 9)

    def test_sqrt(self):
        r = parse_r("sqrt:5")
        assert r == QuadExt.root(5)
        assert r * r == QuadExt(5, 0, 5)

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            parse_r("sqrt:1")
        with pytest.raises(ValueError):
            parse_r("abc")


class TestTemplates:
    def test_rejects_singular_r(self):
        for v in ("0", "1", "-1"):
            with pytest.raises(ZeroDivisionError):
                candidate_parameters(parse_r(v))

    def test_r3_exact_values(self):
        ps = candidate_parameters(int_r(3))
        assert ps.N == QuadExt(820, 0, 9)
        assert [x.a for x in ps.P[0]] == [1, 60, 30, 405, 324]
        assert [x.a for x in ps.Q[0]] == [1, 40, 410, 328, 41]
        # a spot-check entry with a nontrivial denominator
        assert ps.Lstar[1][1][2] == QuadExt(Fraction(1681, 45), 0, 9)

    def test_r3_L_row_sums_are_valencies(self):
        # sum_j L_i[k][j] = k_i for every row k
        ps = candidate_parameters(int_r(3))
        for i in range(5):
            for row in ps.L[i]:
                total = row[0]
                for x in row[1:]:
                    total = total + x
                assert total == ps.P[0][i]

    def test_r3_Lstar_row_sums_are_multiplicities(self):
        ps = candidate_parameters(int_r(3))
        for i in range(5):
            for row in ps.Lstar[i]:
                total = row[0]
                for x in row[1:]:
                    total = total + x
                assert total == ps.Q[0][i]

    def test_L0_Lstar0_are_identity(self):
        ps = candidate_parameters(int_r(3))
        for i in range(5):
            for j in range(5):
                want = QuadExt(1 if i == j else 0, 0, 9)
                assert ps.L[0][i][j] == want
                assert ps.Lstar[0][i][j] == want


class TestChecker:
    @pytest.mark.parametrize("v", [3, 5, 7, 9, 11])
    def test_odd_integers_pass(self, v):
        rep = check_feasibility(candidate_parameters(int_r(v)))
        assert rep.ok, rep.first_failure

    def test_r3_all_checks_present(self):
        rep = check_feasibility(candidate_parameters(int_r(3)))
        names = [n for n, _, _ in rep.checks]
        assert names == [
            "pq_identity",
            "valencies_positive_integral",
            "multiplicities_positive_integral",
            "p_tensor_nonneg_integral",
            "krein_nonneg",
            "handshake",
            "L_consistency",
            "Lstar_consistency",
        ]
        assert rep.as_dict()["ok"] is True

    def test_sqrt5_fails_on_valencies(self):
        # At r = sqrt(5) the multiplicities are integral (1, 12, 78, 52, 13)
        # but the valencies k_1, k_2 = 15 +- 3 sqrt(5) are irrational, so the
        # candidate is infeasible with the valency check as first failure.
        r = parse_r("sqrt:5")
        ps = candidate_parameters(r)
        mults = ps.Q[0]
        assert [m.a for m in mults] == [1, 12, 78, 52, 13]
        assert all(m.is_rational() for m in mults)
        vals = ps.P[0]
        assert vals[1] == QuadExt(15, 3, 5)
        assert vals[2] == QuadExt(15, -3, 5)
        assert vals[3] == QuadExt(75, 0, 5)
        assert vals[4] == QuadExt(50, 0, 5)
        rep = check_feasibility(ps)
        assert not rep.ok
        assert rep.first_failure == "valencies_positive_integral"

    def test_even_r_fails(self):
        # even r makes half-integer valencies
        rep = check_feasibility(candidate_parameters(int_r(2)))
        assert not rep.ok

    def test_checker_never_raises(self):
        for text in ("2", "4", "-3", "sqrt:5", "sqrt:13"):
            check_feasibility(candidate_parameters(parse_r(text)))


CHECK_NAMES = [
    "pq_identity", "valencies_positive_integral",
    "multiplicities_positive_integral", "p_tensor_nonneg_integral",
    "krein_nonneg", "handshake", "L_consistency", "Lstar_consistency",
]

# The witness of each check in CHECK_NAMES order, then that of Lstar_match;
# "" where the check passes.  "3+X": r = 3 with one entry of X raised by 1.
PINNED_WITNESSES = {
    "2": (["", "", "15/2, 85/2, 51/2, 17/2", "p[1][1]^1 = 5/4",
           "q[1][1]^1 = -29/40", "k_1 * N = 1275", "", ""], ""),
    "4": (["", "", "255/2, 4369/2, 3855/2, 257/2", "p[1][1]^1 = 21/4",
           "", "", "", ""], ""),
    "-3": ([""] * 8, ""),
    "sqrt:5": (["", "15+3r, 15+-3r", "", "p[1][1]^0 = 15+3r",
                "q[1][1]^1 = -4/15", "k_1 * N = 2340+468r", "", ""], ""),
    "sqrt:13": (["", "91+7r, 91+-7r", "", "p[1][1]^0 = 91+7r", "",
                 "k_1 * N = 216580+16660r", "", ""], ""),
    "3+L": (["", "", "", "", "", "", "L_2[3][1]", ""], ""),
    "3+Lstar": (["", "", "", "", "", "", "", "Lstar_match"],
                "L*_2[3][1]: template 214/9, computed 205/9"),
    "3+P": (["(PQ)[1][0] = 1", "", "", "p[0][1]^0 = 2/41",
             "q[0][3]^1 = -1/30", "", "L_0[0][1]", "Lstar_match"],
            "L*_0[1][0]: template 0, computed 1/820"),
}


def pinned_parameters(case):
    text, _, perturbed = case.partition("+")
    ps = candidate_parameters(parse_r(text))
    one = QuadExt(1, 0, ps.r.q)
    if perturbed == "P":
        ps.P[1][1] += one
    elif perturbed:
        getattr(ps, perturbed)[2][3][1] += one
    return ps


def report_dict(names, witnesses):
    return {"ok": not any(witnesses),
            "checks": [{"name": n, "ok": not w, "witness": w}
                       for n, w in zip(names, witnesses)]}


@pytest.mark.parametrize("case", list(PINNED_WITNESSES))
def test_pinned_reports(case):
    # Every check's verdict and first witness, in row-major search order.
    witnesses, lstar = PINNED_WITNESSES[case]
    rep = check_feasibility(pinned_parameters(case))
    assert rep.as_dict() == report_dict(CHECK_NAMES, witnesses)
    assert rep.lstar.as_dict() == report_dict(["Lstar_match"], [lstar])


class TestLstar:
    def test_match_at_r3(self):
        ps = candidate_parameters(int_r(3))
        rep = verify_Lstar(ps)
        assert rep.ok, rep.checks

    def test_match_at_sqrt5(self):
        # template consistency is independent of feasibility
        ps = candidate_parameters(parse_r("sqrt:5"))
        assert verify_Lstar(ps).ok

    def test_tridiagonal(self):
        for text in ("3", "5", "sqrt:5"):
            assert is_tridiagonal(candidate_parameters(parse_r(text)).Lstar[1])

    def test_detects_corruption(self):
        ps = candidate_parameters(int_r(3))
        ps.Lstar[1][1][2] = ps.Lstar[1][1][2] + QuadExt(1, 0, 9)
        rep = verify_Lstar(ps)
        assert not rep.ok
        assert "L*_1[1][2]" in rep.checks[0][2]


class TestSweep:
    def test_rows(self):
        rows = sweep([int_r(3), int_r(5), parse_r("sqrt:5"), int_r(2)])
        assert [row["verdict"] for row in rows] == ["pass", "pass", "fail", "fail"]
        assert rows[0] == {"r": "3", "q": 9, "N": "820", "verdict": "pass",
                           "first_failing_check": ""}
        assert rows[2]["first_failing_check"] == "valencies_positive_integral"
        assert rows[2]["q"] == 5

    def test_growth_of_N(self):
        rows = sweep([int_r(v) for v in (3, 5, 7)])
        ns = [int(row["N"]) for row in rows]
        assert ns[0] < ns[1] < ns[2]
        ps5 = candidate_parameters(int_r(5))
        assert ns[1] == ps5.N.a
