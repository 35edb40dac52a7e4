"""Acceptance gate: the eight headline criteria, each as one test.

Every check is exact (rational or Q(r) arithmetic), so the tolerance is
zero throughout.  Each test prints a single PASS line on success; a failed
assertion is the FAIL line.  Criteria with stated runtime budgets time the
work they do themselves (construction included) and assert the budget.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from cover_oracles import adjacency, graph_distances
from polarcover.closed_form import (
    crosscheck_P,
    eigenmatrices_closed,
    l1_closed,
    q_sequence,
    s_family,
    verify_thm71,
)
from polarcover.cover import CoverGraph
from polarcover.exact_algebra import QuadExt, gauss, is_tridiagonal
from polarcover.feasibility import (
    candidate_parameters,
    check_feasibility,
    parse_r,
    verify_Lstar,
)
from polarcover.finite_field import construct_field
from polarcover.maslov import CoherenceTable, verify_two_graph
from polarcover.scheme_core import (
    SchemeInstance,
    class_distances,
    intersection_matrix,
    krein,
    q_bipartite_check,
    q_poly_orderings,
    spectral_data,
    verify_scheme,
)
from polarcover.symplectic import SymplecticSpace
from field_oracles import reference
from linalg_oracles import mat_charpoly
from poly_oracles import assert_e_poly_identities, poly_mul
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


def build(p, e, n):
    space = SymplecticSpace(construct_field(p, e), n)
    table = CoherenceTable(space)
    cover = CoverGraph(table)
    return space, table, cover


def full_verification(cover):
    instance = SchemeInstance.from_cover(cover)
    tensor = verify_scheme(instance)
    sd = spectral_data(tensor, cover.space.spec.q)
    qk = krein(sd)
    orderings = q_poly_orderings(qk)
    return tensor, sd, qk, orderings


def test_criterion_1_icosahedron_identity():
    start = time.perf_counter()
    space, table, cover = build(5, 1, 1)

    assert cover.num_vertices == 12
    A = adjacency(cover)
    assert (A.sum(axis=1) == 5).all()
    assert graph_distances(A).max() == 3 == max(cover.n + 1, 3)

    # exact spectrum {5^1, sqrt5^3, (-1)^5, (-sqrt5)^3} via the factored
    # characteristic polynomial (x-5)(x+1)^5 (x^2-5)^3
    coeffs = mat_charpoly([[Fraction(int(x)) for x in row] for row in A])
    r = QuadExt.root(5)
    roots = [5] + [-1] * 5 + [r] * 3 + [-r] * 3
    assert coeffs == poly_mul(*([-root, 1] for root in roots))

    # closed-form interleaved P equals the spectral P exactly
    tensor, sd, qk, orderings = full_verification(cover)
    report = crosscheck_P(1, 5, sd, eigenmatrices_closed(1, 5))
    assert report.ok, report.failure

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1 s"
    print(f"\nCRITERION 1 PASS: icosahedron identity exact ({elapsed:.2f}s)")


def test_criterion_2_full_scheme_q5_n2():
    start = time.perf_counter()
    space, table, cover = build(5, 1, 2)
    assert cover.num_vertices == 312

    tensor, sd, qk, orderings = full_verification(cover)

    # closed-form L_1, entry for entry
    assert intersection_matrix(tensor, 1) == l1_closed(2, 5)

    # all 36 moment identities, exactly
    rep = verify_thm71(l1_closed(2, 5), q_sequence(2, 5), s_family(2, 5), 5)
    assert rep.ok and rep.identities_checked == 36

    # exactly two Q-polynomial orderings, swapped by r -> -r
    assert sorted(orderings) == [(0, 1, 2, 3, 4, 5), (0, 5, 2, 3, 4, 1)]
    index_of = {tuple(map(str, row)): i for i, row in enumerate(sd.P)}
    pi = {i: index_of[tuple(str(v.conjugate()) for v in row)]
          for i, row in enumerate(sd.P)}
    o1, o2 = sorted(orderings)
    assert tuple(pi[j] for j in o1) == o2
    assert all(q_bipartite_check(qk, o) for o in orderings)

    # closed-form interleaved P equals the spectral P exactly
    report = crosscheck_P(2, 5, sd, eigenmatrices_closed(2, 5))
    assert report.ok, report.failure

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60 s"
    print(f"\nCRITERION 2 PASS: full q=5, n=2 scheme verification ({elapsed:.2f}s)")


def test_criterion_3_square_q_rationality():
    # q = 9: the full verification suite passes and every P/Q entry is
    # rational (r = 3).  No runtime budget is stated for it (~1.6 s on
    # 2 cores).
    for n in (1, 2):
        space, table, cover = build(3, 2, n)
        tensor, sd, qk, orderings = full_verification(cover)
        assert max(class_distances(tensor)) == 3
        assert all(not v.b for row in sd.P for v in row)
        assert all(not v.b for row in sd.Q for v in row)
        assert len(orderings) == 2
        assert all(q_bipartite_check(qk, o) for o in orderings)
        report = crosscheck_P(n, 9, sd, eigenmatrices_closed(n, 9))
        assert report.ok, report.failure

    # q in {5, 13} at n = 1: genuinely irrational splitting field
    for p in (5, 13):
        space, table, cover = build(p, 1, 1)
        tensor, sd, _, _ = full_verification(cover)
        assert any(v.b for row in sd.P for v in row)

    print("\nCRITERION 3 PASS: square-q rationality and non-square irrationality")


def test_criterion_4_coherence_combinatorics_exhaustive():
    space, table, cover = build(5, 1, 2)
    q = 5
    m = 156
    D = space.distance_matrix().astype(np.int64)
    S = table.sigma_matrix().astype(np.int64)

    # every geodesic triple is coherent (exhaustive over ordered triples)
    distinct = ~np.eye(m, dtype=bool)
    for y in range(m):
        geo = (D[:, y][:, None] + D[y, :][None, :]) == D
        geo &= distinct[:, y][:, None] & distinct[y, :][None, :] & distinct
        tri = S[:, y][:, None] * S[y, :][None, :] * S
        assert (tri[geo] == 1).all()

    # every pair at distance k has exactly (q^k - 1)/2 coherent completions
    # (exhaustive over all ordered pairs): (2,2) at k=1, (12,12) at k=2
    for x in range(m):
        for y in range(m):
            k = int(D[x, y])
            if k == 0:
                continue
            zs = np.flatnonzero((D[x] == k) & (D[y] == 1))
            zs = zs[(zs != x) & (zs != y)]
            coh = int((S[x, y] * S[y, zs] * S[zs, x] == 1).sum())
            assert (len(zs), coh) == (q**k - 1, (q**k - 1) // 2)

    # every 4-set has evenly many coherent triples.  Triple signs are
    # products of pair signs, so over a 4-set the four triple signs
    # multiply to +1 (each pair occurs twice) as soon as S is symmetric
    # with off-diagonal entries +-1, which verify_two_graph checks on
    # every pair.
    assert (S == S.T).all() and set(np.unique(S[distinct])) == {-1, 1}
    report = verify_two_graph(table)
    assert report.ok and report.witness is None
    # coherent triples x < y < z, counted directly (vectorized over z)
    coherent = sum(int((S[x, y] * S[y, y + 1:] * S[y + 1:, x] == 1).sum())
                   for x in range(m) for y in range(x + 1, m))
    assert (report.coherent_triples, report.triples_total) \
        == (coherent, m * (m - 1) * (m - 2) // 6)

    # length-3 path counts in the cover (exhaustive via A^3; for
    # non-adjacent endpoint pairs every 3-walk is a path)
    A = adjacency(cover)
    A3 = A @ A @ A
    R = cover.relation_matrix_index()
    dist = graph_distances(A)
    antipodal = R == 5
    assert (dist[antipodal] == 3).all()
    assert (A3[antipodal] == 60).all()              # = q(q^2 - 1)/2
    other3 = (dist == 3) & ~antipodal
    assert other3.any()
    # Ground truth by exhaustive count: distance-3 non-antipodal pairs are
    # joined by 84 length-3 paths.  In the base projection X~Y~Z~W of such
    # a path (d(X,W) = 2) the count splits as 24 = q^2 - 1 paths with a
    # chord (X~Z or Y~W) plus 60 chordless ones with d(X,Z) = d(Y,W) = 2.
    # The antipodality criterion is unaffected: 84 != 60, so the path count
    # still singles out antipodal pairs.
    assert (A3[other3] == 84).all()
    print("\nCRITERION 4 PASS: coherence combinatorics exhaustive, zero tolerance")


def test_criterion_5_invariance_suite():
    space, table, cover = build(5, 1, 2)

    # 500 seeded random symplectic isometries, transformation law exact
    elements = sp_sample_elements(space, 500, seed=2024)
    report = verify_invariance(table, elements, trials=1500, seed=7)
    assert report.ok and report.triples_checked >= 1500, report.failures[:1]

    # the nonsquare similarity maps the reference coherent triple to a
    # non-coherent one (and the eta-perturbed triple is non-coherent)
    eta = reference(space.spec).smallest_nonsquare()
    S = table.sigma_matrix()
    x = generator_index(space, [(1, 0, 0, 0), (0, 1, 0, 0)])
    y = generator_index(space, [(0, 0, 1, 0), (0, 1, 0, 0)])
    z = generator_index(space, [(1, 0, 1, 0), (0, 1, 0, 0)])
    zp = generator_index(space, [(1, 0, eta, 0), (0, 1, 0, 0)])
    assert triple_sign(S, x, y, z) == 1
    assert triple_sign(S, x, y, zp) == -1
    iso = nonsquare_similarity(space)
    assert triple_sign(S, *(generator_image(space, g, iso) for g in (x, y, z))) == -1

    # 10^3 randomized basis-extension recomputations of the pair sign
    rng = random.Random(13)
    found = bases(space)
    for _ in range(1000):
        u, v = rng.sample(range(len(found)), 2)
        assert pair_oracle(space, found[u], found[v], rng=rng)[1] == S[u, v]
    print("\nCRITERION 5 PASS: invariance suite (500 isometries, reference "
          "similarity, 10^3 gauge choices)")


def test_criterion_6_formula_identities():
    start = time.perf_counter()
    qs = [2, 3, 5, 7, 9, 13, Fraction(1, 2), -2]
    rng_nk = range(-6, 11)
    for q in qs:
        qf = Fraction(q)
        for n in rng_nk:
            for k in rng_nk:
                g = gauss(n, k, q)
                # Pascal recurrences, both forms
                assert g == qf**k * gauss(n - 1, k, q) + gauss(n - 1, k - 1, q)
                assert g == gauss(n - 1, k, q) + qf ** (n - k) * gauss(n - 1, k - 1, q)
        # negation identity (with the q^(-C(k,2)) factor the recurrence forces)
        for n in rng_nk:
            for k in range(0, 8):
                rhs = ((-(qf ** (-n))) ** k * qf ** (-(k * (k - 1) // 2))
                       * gauss(n + k - 1, k, q))
                assert gauss(-n, k, q) == rhs
        # product identity
        for n in rng_nk:
            for k in rng_nk:
                for ell in rng_nk:
                    assert (gauss(n, k, q) * gauss(k, ell, q)
                            == gauss(n, ell, q) * gauss(n - ell, k - ell, q))
        # symmetry
        for n in range(0, 11):
            for k in range(0, n + 1):
                assert gauss(n, k, q) == gauss(n, n - k, q)

    # generating-polynomial functional identities, m <= 8
    for q in (5, 9, 13, 25):
        for mdeg in range(9):
            assert_e_poly_identities(q, mdeg)

    # quotient-eigenmatrix residuals identically zero, no graphs involved
    for q in (5, 9, 13, 25, 29):
        for n in range(1, 5):
            eigenmatrices_closed(n, q)   # raises on any nonzero residual

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10 s"
    print(f"\nCRITERION 6 PASS: formula-level identity grids ({elapsed:.2f}s)")


def test_criterion_7_feasibility_tables():
    start = time.perf_counter()

    ps3 = candidate_parameters(parse_r("3"))
    rep3 = check_feasibility(ps3)
    assert rep3.ok, rep3.first_failure
    assert ps3.N == QuadExt(820, 0, 9)
    assert [v.a for v in ps3.P[0]] == [1, 60, 30, 405, 324]
    assert [v.a for v in ps3.Q[0]] == [1, 40, 410, 328, 41]
    assert verify_Lstar(ps3).ok
    assert is_tridiagonal(ps3.Lstar[1])

    for v in (5, 7, 9, 11):
        rep = check_feasibility(candidate_parameters(parse_r(str(v))))
        assert rep.ok, (v, rep.first_failure)

    # r = sqrt(5): infeasible.  Ground truth (recomputed independently from
    # the P/Q templates): the multiplicities ARE integral (1, 12, 78, 52,
    # 13); what fails first is integrality of the valencies 15 +- 3 sqrt(5).
    # The checker reports exactly that.
    ps = candidate_parameters(parse_r("sqrt:5"))
    assert [v.a for v in ps.Q[0]] == [1, 12, 78, 52, 13]
    assert all(v.is_rational() for v in ps.Q[0])
    assert ps.P[0][1] == QuadExt(15, 3, 5)
    rep = check_feasibility(ps)
    assert not rep.ok
    assert rep.first_failure == "valencies_positive_integral"
    names_failing = [n for n, ok, _ in rep.checks if not ok]
    assert "multiplicities_positive_integral" not in names_failing

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5 s"
    print(f"\nCRITERION 7 PASS: feasibility tables, r=3 exact, sqrt(5) "
          f"infeasible at the valency check ({elapsed:.2f}s)")


def test_criterion_8_out_of_scope_statement():
    """Results that are not desk-reproducible are explicitly out of scope.

    The automorphism-group identification theorems and the large-n
    feasibility sweep of the generalized parameter family are not claimed
    or reimplemented here; the library deliberately exposes no group
    identification API.  Their place is taken by the constructive suites:
    the transformation-law verification over sampled symplectic elements
    (criterion 5) and the stored 4-class candidate instance (criterion 7).
    """
    import polarcover

    exported = set(polarcover.__all__) if hasattr(polarcover, "__all__") \
        else set(dir(polarcover))
    assert not any("automorphism" in name.lower() for name in exported)
    assert not any("group_id" in name.lower() for name in exported)
    # the replacement suites do exist
    assert callable(verify_invariance)
    assert hasattr(polarcover, "check_feasibility")
    print("\nCRITERION 8 PASS: non-reproducible results declared out of scope; "
          "replacement property suites present")
