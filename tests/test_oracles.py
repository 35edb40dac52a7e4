"""Batched kernels against their per-object oracles.

The chart enumeration is compared with the recursive isotropic extension it
replaced, kept here as the oracle; ``eliminate_batch`` with ``gauss_jordan``;
and the distance and sign matrices with the per-pair ``pair_oracle``.  The
fiber-quotient scheme check of a cover is compared with the one-sheet check
on the relation index that ``relation_index`` gives pair by pair, and with
the p-tensor that int64 products of that index's 0/1 relation matrices give.
"""

import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import product
from math import prod
from pathlib import Path

import numpy as np
import pytest

from cover_oracles import relation_index_matrix
from field_oracles import reference
from linalg_oracles import gauss_jordan, mat_kernel, mat_mul
from polarcover import symplectic
from polarcover.cover import CoverGraph
from polarcover.errors import (
    IdentityNotR0,
    NonConstant,
    NotAPartition,
    NotInvariant,
    NotSymmetric,
    RepeatedEigenvalue,
    SchemeAxiomError,
)
from polarcover.finite_field import construct_field
from polarcover.maslov import CoherenceTable
from polarcover.scheme_core import SchemeInstance, verify_scheme
from polarcover.symplectic import SymplecticSpace, eliminate_batch, gram_batch
from scheme_oracles import matmul_tensor
from symplectic_oracles import bases, bform, pair_oracle, rref

FIELDS = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2), 13: (13, 1)}


def make_space(q, n):
    return SymplecticSpace(construct_field(*FIELDS[q]), n)


def perp_basis(space, basis):
    """Basis of the orthogonal complement of a subspace."""
    unit = [tuple(int(k == j) for k in range(space.dim)) for j in range(space.dim)]
    constraints = [[bform(space, b, e) for e in unit] for b in basis]
    return mat_kernel(constraints, reference(space.spec))


def lines(f, vectors):
    """One spanning vector per line of the span of vectors, which are
    independent: the combinations whose first nonzero coefficient is 1.
    Scalar multiples span the same subspaces, so they add no candidate."""
    add, mul = f.add_t, f.mul_t
    k = len(vectors)
    for lead in range(k):
        for tail in product(range(f.q), repeat=k - 1 - lead):
            v = list(vectors[lead])
            for c, w in zip(tail, vectors[lead + 1:]):
                if c:
                    times = mul[c]
                    v = [add[a][times[b]] for a, b in zip(v, w)]
            yield v


def legacy_enumeration(space):
    """Generators by recursive isotropic extension, deduplicated per dimension,
    as RREF bases in lexicographic order."""
    f, dim = reference(space.spec), space.dim
    unit = [tuple(int(k == j) for k in range(dim)) for j in range(dim)]
    level = {()}
    for _ in range(space.n):
        nxt = set()
        for basis in level:
            for v in lines(f, perp_basis(space, basis) if basis else unit):
                extended = rref(space.spec, basis + (v,))
                if len(extended) > len(basis):
                    nxt.add(extended)
        level = nxt
    return sorted(level)


class TestEnumeration:
    @pytest.mark.parametrize("q,n", [(5, 1), (5, 2), (9, 1), (9, 2), (13, 1)])
    def test_matches_legacy(self, q, n):
        space = make_space(q, n)
        assert bases(space) == legacy_enumeration(space)

    @pytest.mark.parametrize("q,n", [(13, 2), (5, 3)])
    def test_structure(self, q, n):
        space = make_space(q, n)
        found = bases(space)
        assert len(found) == prod(q**i + 1 for i in range(1, n + 1))
        codes, pivots, _ = space.generator_arrays()
        # RREF: increasing pivots, each pivot column a unit column.
        assert (np.diff(pivots, axis=1) > 0).all()
        pivot_columns = np.take_along_axis(codes, np.repeat(pivots[:, None, :], n, axis=1), axis=2)
        assert (pivot_columns == np.eye(n, dtype=codes.dtype)).all()
        assert all(bform(space, u, v) == 0 for basis in found for u in basis for v in basis)
        assert all(a < b for a, b in zip(found, found[1:]))
        assert [[row.index(1) for row in basis] for basis in found] == pivots.tolist()


class TestEliminateBatch:
    @pytest.mark.parametrize("q", [5, 9, 13])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 5), (4, 3)])
    def test_matches_eliminate(self, q, shape):
        spec = construct_field(*FIELDS[q])
        f = reference(spec)
        rng = random.Random(q * 100 + shape[0] * 10 + shape[1])
        r, c = shape
        # Small-support entries make rank-deficient and zero rows common.
        mats = [[[rng.choice((0, 0, 1, rng.randrange(q))) for _ in range(c)]
                 for _ in range(r)] for _ in range(300)]
        M = np.array(mats, dtype=np.intp)
        rank, pivots, pivot_product = eliminate_batch(spec, M)
        for x, rows in enumerate(mats):
            ref_rows = list(rows)
            ref_pivots, det = gauss_jordan(ref_rows, c, f)
            k = len(ref_pivots)
            assert rank[x] == k
            assert pivots[x].tolist() == ref_pivots + [-1] * (r - k)
            assert M[x, :k].tolist() == ref_rows[:k]
            assert not M[x, k:].any()
            if k == r == c:     # otherwise the pivots depend on the row order
                assert pivot_product[x] in (det, f.neg(det))

    @pytest.mark.parametrize("q", [5, 9])
    def test_carried_columns_hold_the_transform(self, q):
        # Eliminating [G | I] on G's columns leaves [R | E] with E G = R.
        spec = construct_field(*FIELDS[q])
        f = reference(spec)
        rng = random.Random(q)
        n = 3
        for _ in range(200):
            G = [[rng.choice((0, rng.randrange(q))) for _ in range(n)] for _ in range(n)]
            M = np.concatenate([np.array([G]), np.eye(n, dtype=np.intp)[None]], axis=2)
            rank, _, _ = eliminate_batch(spec, M, n)
            R, E = M[0, :, :n].tolist(), M[0, :, n:].tolist()
            assert mat_mul(E, G, f) == R
            assert rank[0] == len(gauss_jordan(list(G), n, f)[0])


def _check_rows(space, rows, columns):
    """The signed distance E of the one pair pass against pair_oracle on the
    given pairs: |E| is the distance and sign(E) the sign, as the two
    accessors give them."""
    found = bases(space)
    E = space.signed_distance_matrix()
    assert E.dtype == np.int8 and (np.diagonal(E) == 0).all()
    assert (space.distance_matrix() == np.abs(E)).all()
    assert (CoherenceTable(space).sigma_matrix() == np.sign(E)).all()
    D, S = np.abs(E).tolist(), np.sign(E).tolist()
    wrong = [(x, y) for x in rows for y in columns(x)
             if pair_oracle(space, found[x], found[y]) != (D[x][y], S[x][y])]
    assert not wrong, wrong[:5]


def symmetric_matrices(q, n):
    """Every symmetric n x n matrix over F_q as code rows, in the order of the
    big cell of ``_chart_bases``: the upper triangle, row by row, read as
    base-q digits, most significant first."""
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    for digits in product(range(q), repeat=len(upper)):
        C = [[0] * n for _ in range(n)]
        for (i, j), c in zip(upper, digits):
            C[i][j] = C[j][i] = c
        yield C


def symmetric_index(q, C):
    """Position of the symmetric matrix C in ``symmetric_matrices``."""
    n = len(C)
    index = 0
    for i in range(n):
        for j in range(i, n):
            index = index * q + C[i][j]
    return index


def translation_class(space, Y):
    """(Y*, B') of a generator's RREF basis Y, one generator at a time over the
    scalar F_q, from the definition in ``SymplecticSpace.signed_distance_matrix``:
    with J the f-pivot indices and K the others, T = M^-1 Z on Y's first k
    rows, B' the symmetric matrix with T's upper triangle on K x K and zeros
    on the rows and columns J, and Y* = Y [[I, -B'], [0, I]]."""
    f, n = reference(space.spec), space.n
    J = [p - n for p in (row.index(1) for row in Y) if p >= n]
    K = [i for i in range(n) if i not in J]
    k = len(K)
    rows = [[Y[i][c] for c in K] + [Y[i][n + c] for c in K] for i in range(k)]
    assert len(gauss_jordan(rows, k, f)[0]) == k, "M is singular"
    B = [[0] * n for _ in range(n)]
    for a in range(k):
        for b in range(a, k):
            B[K[a]][K[b]] = B[K[b]][K[a]] = rows[a][k + b]
    star = tuple(tuple(row[:n]) + tuple(map(f.sub, row[n:], mat_mul([list(row[:n])], B, f)[0]))
                 for row in Y)
    return star, B


def big_cell_basis(n, C):
    """The RREF basis [I | C] of a big-cell generator."""
    return tuple(tuple([int(i == j) for j in range(n)] + list(C[i])) for i in range(n))


def table_lanes(space):
    """The lanes of the pair table in order: every ([I | C], Y*) over the
    distinct Y* in lexicographic order, and the symmetric C in the order of
    ``symmetric_matrices``; and the index of each generator's Y*."""
    q, n = space.spec.q, space.n
    stars = [translation_class(space, Y)[0] for Y in bases(space)]
    reps = sorted(set(stars))
    lanes = [(big_cell_basis(n, C), Y) for Y in reps for C in symmetric_matrices(q, n)]
    position = {Y: r for r, Y in enumerate(reps)}
    return lanes, [position[Y] for Y in stars]


def count_gram_lanes(monkeypatch):
    """Counts the Gram matrices that gram_batch forms from now on, wherever
    a polarcover module binds it; the count is the one item of the list."""
    lanes = [0]
    original = symplectic.gram_batch

    def counted(t, XJ, Y):
        G = original(t, XJ, Y)
        lanes[0] += len(G)
        return G

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "polarcover" and getattr(module, "gram_batch", None) is original:
            monkeypatch.setattr(module, "gram_batch", counted)
    return lanes


class TestPairMatrices:
    @pytest.mark.parametrize("q,n", [(5, 1), (5, 2), (9, 1), (9, 2), (13, 1)])
    def test_every_pair(self, q, n):
        space = make_space(q, n)
        m = len(bases(space))
        _check_rows(space, range(m), lambda x: range(x + 1, m))

    def test_q13n2_every_seventh_row(self):
        space = make_space(13, 2)
        m = len(bases(space))
        _check_rows(space, range(0, m, 7), lambda x: (y for y in range(m) if y != x))

    def test_oracle_runs_without_the_pair_pass(self, monkeypatch):
        # With every batched kernel raising, wherever it is bound, pair_oracle
        # still gives |E| and sign(E) on every pair: it shares no code with E.
        space = make_space(5, 2)
        found = bases(space)
        E = space.signed_distance_matrix()
        D, S = np.abs(E).tolist(), np.sign(E).tolist()

        def refuse(*args, **kwargs):
            raise AssertionError("a batched kernel ran")

        names = ["eliminate_batch", "gram_batch", "_pair_kernel", "_chart_bases"]
        originals = {id(getattr(symplectic, name)) for name in names}
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] in ("polarcover", "symplectic_oracles"):
                for attr in names:
                    if id(getattr(module, attr, None)) in originals:
                        monkeypatch.setattr(module, attr, refuse)
        monkeypatch.setattr(SymplecticSpace, "signed_distance_matrix", refuse)
        with pytest.raises(AssertionError, match="batched kernel"):
            make_space(5, 2).distance_matrix()
        for x, y in zip(*np.triu_indices(len(found), 1)):
            assert pair_oracle(space, found[x], found[y]) == (D[x][y], S[x][y])

    @pytest.mark.parametrize("q,n", [(5, 1), (5, 2), (9, 1), (9, 2)])
    def test_big_cell_pairs_read_the_table(self, q, n):
        # For X = [I | A] and any Y, the kernel's input [G | X_Y] is that of
        # ([I | A - B'], Y*); so the table entry of (Y*, A - B'), checked on
        # every lane against pair_oracle, is sigma(X, Y) d(X, Y).
        space = make_space(q, n)
        t, found = space.spec, bases(space)
        codes, pivots, codes_j = space.generator_arrays()
        m = len(found)
        classes = [translation_class(space, Y) for Y in found]
        stars = [star for star, _ in classes]
        index = {basis: y for y, basis in enumerate(found)}
        # Y* is a generator with Y's pivots, and M^-1 Z* is strictly lower
        # triangular: Y* is its own representative, with B' = 0.
        star_index = np.array([index[star] for star in stars])
        assert (pivots[star_index] == pivots).all()
        zero = [[0] * n for _ in range(n)]
        assert all(translation_class(space, star) == (star, zero) for star in stars)

        def kernel_input(X, XJ, Y, Y_pivots):
            X_Y = np.take_along_axis(X, Y_pivots[:, None, :], axis=2)
            return np.concatenate([gram_batch(t, XJ, Y), X_Y], axis=2)

        cell = np.flatnonzero((pivots == np.arange(n)).all(axis=1))
        x, y = (a.ravel() for a in np.meshgrid(cell, np.arange(m), indexing="ij"))
        C = t.sub(codes[x][:, :, n:], np.array([B for _, B in classes], dtype=np.int16)[y])
        eye = np.broadcast_to(np.eye(n, dtype=np.int16), C.shape)
        moved = np.concatenate([eye, C], axis=2)                # [I | A - B']
        moved_j = np.concatenate([t.neg(C), eye], axis=2)       # [I | C] J = [-C | I]
        assert (kernel_input(codes[x], codes_j[x], codes[y], pivots[y])
                == kernel_input(moved, moved_j, codes[star_index[y]], pivots[y])).all()

        lanes, rep_of = table_lanes(space)
        # X == Y only on the diagonal, which the pass sets to 0.
        table = [None if X == Y else pair_oracle(space, X, Y) for X, Y in lanes]
        E = space.signed_distance_matrix()
        cells = q ** (n * (n + 1) // 2)
        for a, b, c in zip(x, y, C.tolist()):
            if a != b:
                lane = rep_of[b] * cells + symmetric_index(q, c)
                assert table[lane] == (abs(E[a, b]), np.sign(E[a, b])), (a, b)
                assert lanes[lane][1] == stars[b]

    @pytest.mark.parametrize("distance_first", [True, False])
    def test_one_pass_in_either_order(self, distance_first, monkeypatch):
        space = make_space(5, 2)
        m = len(space.generator_arrays()[0])
        R = len(set(translation_class(space, Y)[0] for Y in bases(space)))
        lanes = count_gram_lanes(monkeypatch)
        calls = [space.distance_matrix, CoherenceTable(space).sigma_matrix]
        for call in calls if distance_first else calls[::-1]:
            call()
            call()
        # The space keeps E alone: the two views are new arrays on every call.
        kept = [v for v in vars(space).values() if isinstance(v, np.ndarray)]
        assert [(v.shape, v.dtype) for v in kept] == [((m, m), np.int8)]
        assert space.distance_matrix() is not space.distance_matrix()
        # One product M B_K per generator with an e-pivot row, all but
        # <f_1, f_2>, for the translation classes; the table over the R
        # representatives Y* times the q^3 symmetric C; then every pair with
        # both members outside the big cell of q^3 generators.
        cell = 5 ** 3
        assert R == 5 + 3
        assert lanes[0] == (m - 1) + R * cell + (m - cell) * (m - cell - 1) // 2
        assert lanes[0] == 155 + 1000 + 465

    @pytest.mark.parametrize("n", [1, 2])
    def test_tail_elimination_only_below_rank_n(self, n, monkeypatch):
        # At rank n, M_Y is a permutation matrix and its elimination is skipped.
        # The lanes below rank n are the table lanes at distance < n and the
        # pairs at distance < n with both members outside the big cell.
        tail_lanes = 0

        def counted(t, M, ncols=None):
            nonlocal tail_lanes
            if M.shape[1:] == (n, n):
                tail_lanes += len(M)
            return eliminate_batch(t, M, ncols)

        monkeypatch.setattr(symplectic, "eliminate_batch", counted)
        space = make_space(5, n)
        CoherenceTable(space).sigma_matrix()
        D = space.distance_matrix()
        _, pivots, _ = space.generator_arrays()
        outside = ~(pivots == np.arange(n)).all(axis=1)
        lanes, _ = table_lanes(space)
        singular = sum(X == Y or pair_oracle(space, X, Y)[0] < n for X, Y in lanes)
        below = np.triu(D < n, 1) & outside[:, None] & outside[None, :]
        assert tail_lanes == singular + int(below.sum())
        assert tail_lanes == (1 + 0 if n == 1 else 175 + 90)

    def test_singular_e_part_names_the_basis(self):
        # Pivots (0, 2) at n = 2 give J = {0}, K = {1} and M = Y[:1, K] = 0.
        # Such a basis is not isotropic, so no generator has it.
        Y = np.array([[[1, 0, 0, 2], [0, 0, 1, 3]]], dtype=np.int16)
        with pytest.raises(AssertionError,
                           match=r"singular e-part at Y = \[\[1, 0, 0, 2\], \[0, 0, 1, 3\]\]"):
            symplectic._translation_classes(construct_field(5, 1), Y, np.array([[0, 2]]), 2)

    def test_peak_is_the_results_and_one_row_block(self, monkeypatch):
        # E takes m^2 bytes.  The gather writes each row block of
        # big-cell X to its rows and to the columns of the generators outside
        # the big cell; the block's lanes, gathered digits and values take
        # about 17 bytes an entry, and 64 also cover the small tables the
        # gather reads.  A copy of all big-cell rows at once (m_big x m bytes,
        # 598 KB here) exceeds the bound.  The eliminations' working arrays
        # grow with PAIR_CHUNK, not with m; a small chunk keeps them below
        # the bound, so that the gather sets the peak.
        monkeypatch.setattr(symplectic, "PAIR_CHUNK", 1 << 9)
        space = make_space(9, 2)
        m = len(space.generator_arrays()[0])
        tracemalloc.start()
        try:
            space.signed_distance_matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= m * m + 64 * symplectic.GATHER_BLOCK

    def test_cold_pass_imports_nothing(self):
        # A fresh interpreter, so no other test's imports count.  A module
        # that numpy imports lazily on a first call (1-D np.unique does) would
        # be paid on every cold start of the graph path.
        script = ("import sys\n"
                  "from polarcover.finite_field import construct_field\n"
                  "from polarcover.symplectic import SymplecticSpace\n"
                  "space = SymplecticSpace(construct_field(5, 1), 1)\n"
                  "before = set(sys.modules)\n"
                  "space.signed_distance_matrix()\n"
                  "print(sorted(set(sys.modules) ^ before))\n")
        src = Path(symplectic.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stdout.split() == ["[]"], proc.stdout + proc.stderr

    @pytest.mark.parametrize("q,n", [(7, 1), (7, 2), (3, 2)])
    def test_distance_for_q_3_mod_4(self, q, n):
        space = make_space(q, n)
        found = bases(space)
        want = np.zeros((len(found),) * 2, dtype=np.int8)
        for x, y in zip(*np.triu_indices(len(found), 1)):
            want[x, y] = want[y, x] = pair_oracle(space, found[x], found[y])[0]
        E = space.signed_distance_matrix()
        assert (np.abs(E) == want).all() and (space.distance_matrix() == want).all()


def edited_cover(q, n, edit, group=False):
    """A cover whose pair data are copies of (D, S) changed by edit(D, S):
    ``relation_index`` reads them, and ``from_cover`` their product E = S D.
    An edit breaks the root elements' switching law, so the cover carries
    the trivial group unless group is set."""
    space = make_space(q, n)
    table = CoherenceTable(space)
    D, S = space.distance_matrix(), table.sigma_matrix()     # new arrays
    edit(D, S)
    E = S * D
    space.distance_matrix = lambda: D
    table.sigma_matrix = lambda: S
    space.signed_distance_matrix = lambda: E
    cover = CoverGraph(table)
    if not group:
        cover.root_action = lambda: (None, None)
    return cover


def both_paths(cover):
    """The fiber quotient of a cover, and the one-sheet instance of the
    relation index that ``relation_index`` gives pair by pair."""
    one_sheet = SchemeInstance.from_matrix(relation_index_matrix(cover),
                                           2 * cover.n + 1)
    return SchemeInstance.from_cover(cover), one_sheet


def first_edge(D):
    return 0, int(np.flatnonzero(D[0] == 1)[0])


def assert_nonconstant_witness(exc, R):
    """The witness (a, b) is in relation k, and (A_i A_j)[a, b] differs from
    that product's value at another relation-k pair."""
    a, b = exc.witness
    M = (R == exc.i).astype(np.int64) @ (R == exc.j).astype(np.int64)
    assert R[a, b] == exc.k
    assert (M[R == exc.k] != M[a, b]).any()


class TestSchemeQuotient:
    @pytest.mark.parametrize("q,n", [(5, 1), (9, 1), (13, 1), (5, 2)])
    def test_matches_one_sheet(self, q, n):
        cover = CoverGraph(CoherenceTable(make_space(q, n)))
        quotient, one_sheet = both_paths(cover)
        assert (quotient.relation_matrix() == one_sheet.relation_matrix()).all()
        got, want = verify_scheme(quotient), verify_scheme(one_sheet)
        assert (got.N, got.p) == (want.N, want.p)

    @pytest.mark.parametrize("q,n", [(5, 1), (9, 1), (13, 1), (5, 2)])
    def test_matches_integer_matmul(self, q, n):
        # p_ij^k from int64 matmul of the pair-by-pair relation index
        cover = CoverGraph(CoherenceTable(make_space(q, n)))
        want = matmul_tensor(relation_index_matrix(cover), 2 * cover.n + 1)
        assert verify_scheme(SchemeInstance.from_cover(cover)).p == want

    @pytest.mark.parametrize("m,schemes", [(4, 16), (5, 32)])
    def test_every_signed_complete_graph(self, m, schemes):
        # Each sign pattern on the edges of K_m is a 3-class double cover
        # candidate; few are schemes, and some fail only on cross-sheet
        # pairs.  Half the schemes have an A_1 with a repeated eigenvalue,
        # which both paths refuse; every other candidate is NonConstant.
        def outcome(instance):
            try:
                return verify_scheme(instance).p
            except (SchemeAxiomError, RepeatedEigenvalue) as exc:
                return exc

        edges = [(x, y) for x in range(m) for y in range(x + 1, m)]
        found = Counter()
        for bits in range(2 ** len(edges)):
            R = np.zeros((m, m), dtype=np.int8)
            for t, (x, y) in enumerate(edges):
                R[x, y] = R[y, x] = 1 + (bits >> t & 1)
            quotient = SchemeInstance(3, R, sheets=2)
            got = outcome(quotient)
            want = outcome(SchemeInstance.from_matrix(quotient.relation_matrix(), 3))
            if isinstance(got, list):
                assert got == want, bits
                found["scheme"] += 1
            else:
                assert type(got) is type(want), bits
                found[type(got).__name__] += 1
                if isinstance(got, NonConstant):
                    assert_nonconstant_witness(got, quotient.relation_matrix())
        assert found == {"scheme": schemes // 2, "RepeatedEigenvalue": schemes // 2,
                         "NonConstant": 2 ** len(edges) - schemes}

    def test_random_five_class_candidates(self):
        # Random 5-class double cover candidates on 6 fibers; none is a
        # scheme.  Some fail where U_a U_b and V_a V_b both differ but
        # their sum does not, so only the cross-sheet block is nonconstant
        # there, and the witness must be read from that block.
        rng = np.random.default_rng(5)
        m = 6
        upper = np.triu_indices(m, 1)
        for trial in range(500):
            R = np.zeros((m, m), dtype=np.int8)
            R[upper] = rng.integers(1, 5, len(upper[0]))
            R += R.T
            quotient = SchemeInstance(5, R, sheets=2)
            N = quotient.relation_matrix()
            with pytest.raises(SchemeAxiomError) as one_sheet:
                verify_scheme(SchemeInstance.from_matrix(N, 5))
            with pytest.raises(type(one_sheet.value)) as exc:
                verify_scheme(quotient)
            if isinstance(exc.value, NonConstant):
                assert_nonconstant_witness(exc.value, N)

    def test_flipped_sign_nonconstant(self):
        def flip(D, S):
            x, y = first_edge(D)
            S[x, y] = S[y, x] = -S[x, y]

        cover = edited_cover(5, 2, flip)
        quotient, one_sheet = both_paths(cover)
        with pytest.raises(NonConstant):
            verify_scheme(one_sheet)
        with pytest.raises(NonConstant) as exc:
            verify_scheme(quotient)
        assert_nonconstant_witness(exc.value, one_sheet.relation_matrix())

    def test_flipped_sign_breaks_the_switching_law(self):
        # With the root elements kept, the flipped pair is refused before
        # any row is counted: some element maps a pair out of its relation.
        def flip(D, S):
            x, y = first_edge(D)
            S[x, y] = S[y, x] = -S[x, y]

        cover = edited_cover(5, 2, flip, group=True)
        flipped = set(first_edge(cover.space.distance_matrix()))
        instance = SchemeInstance.from_cover(cover)
        with pytest.raises(NotInvariant) as exc:
            verify_scheme(instance)
        R, d = instance.matrix, instance.d
        (a, b), g = exc.value.witness, exc.value.g
        x, y = a // 2, b // 2
        pi, f = instance.pi[g], instance.f[g]
        want = R[x, y] if f[x] == f[y] else d - R[x, y]
        assert R[pi[x], pi[y]] != want
        # The unedited pairs keep the law, so the witness or its image is
        # the flipped pair.
        assert flipped in ({x, y}, {pi[x], pi[y]})

    def test_asymmetric_distance(self):
        def skew(D, S):
            x, y = first_edge(D)
            D[x, y] = 2

        quotient, one_sheet = both_paths(edited_cover(5, 2, skew))
        with pytest.raises(NotSymmetric):
            verify_scheme(one_sheet)
        with pytest.raises(NotSymmetric) as exc:
            verify_scheme(quotient)
        a, b = exc.value.witness
        R = one_sheet.relation_matrix()
        assert R[a, b] == exc.value.relation != R[b, a]

    def test_off_diagonal_zero_distance(self):
        def merge(D, S):
            x, y = first_edge(D)
            D[x, y] = D[y, x] = 0

        quotient, one_sheet = both_paths(edited_cover(5, 2, merge))
        with pytest.raises(IdentityNotR0):
            verify_scheme(one_sheet)
        with pytest.raises(IdentityNotR0) as exc:
            verify_scheme(quotient)
        a, b = exc.value.witness
        assert a != b and one_sheet.relation_matrix()[a, b] == 0

    def test_sign_outside_pm1_is_out_of_range(self):
        # E = S D cannot hold a sign outside +-1, so the fiber matrix gets
        # the index -1 itself, where relation_index gives -1 to sign 0.
        def zero(D, S):
            x, y = first_edge(D)
            S[x, y] = S[y, x] = 0

        cover = edited_cover(5, 1, zero)
        one_sheet = SchemeInstance.from_matrix(relation_index_matrix(cover), 3)
        quotient = SchemeInstance.from_cover(CoverGraph(CoherenceTable(make_space(5, 1))))
        x, y = first_edge(cover.space.distance_matrix())
        quotient.matrix[x, y] = quotient.matrix[y, x] = -1
        assert (quotient.relation_matrix() == one_sheet.matrix).all()
        for instance in (quotient, one_sheet):
            with pytest.raises(NotAPartition, match=r"at pair \(0, \d+\)"):
                verify_scheme(instance)
