"""Per-object references on generators, and the similarities of the form.

A generator is an enumeration index x or its RREF basis ``bases(space)[x]``,
a tuple of code rows.  ``pair_oracle`` computes the distance and the sign of
one pair straight from the definition in ``maslov``'s docstring, with the
exact ``gauss_jordan`` over the scalar F_q of ``field_oracles``; it shares
no code with the batched pass ``SymplecticSpace.signed_distance_matrix``
that it is the reference for.

An isometry g of B (multiplier 1) permutes the generators and keeps every
triple sign; a similarity with nonsquare multiplier flips the sign of the
triples with odd perimeter.  The functions below build such maps as 2n x 2n
matrices of F_q codes, one generator image at a time, and check that law on
sampled triples.  No command runs any of this.
"""

import random
import weakref
from dataclasses import dataclass, field

from field_oracles import reference
from linalg_oracles import gauss_jordan, mat_mul
from polarcover.symplectic import SymplecticSpace


def bform(space: SymplecticSpace, u, v):
    """B(u, v) = sum u_i v_(n+i) - u_(n+i) v_i, in the hyperbolic basis."""
    f, n = reference(space.spec), space.n
    add, sub, mul = f.add_t, f.sub_t, f.mul_t
    acc = 0
    for i in range(n):
        acc = add[acc][sub[mul[u[i]][v[n + i]]][mul[u[n + i]][v[i]]]]
    return acc


def rref(spec, rows):
    """The nonzero rows of the reduced row echelon form, as a tuple of tuples."""
    rows = [list(row) for row in rows]
    pivots, _ = gauss_jordan(rows, len(rows[0]), reference(spec))
    return tuple(map(tuple, rows[:len(pivots)]))


def _det(f, rows):
    rows = list(rows)
    pivots, det = gauss_jordan(rows, len(rows), f)
    assert len(pivots) == len(rows), "singular coordinate matrix"
    return det


# Per space, the RREF bases in enumeration order and their indices.
_bases = weakref.WeakKeyDictionary()


def _indexed(space: SymplecticSpace):
    if space not in _bases:
        found = [tuple(map(tuple, basis)) for basis in space.generator_arrays()[0].tolist()]
        _bases[space] = found, {basis: x for x, basis in enumerate(found)}
    return _bases[space]


def bases(space: SymplecticSpace):
    """The RREF bases of the generators, in enumeration order."""
    return _indexed(space)[0]


def generator_index(space: SymplecticSpace, rows) -> int:
    """Enumeration index of the generator spanned by rows."""
    return _indexed(space)[1][rref(space.spec, rows)]


def _complete(f, basis, tail, rng):
    """Heads completing a tail, given by its coordinate rows on basis, to a
    basis of the generator: the head vectors, and delta, the determinant of
    the coordinate rows of heads + tail.  The heads' coordinate rows are the
    unit rows outside tail's pivot columns, or random rows with rng given."""
    n = len(basis)
    if rng is None:
        if not tail:
            return list(basis), 1       # the coordinate rows form I
        pivots, _ = gauss_jordan([list(row) for row in tail], n, f)
        free = [i for i in range(n) if i not in pivots]
        heads = [[int(i == j) for j in range(n)] for i in free]
        vectors = [basis[i] for i in free]
    else:
        heads = []
        while len(heads) + len(tail) < n:
            row = [rng.randrange(f.q) for _ in range(n)]
            if len(gauss_jordan(heads + [row] + tail, n, f)[0]) > len(heads) + len(tail):
                heads.append(row)
        vectors = mat_mul(heads, basis, f) if heads else []
    return vectors, _det(f, heads + tail)


def pair_oracle(space: SymplecticSpace, X, Y, rng=None):
    """(d(X, Y), sigma(X, Y)) of two distinct generators given by their RREF
    bases, one pair at a time.

    A member of X has its entries at X's pivot columns as its coordinates,
    so each row of Y reduced against X leaves its residue in V / X: zero at
    X's pivot columns, its coordinates at the n others.  The residues, each
    carried with the Y-coordinates of its row, are
    eliminated: the rank is d, and the null rows hold the Y-coordinates of a
    basis of X meet Y, the tail, whose X-coordinates are its entries at X's
    pivots.  Each side completes the tail to a basis (``_complete``), and
    sigma = chi(delta_X * delta_Y * det[B(x_i, y_j)]) over the heads.  At
    q = 3 mod 4 the sign is computed but has no meaning.
    """
    if X == Y:
        raise ValueError("pair_oracle requires distinct generators")
    f, n = reference(space.spec), space.n
    add, sub, mul, neg = f.add_t, f.sub_t, f.mul_t, f.neg_t
    pivots = [row.index(1) for row in X]
    free = [c for c in range(2 * n) if c not in pivots]
    rows = []
    for j, y in enumerate(Y):
        residue = [y[c] for c in free]
        for x, p in zip(X, pivots):
            if y[p]:
                times = mul[y[p]]
                residue = [sub[a][times[x[c]]] for a, c in zip(residue, free)]
        rows.append(residue + [int(i == j) for i in range(n)])
    d = len(gauss_jordan(rows, n, f)[0])
    tail_y = [row[n:] for row in rows[d:]]
    tail_x = mat_mul(tail_y, [[y[p] for p in pivots] for y in Y], f) if tail_y else []
    heads_x, delta_x = _complete(f, X, tail_x, rng)
    heads_y, delta_y = _complete(f, Y, tail_y, rng)
    # B(u, v) is the dot product of u J = (-u_f, u_e) with v.
    gram = []
    for u in heads_x:
        uj = [neg[c] for c in u[n:]] + list(u[:n])
        row = []
        for v in heads_y:
            acc = 0
            for a, b in zip(uj, v):
                acc = add[acc][mul[a][b]]
            row.append(acc)
        gram.append(row)
    return d, f.chi(mul[mul[delta_x][delta_y]][_det(f, gram)])


@dataclass(frozen=True)
class Isometry:
    """A linear similarity of B: B(u g, v g) = multiplier * B(u, v)."""

    matrix: tuple  # 2n x 2n, rows = images of basis vectors
    multiplier: int  # field code


def generator_image(space: SymplecticSpace, x: int, iso: Isometry) -> int:
    """Index of the image of generator x under an isometry."""
    return generator_index(space, mat_mul(bases(space)[x], iso.matrix, reference(space.spec)))


def _transvection_matrix(space: SymplecticSpace, v, lam):
    """Matrix of x -> x + lam * B(x, v) v, a symplectic transvection."""
    f, dim = reference(space.spec), space.dim
    rows = []
    for i in range(dim):
        e = tuple(1 if j == i else 0 for j in range(dim))
        c = f.mul(lam, bform(space, e, v))
        rows.append(tuple(f.add(a, f.mul(c, b)) for a, b in zip(e, v)))
    return tuple(rows)


def verify_similarity(space: SymplecticSpace, matrix, multiplier) -> bool:
    """Check B(u g, v g) = multiplier * B(u, v) on all basis pairs."""
    f, n, dim = reference(space.spec), space.n, space.dim
    gram = [[0] * dim for _ in range(dim)]     # hyperbolic basis
    for i in range(n):
        gram[i][n + i] = 1
        gram[n + i][i] = f.neg(1)
    for i in range(dim):
        gi = matrix[i]
        for j in range(dim):
            want = f.mul(multiplier, gram[i][j])
            if bform(space, gi, matrix[j]) != want:
                return False
    return True


def sp_sample_elements(space: SymplecticSpace, count: int, seed: int):
    """Seeded random products of symplectic transvections (multiplier 1)."""
    rng = random.Random(seed)
    f, dim = reference(space.spec), space.dim
    out = []
    for _ in range(count):
        M = tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))
        for _ in range(rng.randint(3, 8)):
            v = tuple(rng.randrange(f.q) for _ in range(dim))
            if not any(v):
                continue
            lam = rng.randrange(1, f.q)
            M = tuple(map(tuple, mat_mul(M, _transvection_matrix(space, v, lam), f)))
        if not verify_similarity(space, M, 1):
            raise AssertionError("transvection product failed gram preservation")
        out.append(Isometry(M, 1))
    return out


def nonsquare_similarity(space: SymplecticSpace) -> Isometry:
    """The explicit similarity with nonsquare multiplier eta.

    Maps e_1 -> e_1, e_i -> eta e_i (i >= 2), f_1 -> eta f_1, f_i -> f_i,
    so B(u g, v g) = eta B(u, v).
    """
    f, n, dim = reference(space.spec), space.n, space.dim
    eta = f.smallest_nonsquare()
    rows = []
    for i in range(dim):
        scale = 1
        if 1 <= i < n:          # e_2 .. e_n
            scale = eta
        elif i == n:            # f_1
            scale = eta
        rows.append(tuple(f.mul(scale, 1) if j == i else 0 for j in range(dim)))
    iso = Isometry(tuple(rows), eta)
    if not verify_similarity(space, iso.matrix, eta):
        raise AssertionError("similarity construction failed verification")
    return iso


def triple_sign(S, x, y, z):
    """sigma(x, y) sigma(y, z) sigma(z, x), read off the sign matrix."""
    return int(S[x, y]) * int(S[y, z]) * int(S[z, x])


@dataclass
class InvarianceReport:
    ok: bool
    triples_checked: int
    failures: list = field(default_factory=list)


def verify_invariance(table, elements, trials=500, seed=0) -> InvarianceReport:
    """Transformation law sigma(Xg,Yg,Zg) = chi(mu)^(perimeter) sigma(X,Y,Z).

    For isometries (mu = 1) this is strict invariance; for a similarity with
    nonsquare multiplier the sign flips exactly when the distance sum
    d(X,Y) + d(Y,Z) + d(Z,X) is odd.
    """
    space = table.space
    chi = reference(space.spec).chi
    m = len(bases(space))
    D = space.distance_matrix()
    S = table.sigma_matrix()
    rng = random.Random(seed)
    failures = []
    checked = 0
    for iso in elements:
        chi_mu = chi(iso.multiplier)
        for _ in range(max(1, trials // max(1, len(elements)))):
            x, y, z = rng.sample(range(m), 3)
            perim = int(D[x, y]) + int(D[y, z]) + int(D[z, x])
            lhs = triple_sign(S, *(generator_image(space, g, iso) for g in (x, y, z)))
            rhs = (chi_mu**perim) * triple_sign(S, x, y, z)
            checked += 1
            if lhs != rhs:
                failures.append((iso, x, y, z, lhs, rhs))
    return InvarianceReport(not failures, checked, failures)
