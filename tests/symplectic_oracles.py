"""Similarities of the symplectic form and the sign law they obey.

An isometry g of B (multiplier 1) permutes the generators and keeps every
triple sign; a similarity with nonsquare multiplier flips the sign of the
triples with odd perimeter.  The functions here build such maps as 2n x 2n
matrices of F_q codes, one generator image at a time, and check that law on
sampled triples.  No command runs them: they are reference checks of the
sign matrix that ``SymplecticSpace.pair_matrices`` computes.
"""

import random
import weakref
from dataclasses import dataclass, field

from polarcover.exact_algebra import mat_mul
from polarcover.maslov import CoherenceTable, sigma_triple
from polarcover.symplectic import Generator, SymplecticSpace, rref


@dataclass(frozen=True)
class Isometry:
    """A linear similarity of B: B(u g, v g) = multiplier * B(u, v)."""

    matrix: tuple  # 2n x 2n, rows = images of basis vectors
    multiplier: int  # field code


# Per space, the enumeration index of each generator's RREF basis.
_gen_index = weakref.WeakKeyDictionary()


def generator_by_basis(space: SymplecticSpace, basis) -> Generator:
    if space not in _gen_index:
        _gen_index[space] = {g.sub.basis: g.id for g in space.generators()}
    return space.generators()[_gen_index[space][basis]]


def generator_image(space: SymplecticSpace, g: Generator, iso: Isometry) -> Generator:
    """Image of a generator under an isometry, located in the enumeration."""
    basis, _ = rref(space.spec, mat_mul(g.sub.basis, iso.matrix, space.spec))
    return generator_by_basis(space, basis)


def _transvection_matrix(space: SymplecticSpace, v, lam):
    """Matrix of x -> x + lam * B(x, v) v, a symplectic transvection."""
    spec, dim = space.spec, space.dim
    rows = []
    for i in range(dim):
        e = tuple(1 if j == i else 0 for j in range(dim))
        c = spec.mul(lam, space.bform(e, v))
        rows.append(tuple(spec.add(a, spec.mul(c, b)) for a, b in zip(e, v)))
    return tuple(rows)


def verify_similarity(space: SymplecticSpace, matrix, multiplier) -> bool:
    """Check B(u g, v g) = multiplier * B(u, v) on all basis pairs."""
    spec, n, dim = space.spec, space.n, space.dim
    gram = [[0] * dim for _ in range(dim)]     # hyperbolic basis
    for i in range(n):
        gram[i][n + i] = 1
        gram[n + i][i] = spec.neg(1)
    for i in range(dim):
        gi = matrix[i]
        for j in range(dim):
            want = spec.mul(multiplier, gram[i][j])
            if space.bform(gi, matrix[j]) != want:
                return False
    return True


def sp_sample_elements(space: SymplecticSpace, count: int, seed: int):
    """Seeded random products of symplectic transvections (multiplier 1)."""
    rng = random.Random(seed)
    spec, dim = space.spec, space.dim
    out = []
    for _ in range(count):
        M = tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))
        for _ in range(rng.randint(3, 8)):
            v = tuple(rng.randrange(spec.q) for _ in range(dim))
            if not any(v):
                continue
            lam = rng.randrange(1, spec.q)
            M = tuple(map(tuple, mat_mul(M, _transvection_matrix(space, v, lam), spec)))
        if not verify_similarity(space, M, 1):
            raise AssertionError("transvection product failed gram preservation")
        out.append(Isometry(M, 1))
    return out


def nonsquare_similarity(space: SymplecticSpace) -> Isometry:
    """The explicit similarity with nonsquare multiplier eta.

    Maps e_1 -> e_1, e_i -> eta e_i (i >= 2), f_1 -> eta f_1, f_i -> f_i,
    so B(u g, v g) = eta B(u, v).
    """
    spec, n, dim = space.spec, space.n, space.dim
    eta = spec.smallest_nonsquare()
    rows = []
    for i in range(dim):
        scale = 1
        if 1 <= i < n:          # e_2 .. e_n
            scale = eta
        elif i == n:            # f_1
            scale = eta
        rows.append(tuple(spec.mul(scale, 1) if j == i else 0 for j in range(dim)))
    iso = Isometry(tuple(rows), eta)
    if not verify_similarity(space, iso.matrix, eta):
        raise AssertionError("similarity construction failed verification")
    return iso


@dataclass
class InvarianceReport:
    ok: bool
    triples_checked: int
    failures: list = field(default_factory=list)


def verify_invariance(table: CoherenceTable, elements, trials=500, seed=0) -> InvarianceReport:
    """Transformation law sigma(Xg,Yg,Zg) = chi(mu)^(perimeter) sigma(X,Y,Z).

    For isometries (mu = 1) this is strict invariance; for a similarity with
    nonsquare multiplier the sign flips exactly when the distance sum
    d(X,Y) + d(Y,Z) + d(Z,X) is odd.
    """
    space = table.space
    spec = space.spec
    gens = space.generators()
    D = space.distance_matrix()
    rng = random.Random(seed)
    failures = []
    checked = 0
    for iso in elements:
        chi_mu = spec.chi_code(iso.multiplier)
        for _ in range(max(1, trials // max(1, len(elements)))):
            X, Y, Z = rng.sample(gens, 3)
            perim = int(D[X.id, Y.id]) + int(D[Y.id, Z.id]) + int(D[Z.id, X.id])
            lhs = sigma_triple(
                table,
                generator_image(space, X, iso),
                generator_image(space, Y, iso),
                generator_image(space, Z, iso),
            )
            rhs = (chi_mu**perim) * sigma_triple(table, X, Y, Z)
            checked += 1
            if lhs != rhs:
                failures.append((iso, X.id, Y.id, Z.id, lhs, rhs))
    return InvarianceReport(not failures, checked, failures)
