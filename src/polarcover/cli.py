"""Command-line driver.

Subcommands: enumerate, scheme, crosscheck, feasibility, selftest.
Exit codes: 0 success, 1 mathematical verification failure, 2 invalid
input, 3 resource cap exceeded.  JSON output is canonical (sorted keys),
so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
import time

from .errors import PolarcoverError, QNotOneModFour, ResourceCapExceeded

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_INVALID = 2
EXIT_CAP = 3

# Miller-Rabin to the first 12 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86 (2017)); the bound itself is a strong pseudoprime to them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(p):
    """Deterministic Miller-Rabin for 1 < p < MR_EXACT_BELOW."""
    if p in _MR_BASES:
        return True
    if any(p % a == 0 for a in _MR_BASES):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _iroot(q, e):
    """The integer e-th root floor(q^(1/e)) of q >= 1, by Newton's method
    from the power of two above it."""
    if e == 2:
        return math.isqrt(q)
    x = 1 << -(-q.bit_length() // e)
    while True:
        y = ((e - 1) * x + q // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _factor_prime_power(q):
    """(p, e) with q = p^e, p prime; None if q is not a prime power.

    Each exponent e whose integer e-th root p gives p^e = q is tried, and
    p is tested for primality by Miller-Rabin, exact below MR_EXACT_BELOW;
    a larger q raises ValueError."""
    if q >= MR_EXACT_BELOW:
        raise ValueError(f"q = {q} is too large: prime powers are recognized "
                         f"exactly only below {MR_EXACT_BELOW}")
    if q < 2:
        return None
    for e in range(1, q.bit_length()):
        p = _iroot(q, e)
        if p**e == q and _is_prime(p):
            return (p, e)
    return None


def _physical_memory():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_q(q):
    """(p, e) with q = p^e; raises unless q is an odd prime power, 1 mod 4.
    The residue mod 4 is tested first: it costs nothing, while factoring
    q takes an integer root and a Miller-Rabin test per exponent."""
    if q % 2 == 0:
        raise ValueError(f"q = {q} is not an odd prime power")
    if q % 4 != 1:
        raise QNotOneModFour(q)
    pe = _factor_prime_power(q)
    if pe is None:
        raise ValueError(f"q = {q} is not an odd prime power")
    return pe


def _build_space(q, n, peak_bytes):
    """The space with its generators enumerated, once the F_q tables and
    peak_bytes(m, n), the command's peak for its m generators, fit the
    physical memory; else ResourceCapExceeded before the tables are built.
    q >= 2^15 is refused before q is factored."""
    from .finite_field import _check_codes, construct_bytes, construct_field
    _check_codes(q)
    p, e = _check_q(q)
    from .symplectic import SymplecticSpace, generator_count

    predicted = construct_bytes(p, e) + peak_bytes(generator_count(q, n), n)
    limit = _physical_memory()
    if predicted > limit:
        raise ResourceCapExceeded(predicted, limit)
    space = SymplecticSpace(construct_field(p, e), n)
    space.generator_arrays()
    return space


def _verified_cover(q, n):
    """The double cover of (q, n) and its verified intersection tensor."""
    from .cover import CoverGraph
    from .maslov import CoherenceTable
    from .scheme_core import SchemeInstance, verify_scheme, verify_scheme_bytes

    space = _build_space(q, n, lambda m, n: verify_scheme_bytes(2 * m, 2 * n + 1))
    cover = CoverGraph(CoherenceTable(space))
    return cover, verify_scheme(SchemeInstance.from_cover(cover))


# Pieces of JSON text joined into one write: a few blocks of this size are
# all the text held at once, however large the payload.
JSON_BLOCK = 4096
_encode_str = json.encoder.encode_basestring_ascii


def _json_pieces(x, level, out, write):
    """Append to out the pieces of ``json.dumps(x, sort_keys=True, indent=2)``
    for x nested `level` containers deep, one piece per value; after each
    member of a container, once out holds JSON_BLOCK pieces, they are
    joined, passed to write and cleared.

    x is built of dict (str keys), list, tuple, str, int, bool and None;
    any other type, a float among them, raises TypeError.  A module-level
    function, not a closure that refers to itself: such a closure is a
    reference cycle that keeps every call's pieces alive until the cyclic
    collector runs.
    """
    t = type(x)
    if t is str:
        out.append(_encode_str(x))
    elif t is int:
        out.append(int.__repr__(x))
    elif t is bool:
        out.append("true" if x else "false")
    elif x is None:
        out.append("null")
    elif t is dict or t is list or t is tuple:
        if not x:
            out.append("{}" if t is dict else "[]")
            return
        is_dict = t is dict
        if is_dict:
            for key in x:
                if type(key) is not str:
                    raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
        inner = "\n" + "  " * (level + 1)
        sep = ("{" if is_dict else "[") + inner
        for key, value in sorted(x.items()) if is_dict else enumerate(x):
            out.append(sep + _encode_str(key) + ": " if is_dict else sep)
            sep = "," + inner
            _json_pieces(value, level + 1, out, write)
            if len(out) >= JSON_BLOCK:
                write("".join(out))
                out.clear()
        out.append("\n" + "  " * level + ("}" if is_dict else "]"))
    else:
        raise TypeError(f"{t.__name__} is not emitted as JSON")


def _emit(args, payload, csv_rows=None):
    """Write the payload as canonical JSON (sorted keys, indent 2, ASCII,
    one newline at the end), or the csv_rows as CSV under --format csv, to
    --out or stdout.  The JSON goes out in blocks of JSON_BLOCK pieces."""
    with (_open_out(args.out, "w") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if csv_rows is not None and args.format == "csv":
            writer = csv.DictWriter(fh, fieldnames=list(csv_rows[0].keys()))
            writer.writeheader()
            writer.writerows(csv_rows)
            return
        out = []
        _json_pieces(payload, 0, out, fh.write)
        out.append("\n")
        fh.write("".join(out))


def _open_out(path, mode):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}")


def _check_out(path):
    """Raise before any computation if path cannot be opened for writing.

    Opening in append mode leaves an existing file as it is; a file the
    probe creates is removed again.
    """
    existed = os.path.lexists(path)
    _open_out(path, "a").close()
    if not existed:
        os.remove(path)


def cmd_enumerate(args):
    from .symplectic import distance_profile, enumerate_bytes, export_generators

    space = _build_space(args.q, args.n, enumerate_bytes)
    profile = distance_profile(space, 0)
    payload = {
        "q": args.q,
        "n": args.n,
        "count": len(space.generator_arrays()[0]),
        "distance_profile": {str(k): v for k, v in profile.items()},
        "generators": export_generators(space),
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_scheme(args):
    from .scheme_core import (
        export_scheme,
        krein,
        q_bipartite_check,
        q_poly_orderings,
        spectral_data,
    )

    _, tensor = _verified_cover(args.q, args.n)
    sd = spectral_data(tensor, args.q)
    qk = krein(sd)
    orderings = q_poly_orderings(qk)
    if not orderings:
        raise PolarcoverError("no Q-polynomial ordering found")
    payload = export_scheme(sd, tensor, qk, orderings)
    payload["q"] = args.q
    payload["n"] = args.n
    payload["seed"] = args.seed
    payload["q_bipartite"] = [q_bipartite_check(qk, o) for o in orderings]
    _emit(args, payload)
    return EXIT_OK


def cmd_crosscheck(args):
    from .closed_form import (
        eigenmatrices_closed,
        l1_closed,
        q_sequence,
        s_family,
        verify_thm71,
    )

    if args.formula_only:
        _check_q(args.q)
    else:
        _, tensor = _verified_cover(args.q, args.n)
    payload = {"q": args.q, "n": args.n, "formula_only": bool(args.formula_only)}

    cf = eigenmatrices_closed(args.n, args.q)  # residual check happens inside
    L1c = l1_closed(args.n, args.q)
    sigma = q_sequence(args.n, args.q)
    polys = s_family(args.n, args.q)
    rep = verify_thm71(L1c, sigma, polys, args.q)
    payload["closed_identities"] = {
        "quotient_residuals_zero": True,
        "moment_identities_ok": rep.ok,
        "identities_checked": rep.identities_checked,
    }
    if not rep.ok:
        _emit(args, payload)
        return EXIT_MATH_FAIL

    if not args.formula_only:
        from .closed_form import crosscheck_P
        from .scheme_core import intersection_matrix, spectral_data

        L1b = intersection_matrix(tensor, 1)
        payload["l1_matches"] = L1b == L1c
        rep_b = verify_thm71(L1b, sigma, polys, args.q)
        payload["moment_identities_brute_ok"] = rep_b.ok
        sd = spectral_data(tensor, args.q)
        ck = crosscheck_P(args.n, args.q, sd, cf)
        payload["p_matrix_matches"] = ck.ok
        if not ck.ok:
            payload["p_matrix_failure"] = ck.failure
        if not (payload["l1_matches"] and rep_b.ok and ck.ok):
            _emit(args, payload)
            return EXIT_MATH_FAIL
    _emit(args, payload)
    return EXIT_OK


def cmd_feasibility(args):
    from .feasibility import (
        candidate_parameters,
        check_feasibility,
        parse_r,
        sweep,
    )

    if args.sweep:
        r_values = [parse_r(tok) for tok in args.sweep.split(",")]
        rows = sweep(r_values)
        _emit(args, rows, csv_rows=rows)
        return EXIT_OK if all(row["verdict"] == "pass" for row in rows) \
            else EXIT_MATH_FAIL
    if args.format == "csv":
        raise ValueError("--format csv applies only to --sweep")
    ps = candidate_parameters(parse_r(args.r))
    rep = check_feasibility(ps)
    nval = ps.N
    payload = {
        "r": str(ps.r),
        "q": ps.r.q,
        "N": str(nval.a if nval.is_rational() else nval),
        "feasibility": rep.as_dict(),
        "lstar": rep.lstar.as_dict(),
    }
    _emit(args, payload)
    return EXIT_OK if (rep.ok and rep.lstar.ok) else EXIT_MATH_FAIL


def _suite_exact_algebra():
    from fractions import Fraction

    from .exact_algebra import QuadExt, gauss

    assert gauss(4, 2, 5) == 806
    assert gauss(-1, 2, 5) == Fraction(1, 125)
    r = QuadExt.root(5)
    assert (1 + r) * (1 - r) == -4
    assert r**2 == 5
    assert r**3 == r * 5


def _suite_maslov():
    import numpy as np

    from .maslov import CoherenceTable, coherent_split_count, verify_two_graph
    from .symplectic import enumerate_bytes

    space = _build_space(5, 1, enumerate_bytes)
    table = CoherenceTable(space)
    rep = verify_two_graph(table)
    assert rep.ok and rep.coherent_triples == 10
    for x, y in np.argwhere(np.triu(space.distance_matrix() == 1)):
        assert coherent_split_count(table, x, y) == (2, 2)


def _suite_cover():
    from .scheme_core import class_distances

    cover, t = _verified_cover(5, 1)
    assert cover.num_vertices == 12
    assert ((cover.relation_matrix_index() == 1).sum(axis=1) == 5).all()
    # diameter 3, with the antipodes (class 3) at distance 3
    assert class_distances(t) == [0, 1, 2, 3]
    # 3-walks between antipodes, sum_j p_11^j p_j1^3, are paths at
    # distance 3; there are q(q^n - 1)/2 of them
    assert sum(t.p[1][1][j] * t.p[j][1][3] for j in range(4)) == 10


def _suite_scheme():
    from .scheme_core import krein, q_bipartite_check, q_poly_orderings, spectral_data

    _, tensor = _verified_cover(5, 1)
    assert tensor.p[1][1][0] == 5
    qk = krein(spectral_data(tensor, 5))
    orderings = q_poly_orderings(qk)
    assert len(orderings) == 2
    assert all(q_bipartite_check(qk, o) for o in orderings)
    # n = 2: the rows of one representative give L_1, and every p_ab is
    # read off it
    _, tensor = _verified_cover(5, 2)
    assert [tensor.p[i][i][0] for i in range(6)] == [1, 30, 125, 125, 30, 1]


def _suite_closed_form():
    from .closed_form import (
        eigenmatrices_closed,
        l1_closed,
        q_sequence,
        s_family,
        verify_thm71,
    )

    for q, n in ((5, 1), (5, 2), (9, 2), (13, 1)):
        eigenmatrices_closed(n, q)
        rep = verify_thm71(l1_closed(n, q), q_sequence(n, q), s_family(n, q), q)
        assert rep.ok


def _suite_feasibility():
    from .feasibility import (
        candidate_parameters,
        check_feasibility,
        parse_r,
    )

    ps = candidate_parameters(parse_r("3"))
    assert ps.N.a == 820
    assert check_feasibility(ps).ok     # L* included


_SUITES = {
    "exact_algebra": _suite_exact_algebra,
    "maslov": _suite_maslov,
    "cover": _suite_cover,
    "scheme": _suite_scheme,
    "closed_form": _suite_closed_form,
    "feasibility": _suite_feasibility,
}


def cmd_selftest(args):
    failed = []
    for name in [args.suite] if args.suite else _SUITES:
        start = time.perf_counter()
        try:
            _SUITES[name]()
            status = "pass"
        except AssertionError:
            status = "FAIL"
            failed.append(name)
        elapsed = time.perf_counter() - start
        print(f"{name:14s} {status}  ({elapsed:.2f}s)")
    if failed:
        print(f"failing suites: {', '.join(failed)}")
        return EXIT_MATH_FAIL
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="polarcover",
        description="Exact double-cover association scheme toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_qn=True):
        if needs_qn:
            p.add_argument("--q", type=int, required=True,
                           help="odd prime power, 1 mod 4")
            p.add_argument("--n", type=int, required=True,
                           help="half the symplectic dimension")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("enumerate", help="list the maximal isotropic subspaces")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("scheme", help="build and verify the cover scheme")
    common(p)
    p.set_defaults(func=cmd_scheme)

    p = sub.add_parser("crosscheck", help="closed forms vs brute force")
    common(p)
    p.add_argument("--formula-only", action="store_true",
                   help="skip graph construction; formula self-checks only")
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("feasibility", help="candidate parameter checks")
    common(p, needs_qn=False)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--r", default=None, help='integer or "sqrt:<q>"')
    which.add_argument("--sweep", default=None,
                       help="comma-separated list of r values")
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("selftest", help="run the built-in property suites")
    p.add_argument("--suite", choices=list(_SUITES), default=None,
                   help="run a single named suite")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.func(args)
    except ResourceCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (QNotOneModFour, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except PolarcoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL


if __name__ == "__main__":
    sys.exit(main())
