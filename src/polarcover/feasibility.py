"""Feasibility checking for hypothetical scheme parameters.

The 4-class candidate parameter tables are stored once as rational
expressions in r and evaluated exactly at any requested r (an integer or a
square root of a nonsquare).  A generic checker then applies the standard
necessary conditions: eigenmatrix inversion, positive integral valencies
and multiplicities, nonnegative integral intersection numbers recovered
from P and Q, Krein nonnegativity, and the handshake parity.  Failures are
report entries, never exceptions, so parameter sweeps can collect them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exact_algebra import QuadExt, pq_tensor

__all__ = [
    "ParameterSet",
    "FeasibilityReport",
    "candidate_parameters",
    "check_feasibility",
    "verify_Lstar",
    "sweep",
    "parse_r",
]

# Candidate 4-class parameter tables as expressions in r.  The scheme would
# have N = 1 + r^2 + r^4 + r^6 = (r^2 + 1)(r^4 + 1) points, the sum of the
# Q row-0 entries (820 at r = 3).
_P_TEMPLATE = [
    ["1", "(r**4 + r**3 + r**2 + r)/2", "(r**4 - r**3 + r**2 - r)/2",
     "(r**6 + r**4)/2", "(r**6 - r**4)/2"],
    ["1", "(r**3 + r**2 + r - 1)/2", "(-r**3 + r**2 - r - 1)/2",
     "(r**4 - r**2)/2", "(-r**4 - r**2)/2"],
    ["1", "(r**2 - 1)/2", "(r**2 - 1)/2", "-r**2", "0"],
    ["1", "(-r**2 - 1)/2", "(-r**2 - 1)/2", "0", "r**2"],
    ["1", "(-r**3 - r**2 - r - 1)/2", "(r**3 - r**2 + r - 1)/2",
     "(r**4 + r**2)/2", "(-r**4 + r**2)/2"],
]

_Q_TEMPLATE = [
    ["1", "(r**4 - 1)/2", "(r**6 + r**4 + r**2 + 1)/2",
     "(r**6 - r**4 + r**2 - 1)/2", "(r**4 + 1)/2"],
    ["1", "(r**4 - 2*r + 1)/(2*r)", "(r**5 - r**4 + r - 1)/(2*r)",
     "(-r**5 + r**4 - r + 1)/(2*r)", "(-r**4 - 1)/(2*r)"],
    ["1", "(-r**4 - 2*r - 1)/(2*r)", "(r**5 + r**4 + r + 1)/(2*r)",
     "(-r**5 - r**4 - r - 1)/(2*r)", "(r**4 + 1)/(2*r)"],
    ["1", "(r**4 - 2*r**2 + 1)/(2*r**2)", "(-r**4 - 1)/r**2", "0",
     "(r**4 + 1)/(2*r**2)"],
    ["1", "(-r**4 - 2*r**2 - 1)/(2*r**2)", "0", "(r**4 + 1)/r**2",
     "(-r**4 - 1)/(2*r**2)"],
]

_L_TEMPLATES = [
    [["1", "0", "0", "0", "0"],
     ["0", "1", "0", "0", "0"],
     ["0", "0", "1", "0", "0"],
     ["0", "0", "0", "1", "0"],
     ["0", "0", "0", "0", "1"]],
    [["0", "(r**4 + r**3 + r**2 + r)/2", "0", "0", "0"],
     ["1", "(r**2 + 2*r - 3)/4", "(r**2 - 1)/4", "(r**4 + r**3)/2", "0"],
     ["0", "(r**2 + 2*r + 1)/4", "(r**2 - 1)/4", "0", "(r**4 + r**3)/2"],
     ["0", "(r**2 + 2*r + 1)/2", "0", "(r**4 + r**3 + r**2 - r - 2)/4",
      "(r**4 + r**3 - r**2 - r)/4"],
     ["0", "0", "(r**2 + 1)/2", "(r**4 + r**3 + r**2 + r)/4",
      "(r**4 + r**3 - r**2 + r - 2)/4"]],
    [["0", "0", "(r**4 - r**3 + r**2 - r)/2", "0", "0"],
     ["0", "(r**2 - 1)/4", "(r**2 - 2*r + 1)/4", "0", "(r**4 - r**3)/2"],
     ["1", "(r**2 - 1)/4", "(r**2 - 2*r - 3)/4", "(r**4 - r**3)/2", "0"],
     ["0", "0", "(r**2 - 2*r + 1)/2", "(r**4 - r**3 + r**2 + r - 2)/4",
      "(r**4 - r**3 - r**2 + r)/4"],
     ["0", "(r**2 + 1)/2", "0", "(r**4 - r**3 + r**2 - r)/4",
      "(r**4 - r**3 - r**2 - r - 2)/4"]],
    [["0", "0", "0", "(r**6 + r**4)/2", "0"],
     ["0", "(r**4 + r**3)/2", "0", "(r**6 + r**4 - 2*r**3)/4",
      "(r**6 - r**4)/4"],
     ["0", "0", "(r**4 - r**3)/2", "(r**6 + r**4 + 2*r**3)/4",
      "(r**6 - r**4)/4"],
     ["1", "(r**4 + r**3 + r**2 - r - 2)/4", "(r**4 - r**3 + r**2 + r - 2)/4",
      "(r**6 + 2*r**4 - 3*r**2)/4", "(r**6 - 2*r**4 + r**2)/4"],
     ["0", "(r**4 + r**3 + r**2 + r)/4", "(r**4 - r**3 + r**2 - r)/4",
      "(r**6 - r**2)/4", "(r**6 - r**2)/4"]],
    [["0", "0", "0", "0", "(r**6 - r**4)/2"],
     ["0", "0", "(r**4 - r**3)/2", "(r**6 - r**4)/4",
      "(r**6 - 3*r**4 + 2*r**3)/4"],
     ["0", "(r**4 + r**3)/2", "0", "(r**6 - r**4)/4",
      "(r**6 - 3*r**4 - 2*r**3)/4"],
     ["0", "(r**4 + r**3 - r**2 - r)/4", "(r**4 - r**3 - r**2 + r)/4",
      "(r**6 - 2*r**4 + r**2)/4", "(r**6 - 2*r**4 + r**2)/4"],
     ["1", "(r**4 + r**3 - r**2 + r - 2)/4", "(r**4 - r**3 - r**2 - r - 2)/4",
      "(r**6 - r**2)/4", "(r**6 - 4*r**4 + 3*r**2)/4"]],
]

_LSTAR_TEMPLATES = [
    [["1", "0", "0", "0", "0"],
     ["0", "1", "0", "0", "0"],
     ["0", "0", "1", "0", "0"],
     ["0", "0", "0", "1", "0"],
     ["0", "0", "0", "0", "1"]],
    [["0", "(r**4 - 1)/2", "0", "0", "0"],
     ["1", "(r**6 - 5*r**4 - 3*r**2 - 1)/(2*(r**4 + r**2))",
      "(r**8 + 2*r**4 + 1)/(2*(r**4 + r**2))", "0", "0"],
     ["0", "(r**6 - r**4 + r**2 - 1)/(2*(r**4 + r**2))",
      "(r**8 - 4*r**2 + 3)/(4*(r**4 + r**2))",
      "(r**6 - r**4 + r**2 - 1)/(4*r**2)", "0"],
     ["0", "0", "(r**6 + r**4 + r**2 + 1)/(4*r**2)",
      "(r**6 - 3*r**4 - 3*r**2 - 3)/(4*r**2)", "(r**4 + 1)/(2*r**2)"],
     ["0", "0", "0", "(r**6 - r**4 + r**2 - 1)/(2*r**2)",
      "(r**4 - 2*r**2 + 1)/(2*r**2)"]],
    [["0", "0", "(r**6 + r**4 + r**2 + 1)/2", "0", "0"],
     ["0", "(r**8 + 2*r**4 + 1)/(2*(r**4 + r**2))",
      "(r**10 + r**8 + 2*r**6 - 2*r**4 + r**2 - 3)/(4*(r**4 + r**2))",
      "(r**8 + 2*r**4 + 1)/(4*r**2)", "0"],
     ["1", "(r**8 - 4*r**2 + 3)/(4*(r**4 + r**2))",
      "(r**10 + 3*r**8 + 2*r**6 - 2*r**4 + r**2 - 5)/(4*(r**4 + r**2))",
      "(r**8 - 2*r**6 + 2*r**4 - 2*r**2 + 1)/(4*r**2)",
      "(r**6 + r**4 + r**2 + 1)/(4*r**2)"],
     ["0", "(r**6 + r**4 + r**2 + 1)/(4*r**2)", "(r**8 - 1)/(4*r**2)",
      "(r**8 + 2*r**4 + 1)/(4*r**2)",
      "(r**6 - r**4 + r**2 - 1)/(4*r**2)"],
     ["0", "0", "(r**8 + 2*r**6 + 2*r**4 + 2*r**2 + 1)/(4*r**2)",
      "(r**8 - 2*r**6 + 2*r**4 - 2*r**2 + 1)/(4*r**2)",
      "(r**6 - r**4 + r**2 - 1)/(2*r**2)"]],
    [["0", "0", "0", "(r**6 - r**4 + r**2 - 1)/2", "0"],
     ["0", "0", "(r**8 + 2*r**4 + 1)/(4*r**2)",
      "(r**10 - 3*r**8 - 2*r**6 - 6*r**4 - 3*r**2 - 3)/(4*(r**4 + r**2))",
      "(r**8 + 2*r**4 + 1)/(2*(r**4 + r**2))"],
     ["0", "(r**6 - r**4 + r**2 - 1)/(4*r**2)",
      "(r**8 - 2*r**6 + 2*r**4 - 2*r**2 + 1)/(4*r**2)",
      "(r**10 - r**8 + 2*r**6 - 2*r**4 + r**2 - 1)/(4*(r**4 + r**2))",
      "(r**8 - 2*r**6 + 2*r**4 - 2*r**2 + 1)/(4*(r**4 + r**2))"],
     ["1", "(r**6 - 3*r**4 - 3*r**2 - 3)/(4*r**2)",
      "(r**8 + 2*r**4 + 1)/(4*r**2)",
      "(r**8 - 4*r**6 + 4*r**4 - 4*r**2 + 3)/(4*r**2)",
      "(r**6 - r**4 + r**2 - 1)/(4*r**2)"],
     ["0", "(r**6 - r**4 + r**2 - 1)/(2*r**2)",
      "(r**8 - 2*r**6 + 2*r**4 - 2*r**2 + 1)/(4*r**2)",
      "(r**8 - 2*r**6 + 2*r**4 - 2*r**2 + 1)/(4*r**2)", "0"]],
    [["0", "0", "0", "0", "(r**4 + 1)/2"],
     ["0", "0", "0", "(r**8 + 2*r**4 + 1)/(2*(r**4 + r**2))",
      "(r**6 - r**4 + r**2 - 1)/(2*(r**4 + r**2))"],
     ["0", "0", "(r**6 + r**4 + r**2 + 1)/(4*r**2)",
      "(r**8 - 2*r**6 + 2*r**4 - 2*r**2 + 1)/(4*(r**4 + r**2))",
      "(r**6 - r**4 + r**2 - 1)/(2*(r**4 + r**2))"],
     ["0", "(r**4 + 1)/(2*r**2)", "(r**6 - r**4 + r**2 - 1)/(4*r**2)",
      "(r**6 - r**4 + r**2 - 1)/(4*r**2)", "0"],
     ["1", "(r**4 - 2*r**2 + 1)/(2*r**2)",
      "(r**6 - r**4 + r**2 - 1)/(2*r**2)", "0", "0"]],
]


# The distinct template strings, compiled once into one tuple expression.
_EXPRS = tuple(dict.fromkeys(
    x for m in (_P_TEMPLATE, _Q_TEMPLATE, *_L_TEMPLATES, *_LSTAR_TEMPLATES)
    for row in m for x in row))
_CODE = compile("(" + ",".join(_EXPRS) + ",)", "<templates>", "eval")


def _eval_templates(r: QuadExt) -> dict:
    """Each template string -> its exact value at r (no builtins exposed)."""
    values = eval(_CODE, {"__builtins__": {}}, {"r": r})
    return {x: v if isinstance(v, QuadExt) else QuadExt(v, 0, r.q)
            for x, v in zip(_EXPRS, values)}


def parse_r(text: str) -> QuadExt:
    """CLI form of r: a plain integer, or "sqrt:<q>" for an irrational root."""
    if text.startswith("sqrt:"):
        q = int(text[len("sqrt:"):])
        if q <= 1:
            raise ValueError("sqrt base must exceed 1")
        return QuadExt.root(q)
    v = int(text)
    return QuadExt(v, 0, v * v if v != 0 else 1)


@dataclass
class ParameterSet:
    d: int
    r: QuadExt
    P: list
    Q: list
    L: list                     # L_0..L_d templates, evaluated
    Lstar: list                 # dual templates, evaluated

    @property
    def N(self):
        acc = self.Q[0][0]
        for x in self.Q[0][1:]:
            acc = acc + x
        return acc


def candidate_parameters(r_value: QuadExt) -> ParameterSet:
    """The stored 4-class candidate tables evaluated at r."""
    if not r_value or r_value in (QuadExt(1, 0, r_value.q),
                                  QuadExt(-1, 0, r_value.q)):
        raise ZeroDivisionError("templates are singular at r = 0, 1, -1")
    values = _eval_templates(r_value)
    ev = lambda m: [[values[x] for x in row] for row in m]
    return ParameterSet(
        4, r_value, ev(_P_TEMPLATE), ev(_Q_TEMPLATE),
        [ev(m) for m in _L_TEMPLATES], [ev(m) for m in _LSTAR_TEMPLATES],
    )


def _is_positive_integer(x: QuadExt):
    return x.is_rational() and x.a.denominator == 1 and x.a > 0


def _is_nonneg_integer(x: QuadExt):
    return x.is_rational() and x.a.denominator == 1 and x.a >= 0


def _first_witness(d, witness):
    """The first nonempty witness(a, b, c) over a, b, c in 0..d, in row-major
    order, or "" if there is none; later triples are not evaluated."""
    r = range(d + 1)
    return next((w for a in r for b in r for c in r if (w := witness(a, b, c))), "")


@dataclass
class FeasibilityReport:
    checks: list = field(default_factory=list)  # (name, ok, witness)
    lstar: FeasibilityReport = field(default=None, init=False)  # set by check_feasibility

    def add(self, name, ok, witness=""):
        self.checks.append((name, bool(ok), witness))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    @property
    def first_failure(self):
        return next((name for name, ok, _ in self.checks if not ok), "")

    def as_dict(self):
        return {
            "ok": self.ok,
            "checks": [{"name": n, "ok": ok, "witness": str(w)}
                       for n, ok, w in self.checks],
        }


def check_feasibility(ps: ParameterSet) -> FeasibilityReport:
    """All standard necessary conditions; failures are recorded, not raised."""
    rep = FeasibilityReport()
    d = ps.d
    P, Q = ps.P, ps.Q
    N = ps.N
    p, krein = pq_tensor(P, Q, N), pq_tensor(Q, P, N)

    r = range(d + 1)
    witness = next((f"(PQ)[{i}][{j}] = {x}" for i in r for j in r
                    if (x := sum(P[i][l] * Q[l][j] for l in r)) != (N if i == j else 0)), "")
    rep.add("pq_identity", not witness, witness)

    bad = [str(P[0][j]) for j in range(d + 1) if not _is_positive_integer(P[0][j])]
    rep.add("valencies_positive_integral", not bad, ", ".join(bad))
    bad = [str(Q[0][j]) for j in range(d + 1) if not _is_positive_integer(Q[0][j])]
    rep.add("multiplicities_positive_integral", not bad, ", ".join(bad))

    def p_witness(i, j, m):
        v = p[i][j][m]
        return "" if _is_nonneg_integer(v) else f"p[{i}][{j}]^{m} = {v}"
    witness = _first_witness(d, p_witness)
    rep.add("p_tensor_nonneg_integral", not witness, witness)

    def krein_witness(i, j, ell):
        v = krein[i][j][ell]
        return f"q[{i}][{j}]^{ell} = {v}" if v.sign() < 0 else ""
    witness = _first_witness(d, krein_witness)
    rep.add("krein_nonneg", not witness, witness)

    witness = next((f"k_{i} * N = {e}" for i in range(1, d + 1)
                    if not ((e := P[0][i] * N).is_rational()
                            and e.a.denominator == 1 and e.a % 2 == 0)), "")
    rep.add("handshake", not witness, witness)

    def L_witness(i, k, j):
        return f"L_{i}[{k}][{j}]" if ps.L[i][k][j] != p[i][j][k] else ""
    witness = _first_witness(d, L_witness)
    rep.add("L_consistency", not witness, witness)

    rep.lstar = verify_Lstar(ps, krein)
    rep.add("Lstar_consistency", rep.lstar.ok, rep.lstar.first_failure)
    return rep


def verify_Lstar(ps: ParameterSet, krein=None) -> FeasibilityReport:
    """Dual intersection matrices recomputed from (P, Q) vs the templates.

    krein, if given, is the Krein tensor of a check_feasibility call.
    """
    rep = FeasibilityReport()
    krein = krein or pq_tensor(ps.Q, ps.P, ps.N)

    def lstar_witness(i, k, j):
        v = krein[i][j][k]
        return (f"L*_{i}[{k}][{j}]: template {ps.Lstar[i][k][j]}, computed {v}"
                if ps.Lstar[i][k][j] != v else "")
    witness = _first_witness(ps.d, lstar_witness)
    rep.add("Lstar_match", not witness, witness)
    return rep


def sweep(r_values):
    """One (r, q, N, verdict, first_failing_check) row per requested r."""
    rows = []
    for r in r_values:
        ps = candidate_parameters(r)
        rep = check_feasibility(ps)
        nval = ps.N
        rows.append({
            "r": str(r),
            "q": r.q,
            "N": str(nval.a if nval.is_rational() else nval),
            "verdict": "pass" if rep.ok else "fail",
            "first_failing_check": rep.first_failure,
        })
    return rows
