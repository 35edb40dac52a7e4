"""Workload instances, seeded order, and the correctness gate.

An instance is one call of ``polarcover.cli.main``.  Its output is reduced
to canonical JSON (sorted keys, compact separators, without the ``seed``
key, which only echoes the ``--seed`` argument) and compared by sha256
with the certified reference in ``references.json``.  This module imports
only the standard library, so the cold-start child stays lean.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

FEASIBILITY_SWEEP = "3,5,7,9,11,13,15,17,19,21,sqrt:5,sqrt:13,sqrt:17"


@dataclass(frozen=True)
class Instance:
    id: str
    argv: tuple          # CLI arguments, without --seed
    size: int            # orders instances; the largest is reported apart
    expect_exit: int = 0


def _odd_prime_power(q):
    p = next(p for p in range(2, q + 1) if q % p == 0)
    while q % p == 0:
        q //= p
    return p != 2 and q == 1


def scheme(q, n):
    size = 2
    for i in range(1, n + 1):
        size *= q**i + 1
    return Instance(f"scheme:{q}:{n}", ("scheme", "--q", str(q), "--n", str(n)),
                    size)


def crosscheck(q, n):
    return Instance(f"crosscheck:{q}:{n}",
                    ("crosscheck", "--q", str(q), "--n", str(n), "--formula-only"),
                    n * 1000 + q)


def feasibility(sweep):
    # The sweep exits 1 because its sqrt entries are infeasible by design.
    return Instance(f"feasibility:{sweep}", ("feasibility", "--sweep", sweep),
                    0, expect_exit=1)


WARMUP = scheme(5, 1)

WORKLOADS = {
    "scheme-q9n2": [scheme(9, 2)],
    "sweep-n1": [scheme(q, 1) for q in range(5, 200, 4) if _odd_prime_power(q)]
    + [scheme(5, 2)],
    "formula-grid": [crosscheck(q, n) for q in (5, 13, 29, 101)
                     for n in range(1, 13)]
    + [feasibility(FEASIBILITY_SWEEP)],
    # Tiny instances for the benchmark's own tests; not a measured workload.
    "tiny": [scheme(5, 1), scheme(13, 1)]
    + [crosscheck(q, n) for q in (5, 13) for n in range(1, 4)]
    + [feasibility("3,sqrt:5")],
}


def ordered(instances, rng):
    """The instances in an order drawn from rng; outputs must not depend on it."""
    out = list(instances)
    rng.shuffle(out)
    return out


def load_references(path=REFERENCES):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["instances"]


def canonical_digest(text):
    obj = json.loads(text)
    if isinstance(obj, dict):
        obj.pop("seed", None)
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def feasibility_verdicts_ok(sweep, text):
    """Integer r passes; sqrt r fails first at valencies_positive_integral."""
    rows = json.loads(text)
    tokens = sweep.split(",")
    if len(rows) != len(tokens):
        return False
    for tok, row in zip(tokens, rows):
        if tok.startswith("sqrt:"):
            if (row["verdict"], row["first_failing_check"]) != (
                    "fail", "valencies_positive_integral"):
                return False
        elif (row["verdict"], row["first_failing_check"]) != ("pass", ""):
            return False
    return True


@dataclass
class Outcome:
    instance: Instance
    seconds: float       # call plus verification
    ok: bool
    digest: str = ""


def run_instance(main, inst, seed, references):
    """One closed-loop call of the CLI entry point, verified against its reference.

    An unexpected exit code, an exception, or an output whose digest differs
    from the reference is a failure; the traceback goes to stderr.
    """
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main([*inst.argv, "--seed", str(seed)])
        text = buf.getvalue()
        digest = canonical_digest(text)
        ok = code == inst.expect_exit and digest == references[inst.id]["sha256"]
        if ok and inst.argv[0] == "feasibility":
            ok = feasibility_verdicts_ok(inst.argv[2], text)
    except Exception:  # a failing instance must not stop the benchmark
        traceback.print_exc()
        return Outcome(inst, time.perf_counter() - start, False)
    return Outcome(inst, time.perf_counter() - start, ok, digest)
