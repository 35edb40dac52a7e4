"""Write references.json: the certified digest of every benchmark instance.

    python3 perfbench/certify.py

Each instance is run once through ``polarcover.cli.main``.  Its reference
is recorded only if the output is certified by something other than the
code path that produced it:

- scheme: the exported P passes ``crosscheck_P`` against
  ``eigenmatrices_closed``, the L_1 read off the exported p-tensor equals
  ``l1_closed``, and there are exactly two Q-polynomial orderings;
- crosscheck --formula-only: every one of the (2n+2)^2 moment identities
  was checked and held;
- feasibility: integer r passes, and sqrt r fails first at
  valencies_positive_integral.

Exits 1, writing nothing, if any instance is not certified.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from types import SimpleNamespace

import workloads as wl

sys.path.insert(0, str(wl.SRC))

from polarcover import cli  # noqa: E402
from polarcover.closed_form import crosscheck_P, eigenmatrices_closed, l1_closed  # noqa: E402
from polarcover.exact_algebra import QuadExt  # noqa: E402


def certify_scheme(q, n, payload):
    P = [[QuadExt.from_json(x) for x in row] for row in payload["P"]]
    sd = SimpleNamespace(d=payload["d"], P=P)
    p = payload["p_tensor"]
    L1 = [[Fraction(p[1][j][k]) for j in range(len(p))] for k in range(len(p))]
    return {
        "crosscheck_P": crosscheck_P(n, q, sd, eigenmatrices_closed(n, q)).ok,
        "l1_equals_l1_closed": L1 == l1_closed(n, q),
        "two_q_poly_orderings": len(payload["q_poly_orderings"]) == 2,
    }


def certify_crosscheck(n, payload):
    ident = payload["closed_identities"]
    return {
        "moment_identities_ok": ident["moment_identities_ok"],
        "all_identities_checked": ident["identities_checked"] == (2 * n + 2) ** 2,
    }


def certify(inst, text):
    kind = inst.argv[0]
    if kind == "feasibility":
        return {"verdicts": wl.feasibility_verdicts_ok(inst.argv[2], text)}
    payload = json.loads(text)
    q, n = int(inst.argv[2]), int(inst.argv[4])
    if kind == "scheme":
        return certify_scheme(q, n, payload)
    return certify_crosscheck(n, payload)


def main():
    instances = {wl.WARMUP.id: wl.WARMUP}
    for insts in wl.WORKLOADS.values():
        instances.update((inst.id, inst) for inst in insts)
    refs, bad = {}, []
    for inst_id, inst in sorted(instances.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([*inst.argv, "--seed", "0"])
        checks = certify(inst, buf.getvalue())
        checks["exit_code"] = code == inst.expect_exit
        if not all(checks.values()):
            bad.append(inst_id)
        refs[inst_id] = {"argv": list(inst.argv), "exit": code,
                         "sha256": wl.canonical_digest(buf.getvalue()),
                         "certified": checks}
        print(f"{inst_id:60s} {'ok' if all(checks.values()) else 'NOT CERTIFIED'}",
              flush=True)
    if bad:
        print(f"not certified: {', '.join(bad)}", file=sys.stderr)
        return 1
    with open(wl.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"instances": refs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
