"""CLI subcommands, exit codes, deterministic output."""

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import polarcover
import polarcover.closed_form
import polarcover.feasibility
from polarcover.cli import (
    EXIT_CAP,
    EXIT_INVALID,
    EXIT_MATH_FAIL,
    EXIT_OK,
    JSON_BLOCK,
    MR_EXACT_BELOW,
    _factor_prime_power,
    _is_prime,
    _json_pieces,
    main,
)

# The benchmark's certified instances, by key "<command>:<q>:<n>".
CERTIFIED = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                        / "references.json").read_text())["instances"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactorPrimePower:
    def test_values(self):
        assert _factor_prime_power(5) == (5, 1)
        assert _factor_prime_power(9) == (3, 2)
        assert _factor_prime_power(25) == (5, 2)
        assert _factor_prime_power(13) == (13, 1)
        assert _factor_prime_power(12) is None
        assert _factor_prime_power(1) is None
        assert _factor_prime_power(2) == (2, 1)

    def test_against_trial_division(self):
        def trial(q):
            p = next(p for p in range(2, q + 1) if q % p == 0)
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None

        for q in range(2, 5000):
            assert _factor_prime_power(q) == trial(q), q

    @pytest.mark.parametrize("q,want", [
        (10**18 + 9, (10**18 + 9, 1)),
        ((10**9 + 7)**2, (10**9 + 7, 2)),
        (5**30, (5, 30)),
        # Strong pseudoprimes to the bases 2..7 and 2..23: composite.
        (3215031751, None),
        (3825123056546413051, None),
    ])
    def test_large_q_in_under_a_second(self, q, want):
        start = time.perf_counter()
        assert _factor_prime_power(q) == want
        assert time.perf_counter() - start < 1

    def test_refused_at_the_exact_bound(self):
        # The bound is a composite that passes all 12 bases, so it and
        # every larger q are refused rather than read as prime; the
        # q = 1 mod 4 just below it (3 | q) is still factored.
        assert MR_EXACT_BELOW == 1287836182261 * 2575672364521
        assert _is_prime(MR_EXACT_BELOW)
        assert _factor_prime_power(MR_EXACT_BELOW - 4) is None
        with pytest.raises(ValueError, match="too large"):
            _factor_prime_power(MR_EXACT_BELOW)


class TestExitCodes:
    def test_invalid_q_composite(self, capsys):
        code, _, err = run(capsys, "enumerate", "--q", "12", "--n", "1")
        assert code == EXIT_INVALID
        assert "error" in err

    def test_invalid_q_3_mod_4(self, capsys):
        code, _, err = run(capsys, "enumerate", "--q", "7", "--n", "1")
        assert code == EXIT_INVALID

    def test_invalid_q_even(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--q", "4", "--n", "1")
        assert code == EXIT_INVALID

    def test_cap_exceeded(self, capsys):
        code, out, err = run(capsys, "enumerate", "--q", "5", "--n", "9")
        assert code == EXIT_CAP
        assert out == ""
        assert "exceeds cap" in err

    @pytest.mark.parametrize("argv", [
        ("scheme", "--q", "9", "--n", "3"),
        ("crosscheck", "--q", "9", "--n", "3"),
        ("enumerate", "--q", "13", "--n", "3"),
    ], ids=["scheme", "crosscheck", "enumerate"])
    def test_memory_cap_before_computing(self, capsys, monkeypatch, argv):
        # q=9, n=3: m = 598,600 fibers, whose signed pair matrix E alone
        # would take ~358 GB; q=13, n=3: m = 5,231,240 generators, whose
        # enumeration and JSON export would need ~33 GB.  Both exceed the
        # 8 GiB simulated here.
        import polarcover.cli as cli
        import polarcover.finite_field as finite_field
        import polarcover.symplectic as symplectic

        def refuse(*args, **kwargs):
            raise AssertionError("the computation started")

        monkeypatch.setattr(finite_field, "construct_field", refuse)
        monkeypatch.setattr(symplectic, "enumerate_generators", refuse)
        monkeypatch.setattr(symplectic.SymplecticSpace, "signed_distance_matrix", refuse)
        physical = cli._physical_memory()
        assert physical > 0
        monkeypatch.setattr(cli, "_physical_memory", lambda: min(physical, 2**33))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_CAP
        assert out == ""
        assert "exceeds cap" in err

    @pytest.mark.parametrize("q,code", [(32749, EXIT_CAP), (59049, EXIT_INVALID)])
    def test_field_tables_before_building(self, capsys, monkeypatch, q, code):
        # F_32749 passes _check_q, and its q x q tables would take ~19 GB,
        # more than the 8 GiB simulated here.  q = 3^10 >= 2^15 cannot be
        # held in int16 codes: invalid input, refused before any prediction.
        import polarcover.cli as cli
        import polarcover.finite_field as finite_field

        def refuse(*args, **kwargs):
            raise AssertionError("the field tables were built")

        monkeypatch.setattr(finite_field, "construct_field", refuse)
        monkeypatch.setattr(cli, "_physical_memory", lambda: 2**33)
        got, out, err = run(capsys, "enumerate", "--q", str(q), "--n", "1")
        assert (got, out) == (code, "")
        assert ("exceeds cap" if code == EXIT_CAP else "below 2^15") in err

    @pytest.mark.parametrize("command", ["scheme", "crosscheck", "enumerate"])
    def test_large_q_refused_before_factoring(self, capsys, monkeypatch, command):
        # q = 2^61 - 1 is prime, and the 2^15 bound of the graph commands
        # refuses it before q is factored.
        import polarcover.cli as cli

        def refuse(q):
            raise AssertionError("q was factored")

        monkeypatch.setattr(cli, "_factor_prime_power", refuse)
        got, out, err = run(capsys, command, "--q", str(2**61 - 1), "--n", "1")
        assert (got, out) == (EXIT_INVALID, "")
        assert "below 2^15" in err

    def test_large_q_refused_mod_4_before_factoring(self, capsys, monkeypatch):
        # q = 2^61 - 1 = 3 mod 4: the residue refuses it before q is
        # factored, on the formula-only path too, which has no 2^15 bound.
        import polarcover.cli as cli

        def refuse(q):
            raise AssertionError("q was factored")

        monkeypatch.setattr(cli, "_factor_prime_power", refuse)
        got, out, err = run(capsys, "crosscheck", "--q", str(2**61 - 1), "--n", "1",
                            "--formula-only")
        assert (got, out) == (EXIT_INVALID, "")
        assert "not congruent to 1 mod 4" in err

    def test_memory_prediction(self):
        from polarcover.scheme_core import verify_scheme_bytes
        from polarcover.symplectic import enumerate_bytes

        # m = 6 fibers: int8 E and R, d^3 + 128 d bytes a fiber, 16 MiB
        assert verify_scheme_bytes(12, 3) == 36 * 2 + 6 * (27 + 384) + 2**24
        assert verify_scheme_bytes(3280, 5) < 10**9       # q=9, n=2 runs
        assert verify_scheme_bytes(39312, 7) < 2**30      # q=5, n=3 in 1 GiB
        assert enumerate_bytes(598600, 3) < 2**33         # q=9, n=3 runs in 8 GiB

    @pytest.mark.parametrize("q", [9, 17])
    def test_enumerate_prediction_bounds_peak(self, capsys, q):
        # An extension field (element strings in the export) and a prime one.
        from polarcover.symplectic import enumerate_bytes

        argv = ("enumerate", "--q", str(q), "--n", "2")
        assert main(list(argv)) == EXIT_OK      # imports and caches
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(list(argv)) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = (q + 1) * (q * q + 1)
        assert len(json.loads(capsys.readouterr().out)["generators"]) == m
        assert peak <= enumerate_bytes(m, 2)

    @pytest.mark.parametrize("q", [5, 9])
    def test_scheme_prediction_bounds_peak(self, capsys, q):
        # The whole command: field tables, the signed pair matrix E, the
        # fiber relation matrix of from_cover, verify_scheme and the
        # spectral stages, against the prediction its pre-flight checks.
        from polarcover.scheme_core import verify_scheme_bytes

        argv = ["scheme", "--q", str(q), "--n", "2"]
        assert main(argv) == EXIT_OK      # imports and caches
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = (q + 1) * (q * q + 1)
        assert json.loads(capsys.readouterr().out)["N"] == 2 * m
        assert peak <= verify_scheme_bytes(2 * m, 5)

    def test_math_fail_on_infeasible_r(self, capsys):
        code, out, _ = run(capsys, "feasibility", "--r", "sqrt:5")
        assert code == EXIT_MATH_FAIL
        payload = json.loads(out)
        assert payload["feasibility"]["ok"] is False

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_INVALID

    def test_threads_flag_rejected(self, capsys):
        code, _, _ = run(capsys, "scheme", "--q", "5", "--n", "1", "--threads", "2")
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("command", ["enumerate", "scheme", "crosscheck"])
    def test_cap_generators_flag_rejected(self, capsys, command):
        # Memory is predicted from (q, n); there is no count cap to set.
        code, out, _ = run(capsys, command, "--q", "5", "--n", "1",
                           "--cap-generators", "1000000")
        assert code == EXIT_INVALID
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("scheme", "--q", "5", "--n", "1", "--format", "csv"),
        ("selftest", "--cap-generators", "5"),
        ("selftest", "--out", "x"),
        ("selftest", "--seed", "1"),
    ], ids=["format_on_scheme", "cap_generators_on_selftest", "out_on_selftest",
            "seed_on_selftest"])
    def test_option_of_another_subcommand_rejected(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_INVALID
        assert out == ""

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "selftest", "--suite", "nope")
        assert code == EXIT_INVALID

    def test_feasibility_needs_r_or_sweep(self, capsys):
        code, _, err = run(capsys, "feasibility")
        assert code == EXIT_INVALID

    def test_feasibility_r_and_sweep_exclusive(self, capsys):
        code, out, err = run(capsys, "feasibility", "--r", "3", "--sweep", "3")
        assert code == EXIT_INVALID
        assert out == ""
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("argv,target", [
        (("scheme", "--q", "5", "--n", "1"), "missing/x.json"),
        (("feasibility", "--r", "3"), "."),
    ], ids=["missing_dir", "directory"])
    def test_unwritable_out_is_invalid_input(self, capsys, tmp_path, argv, target):
        # An --out path that cannot be opened is an input error: one
        # "error:" line, no traceback, and not the math-failure code.
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / target))
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1

    def test_unwritable_out_fails_before_computing(self, capsys, monkeypatch, tmp_path):
        import polarcover.symplectic as symplectic

        def refuse(*args, **kwargs):
            raise AssertionError("the computation started")

        monkeypatch.setattr(symplectic, "enumerate_generators", refuse)
        code, out, err = run(capsys, "scheme", "--q", "5", "--n", "1",
                             "--out", str(tmp_path / "missing" / "x.json"))
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1

    def test_failed_run_leaves_out_as_it_was(self, capsys, tmp_path):
        # The path check neither truncates an existing file nor leaves a new
        # one behind when a later step fails (here the memory cap, exit 3).
        kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
        kept.write_text("old\n")
        for path in (kept, fresh):
            code, _, _ = run(capsys, "scheme", "--q", "5", "--n", "9", "--out", str(path))
            assert code == EXIT_CAP
        assert kept.read_text() == "old\n" and not fresh.exists()

    def test_csv_rejected_without_sweep(self, capsys):
        # Only the rows of --sweep have a CSV form; the single-r payload is
        # nested JSON, so asking for CSV there is an input error.
        code, out, err = run(capsys, "feasibility", "--r", "3", "--format", "csv")
        assert code == EXIT_INVALID
        assert out == ""
        assert "--format csv" in err


def emitted(x):
    """The text that _json_pieces gives for x, with every block it wrote."""
    out, blocks = [], []
    _json_pieces(x, 0, out, blocks.append)
    return "".join(blocks) + "".join(out)


class TestJsonEmitter:
    @pytest.mark.parametrize("argv", [
        ("scheme", "--q", "5", "--n", "1"),
        ("scheme", "--q", "9", "--n", "1"),
        ("scheme", "--q", "25", "--n", "1"),
        ("scheme", "--q", "125", "--n", "1"),
        ("scheme", "--q", "5", "--n", "2"),
        ("crosscheck", "--q", "5", "--n", "2"),
        ("crosscheck", "--q", "13", "--n", "3", "--formula-only"),
        ("feasibility", "--r", "3"),
        ("feasibility", "--sweep", "3,5,7"),
        ("enumerate", "--q", "25", "--n", "1"),     # string codes
    ], ids=lambda argv: "-".join(argv).replace("--", ""))
    def test_equals_json_dumps_on_payloads(self, capsys, monkeypatch, argv):
        import polarcover.cli as cli

        payloads = []
        emit = cli._emit

        def recorded(args, payload, csv_rows=None):
            payloads.append(payload)
            emit(args, payload, csv_rows)

        monkeypatch.setattr(cli, "_emit", recorded)
        code, out, _ = run(capsys, *argv)
        assert (code, len(payloads)) == (EXIT_OK, 1)
        assert out == json.dumps(payloads[0], sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("x", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[], [[]], {}], (1, (2, ())),
        -7, 0, 10**200, -(10**200), [True, 1, False, 0, None],
        {"b": True, "a": 1, "c": [None, False]},
        "caf\u00e9 \u2603 \U0001f600", "\x00\x1f\t\n\r\"\\/\x7f",
        {"\u00e9": "\n", "z": "", "": "x"}, [{"k": [{"j": ["deep"]}]}],
    ])
    def test_equals_json_dumps_on_edge_cases(self, x):
        assert emitted(x) == json.dumps(x, sort_keys=True, indent=2)

    @pytest.mark.parametrize("x", [1.0, [0.5], {"a": float("nan")}, {1: 2},
                                   {"a": {2: "b"}}, {1, 2}, b"bytes"])
    def test_refuses_other_types(self, x):
        with pytest.raises(TypeError):
            emitted(x)

    def test_writes_in_blocks(self):
        x = {"rows": [[str(i), i, [i, -i]] for i in range(3000)]}
        out, blocks = [], []
        _json_pieces(x, 0, out, blocks.append)
        assert "".join(blocks) + "".join(out) == json.dumps(x, sort_keys=True, indent=2)
        assert len(blocks) > 1 and len(out) < JSON_BLOCK

    def test_enumerate_emission_peak_is_a_block(self, tmp_path, monkeypatch):
        # q = 17, n = 2: 5,220 generators, ~0.7 MB of JSON.  The payload
        # is built before tracing starts, so the peak is the emission's
        # own: at most JSON_BLOCK pieces of under 128 bytes each with
        # their joined block, not the whole text.
        import polarcover.cli as cli

        peaks = []
        emit = cli._emit

        def traced(args, payload, csv_rows=None):
            tracemalloc.start()
            try:
                emit(args, payload, csv_rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(cli, "_emit", traced)
        target = tmp_path / "gens.json"
        assert main(["enumerate", "--q", "17", "--n", "2", "--out", str(target)]) == EXIT_OK
        text = target.read_text()
        assert len(json.loads(text)["generators"]) == 5220
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert peaks[0] <= JSON_BLOCK * 128 < len(text)


class TestEnumerate:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--q", "5", "--n", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["count"] == 6
        assert payload["distance_profile"] == {"0": 1, "1": 5}
        assert len(payload["generators"]) == 6

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "enumerate", "--q", "5", "--n", "2")
        _, out2, _ = run(capsys, "enumerate", "--q", "5", "--n", "2")
        assert out1 == out2

    def test_builds_no_pair_matrices(self, capsys, monkeypatch):
        # The profile ranks one row of Gram matrices, not the m x m pairs.
        import polarcover.symplectic as symplectic

        _, want, _ = run(capsys, "enumerate", "--q", "5", "--n", "2")

        def refuse(self):
            raise AssertionError("the pair matrix was built")

        monkeypatch.setattr(symplectic.SymplecticSpace, "signed_distance_matrix", refuse)
        code, out, _ = run(capsys, "enumerate", "--q", "5", "--n", "2")
        assert code == EXIT_OK and out == want
        assert json.loads(out)["distance_profile"] == {"0": 1, "1": 30, "2": 125}

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "gens.json"
        code, out, _ = run(capsys, "enumerate", "--q", "5", "--n", "1",
                           "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["count"] == 6


class TestScheme:
    def test_icosahedron_payload(self, capsys):
        code, out, _ = run(capsys, "scheme", "--q", "5", "--n", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["N"] == 12
        assert payload["d"] == 3
        assert [v["a"] for v in payload["valencies"]] == ["1/1", "5/1", "5/1", "1/1"]
        assert len(payload["q_poly_orderings"]) == 2
        assert payload["q_bipartite"] == [True, True]

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "scheme", "--q", "5", "--n", "1")
        _, out2, _ = run(capsys, "scheme", "--q", "5", "--n", "1")
        assert out1 == out2

    @pytest.mark.parametrize("q,n", sorted(
        tuple(map(int, key.split(":")[1:])) for key in CERTIFIED if key.startswith("scheme:")))
    def test_certified_digest(self, capsys, q, n):
        # Canonical JSON as the benchmark reduces it: sorted keys, compact
        # separators, no seed.
        ref = CERTIFIED[f"scheme:{q}:{n}"]
        code, out, _ = run(capsys, "scheme", "--q", str(q), "--n", str(n))
        payload = json.loads(out)
        payload.pop("seed")
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert code == ref["exit"]
        assert hashlib.sha256(canon.encode()).hexdigest() == ref["sha256"]

    def test_no_sympy_import(self):
        # A fresh interpreter, so no other test's imports count.
        script = ("import sys\n"
                  "from polarcover.cli import main\n"
                  "code = main(['scheme', '--q', '5', '--n', '1'])\n"
                  "print(code, 'sympy' in sys.modules, file=sys.stderr)\n")
        src = Path(polarcover.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stderr.split() == [str(EXIT_OK), "False"], proc.stderr


# The names the package exports, each with the module that defines it.
PACKAGE_EXPORTS = {
    "exact_algebra": ["QuadExt", "gauss"],
    "finite_field": ["FieldSpec", "construct_field"],
    "symplectic": ["SymplecticSpace", "enumerate_generators"],
    "maslov": ["CoherenceTable", "coherent_split_count", "verify_two_graph"],
    "cover": ["CoverGraph"],
    "scheme_core": ["SchemeInstance", "verify_scheme", "spectral_data",
                    "krein", "q_poly_orderings", "q_bipartite_check"],
    "closed_form": ["l1_closed", "q_sequence", "s_family", "verify_thm71",
                    "eigenmatrices_closed", "crosscheck_P"],
    "feasibility": ["candidate_parameters", "check_feasibility",
                    "verify_Lstar", "parse_r"],
    "errors": ["PolarcoverError", "ResourceCapExceeded", "QNotOneModFour",
               "EigenvalueOutsideField", "RepeatedEigenvalue",
               "SchemeAxiomError"],
}


class TestImports:
    def test_formula_paths_never_import_numpy(self):
        # A fresh interpreter, so no other test's imports count.
        script = ("import sys\n"
                  "from polarcover.cli import main\n"
                  "codes = [main(['crosscheck', '--q', '5', '--n', '1',\n"
                  "               '--formula-only']),\n"
                  "         main(['feasibility', '--r', '3'])]\n"
                  "print(*codes, 'numpy' in sys.modules, file=sys.stderr)\n")
        src = Path(polarcover.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stderr.split() == [str(EXIT_OK), str(EXIT_OK), "False"], \
            proc.stderr

    def test_package_exports_resolve(self):
        import importlib

        names = [name for group in PACKAGE_EXPORTS.values() for name in group]
        assert sorted(polarcover.__all__) == sorted(names)
        for module, group in PACKAGE_EXPORTS.items():
            defining = importlib.import_module("polarcover." + module)
            for name in group:
                scope = {}
                exec(f"from polarcover import {name}", scope)
                assert scope[name] is getattr(defining, name), name
        with pytest.raises(ImportError):
            exec("from polarcover import no_such_name", {})


class TestCrosscheck:
    def test_full_q5n1(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--q", "5", "--n", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["l1_matches"] is True
        assert payload["p_matrix_matches"] is True
        assert payload["closed_identities"]["moment_identities_ok"] is True

    def test_formula_only_large(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--q", "29", "--n", "4",
                           "--formula-only")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["formula_only"] is True
        assert payload["closed_identities"]["identities_checked"] == 100

    @pytest.mark.parametrize("q", [10**18 + 9, (10**9 + 7)**2])
    def test_formula_only_large_prime_power(self, capsys, q):
        start = time.perf_counter()
        code, out, _ = run(capsys, "crosscheck", "--q", str(q), "--n", "1",
                           "--formula-only")
        assert time.perf_counter() - start < 1
        assert code == EXIT_OK
        assert json.loads(out)["closed_identities"]["moment_identities_ok"] is True

    def test_formula_only_q_past_the_exact_bound(self, capsys):
        code, out, err = run(capsys, "crosscheck", "--q", str(MR_EXACT_BELOW),
                             "--n", "1", "--formula-only")
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith("error: ") and "too large" in err

    def test_rejects_q_3_mod_4(self, capsys):
        code, _, _ = run(capsys, "crosscheck", "--q", "7", "--n", "1",
                         "--formula-only")
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("extra", [[], ["--formula-only"]])
    def test_rejects_non_prime_power_before_formulas(self, capsys, monkeypatch,
                                                     extra):
        # 21 = 1 mod 4 but is not a prime power: rejected before any closed
        # form is evaluated, with or without the graph.
        def boom(*args):
            raise AssertionError("closed forms evaluated")
        monkeypatch.setattr(polarcover.closed_form, "eigenmatrices_closed", boom)
        code, out, err = run(capsys, "crosscheck", "--q", "21", "--n", "1", *extra)
        assert code == EXIT_INVALID
        assert out == ""
        assert "not an odd prime power" in err


class TestFeasibility:
    def test_single_r_pass(self, capsys):
        code, out, _ = run(capsys, "feasibility", "--r", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["N"] == "820"
        assert payload["feasibility"]["ok"] is True
        assert payload["lstar"]["ok"] is True

    def test_single_r_builds_each_table_once(self, capsys, monkeypatch):
        # One p table and one Krein table, read by the L* check of
        # check_feasibility and by the "lstar" payload alike.
        calls = {"tables": 0, "verify_Lstar": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(polarcover.feasibility, "pq_tensor",
                            counted("tables", polarcover.feasibility.pq_tensor))
        monkeypatch.setattr(polarcover.feasibility, "verify_Lstar",
                            counted("verify_Lstar",
                                    polarcover.feasibility.verify_Lstar))
        code, out, _ = run(capsys, "feasibility", "--r", "3")
        assert code == EXIT_OK
        assert json.loads(out)["lstar"]["ok"] is True
        assert calls == {"tables": 2, "verify_Lstar": 1}

    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "feasibility", "--sweep", "3,5,sqrt:5",
                           "--format", "csv")
        assert code == EXIT_MATH_FAIL   # sweep includes a failing r
        lines = out.strip().splitlines()
        assert lines[0] == "r,q,N,verdict,first_failing_check"
        assert len(lines) == 4
        assert lines[1].startswith("3,9,820,pass")
        assert "fail,valencies_positive_integral" in lines[3]

    def test_sweep_json_all_pass(self, capsys):
        code, out, _ = run(capsys, "feasibility", "--sweep", "3,5,7")
        assert code == EXIT_OK
        rows = json.loads(out)
        assert [row["verdict"] for row in rows] == ["pass"] * 3


class TestSelftest:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == EXIT_OK
        lines = [l for l in out.strip().splitlines() if l]
        assert len(lines) == 6
        assert all("pass" in l for l in lines)

    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "selftest", "--suite", "exact_algebra")
        assert code == EXIT_OK
        assert out.strip().startswith("exact_algebra")


class TestParserCache:
    ARGVS = [
        (["scheme", "--q", "5", "--n", "1"], EXIT_OK),
        (["scheme", "--q", "7", "--n", "1"], EXIT_INVALID),
        (["crosscheck", "--q", "5", "--n", "2", "--formula-only"], EXIT_OK),
        (["feasibility", "--sweep", "3,sqrt:5"], EXIT_MATH_FAIL),
    ]

    def test_one_process_matches_fresh_processes(self):
        # One interpreter runs all four commands on one parser, built by the
        # first call; each must print and exit as in its own interpreter.
        script = ("import contextlib, io, json, sys\n"
                  "from polarcover import cli\n"
                  "runs = []\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    buf = io.StringIO()\n"
                  "    with contextlib.redirect_stdout(buf):\n"
                  "        code = cli.main(argv)\n"
                  "    runs.append([code, buf.getvalue()])\n"
                  "print(json.dumps([runs, cli.build_parser.cache_info().misses]))\n")
        src = Path(polarcover.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        argvs = [argv for argv, _ in self.ARGVS]
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              capture_output=True, text=True, timeout=120,
                              env=env, check=True)
        runs, builds = json.loads(proc.stdout)
        assert builds == 1
        fresh = [subprocess.run([sys.executable, "-m", "polarcover.cli", *argv],
                                capture_output=True, text=True, timeout=120,
                                env=env)
                 for argv in argvs]
        assert [p.returncode for p in fresh] == [code for _, code in self.ARGVS]
        assert runs == [[p.returncode, p.stdout] for p in fresh]
        assert [bool(p.stdout) for p in fresh] == [True, False, True, True]
