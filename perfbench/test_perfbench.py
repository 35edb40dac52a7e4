"""Tests of the benchmark itself, on the tiny workload; they run in seconds.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

sys.path.insert(0, str(wl.SRC))

from polarcover import cli  # noqa: E402

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = wl.WORKLOADS["tiny"]


def _bench(cwd, trace):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", "tiny",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, kind):
    proc = _bench(wl.ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = {line.split()[0]: line.split()[2] for line in report
               if len(line.split()) >= 3}
    for name, unit in [*want.items(), ("fail_frac", "ratio")]:
        assert printed.get(name) == unit, name


def test_two_seeds_give_identical_outputs():
    refs = wl.load_references()
    digests = []
    for seed in (1, 2):
        [(_, outcomes, _)] = bench.run_passes(cli, TINY, seed, 0, refs)
        assert all(o.ok for o in outcomes)
        digests.append({o.instance.id: o.digest for o in outcomes})
    assert len(digests[0]) == len(TINY)
    assert digests[0] == digests[1]


def _copy_tree(dest, with_src=True):
    shutil.copy(wl.ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    if with_src:
        shutil.copytree(wl.SRC, dest / "src", ignore=ignore)


def test_corrupted_reference_is_a_failure(tmp_path):
    _copy_tree(tmp_path)
    path = tmp_path / "perfbench" / "references.json"
    refs = json.loads(path.read_text(encoding="utf-8"))
    victim = "crosscheck:13:2"
    assert victim in {inst.id for inst in TINY} and victim != wl.WARMUP.id
    refs["instances"][victim]["sha256"] = "0" * 64
    path.write_text(json.dumps(refs), encoding="utf-8")
    proc = _bench(tmp_path, 0)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    # One instance per pass fails; cold starts and warm-up still pass.
    passes = len(next(line for line in report
                      if line.startswith("pass walls")).split()) - 2
    assert result["failed"] == passes >= 1
    assert result["attempted"] > result["failed"]
    assert result["correct"] is False
    [frac] = [line.split()[1] for line in report if line.startswith("fail_frac")]
    assert float(frac) > 0


def test_without_a_source_tree_it_fails_and_prints_no_result(tmp_path):
    _copy_tree(tmp_path, with_src=False)
    proc = _bench(tmp_path, 0)
    assert proc.returncode == 2
    assert proc.stdout == ""
