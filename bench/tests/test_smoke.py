"""Smoke test of the benchmark harness: every workload, timed and traced,
at a size that finishes in seconds.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("polys.cand_degree_max", "finite.all_subgroups.found")


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, kind):
    text, res = result(run(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    printed = {line.split()[1]: line.split()[-1] for line in text
               if len(line.split()) == 4}
    for name, unit in want.items():
        assert printed.get(name) == unit, name


def test_traced_counts_repeat_at_a_fixed_seed():
    runs = [result(run("geometry", 1))[1]["metrics"] for _ in range(2)]
    counts = [{k: v["value"] for k, v in m.items()
               if k.endswith(".calls") or k in COUNTS} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["polys.cand_sum.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run("geometry", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_times_scale_by_the_nearest_reference_times():
    sys.path.insert(0, str(ROOT / "bench"))
    import hostspeed
    r = hostspeed.REFERENCE_S
    # a host twice as slow from the fourth operation on
    assert hostspeed.local_factors([r, r, r, 2 * r, 2 * r, 2 * r]) == \
        [1.0, 1.0, 1.0, 0.5, 0.5, 0.5]
    assert 0 < hostspeed.reference() < 1
