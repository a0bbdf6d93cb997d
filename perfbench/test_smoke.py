"""Harness checks on tiny meshes, so the benchmark cannot rot unnoticed.

    python3 -m pytest perfbench/test_smoke.py      # from the checkout root

The figures of a --smoke run mean nothing; these tests check only that
every workload runs, passes its gates, and prints exactly the metrics
BENCHMARK.json declares, with their units.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s").items()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
    if trace:
        # every call count the workload reaches by design is nonzero, so no
        # wrapper in spans.TARGETS has lost its target
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        assert spans.unreached(values, list(values), workloads.UNREACHED[workload],
                               smoke=True) == []
        assert "# missing" not in proc.stdout and "# unreached" not in proc.stdout
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_crashed_repeat_left_out_of_time_and_memory():
    done = {"traced": False, "wall_s": 10.0, "peak_rss_mb": 500.0,
            "tasks": [{"label": "a", "seconds": 10.0, "ok": True, "facts": {},
                       "cell_steps": 0}]}
    crashed = {"traced": False, "crashed": True, "wall_s": 1.0, "peak_rss_mb": 0.0,
               "tasks": [{"label": "worker", "seconds": 1.0, "ok": False, "facts": {},
                          "cell_steps": 0}]}
    metrics = run._end_to_end([done, crashed, crashed], [1.0], 3, 2)
    assert metrics["wall_s"] == 10.0 and metrics["peak_rss_mb"] == 500.0
    worst = run._end_to_end([crashed], [1.0], 1, 1)
    assert worst["wall_s"] == run.WALL_WORST and worst["peak_rss_mb"] == run.RAM_MB


def test_refuses_without_package_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
