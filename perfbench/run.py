"""fragdiff benchmark: one command, every workload, gated outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout (the directory holding `src/fragdiff`
and `BENCHMARK.json`).  Each run

1. runs the workload's fixed task list once per fresh worker process,
   repeating while another repeat fits in S seconds (at least twice, so
   that the outputs of two runs of the same seed can be compared byte for
   byte);
2. with --trace 0, times set-up (import fragdiff, parse the config, first
   assemble_bundle) in a fresh process SETUP_TRIALS times before the
   repeats and once before each repeat, and reports the median;
3. with --trace 1, alternates untraced and traced repeats, reports the
   per-layer metrics of the traced ones, and reports the difference of the
   two medians of `wall_s` as the tracing overhead.  It reports, on `#`
   lines, every declared metric it could not compute and every layer the
   workload should reach but did not (a wrapper that lost its target).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  The
full record (environment, every repeat, gate messages, the scaling table)
goes to `.perfbench_out/<workload>/seed<N>-trace<T>/result.json`.

--smoke shrinks every mesh, times set-up once and runs one repeat per mode,
so that the harness can be tested in seconds; its figures mean nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("evolve-presets", "dense-generator")
# The task whose steady profile gives steady_x1_err.
X1_TASK = "steady.mitosis"
# Set-up probe input: the config the first CLI task of every workload parses.
SETUP_CONFIG = "[run]\npreset = mitosis\ntask = evolve\n"
SETUP_TRIALS = 3             # probes before the repeats; one more precedes each repeat
MIN_REPEATS = 2
RUN_LIMIT_S = 170.0          # every run ends well inside 180 s
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
# X1 distance between two unit-mass profiles never exceeds 2: reported when
# the task that gives steady_x1_err failed in every repeat.
X1_WORST = 2.0
RAM_MB = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 20
# Reported for wall_s and peak_rss_mb (RAM_MB) when no repeat finished: a
# crashed repeat's partial time and memory would read as a gain.
WALL_WORST = RUN_LIMIT_S


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _worker(root: Path, args: list, result: Path, deadline: float) -> dict | None:
    """Run worker.py in a fresh process; None when it failed or ran out of time."""
    result.unlink(missing_ok=True)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args,
                               "--result", str(result)],
                              cwd=root, env=_child_env(), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"perfbench: worker exited {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(result.read_text())


def _environment(root: Path) -> dict:
    sha = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sha.update(path.relative_to(root).as_posix().encode())
        sha.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():     # a bare checkout records the source digest only
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"commit": commit, "src_sha256": sha.hexdigest(),
            "python": platform.python_version(), "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "caches": caches, "ram_mb": round(RAM_MB)}


def _median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


def _check_repeats(repeats: list) -> tuple[int, int, list]:
    """Count attempted and failed tasks; a task whose output digest differs
    from the first repeat's fails the determinism check."""
    attempted = failed = 0
    problems = []
    first_digest: dict = {}
    for k, rep in enumerate(repeats):
        for task in rep["tasks"]:
            attempted += 1
            digest = task["facts"].get("digest")
            if task["ok"] and digest is not None:
                reference = first_digest.setdefault(task["label"], digest)
                if digest != reference:
                    task["ok"] = False
                    task["error"] = "determinism: outputs differ from repeat 0"
            if not task["ok"]:
                failed += 1
                problems.append(f"repeat {k} {task['label']}: {task['error']}")
    return attempted, failed, problems


def _finished(repeats: list) -> list:
    return [rep for rep in repeats if not rep.get("crashed")]


def _end_to_end(repeats: list, setups: list, attempted: int, failed: int) -> dict:
    # a crashed repeat counts in `failed` but not in the time and memory medians
    finished = _finished(repeats)
    # throughput is the sum of N*steps over every passing time-stepping task
    # of the run, divided by the sum of their wall times
    stepping = [t for rep in repeats for t in rep["tasks"] if t["cell_steps"] and t["ok"]]
    seconds = sum(t["seconds"] for t in stepping)
    x1 = [t["facts"]["steady_x1_err"] for rep in repeats for t in rep["tasks"]
          if t["label"] == X1_TASK and t["ok"]]
    return {
        "wall_s": _median([rep["wall_s"] for rep in finished], WALL_WORST),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([rep["peak_rss_mb"] for rep in finished], RAM_MB),
        "ok_frac": (attempted - failed) / attempted,
        "cell_steps_per_s": sum(t["cell_steps"] for t in stepping) / seconds if seconds else 0.0,
        "steady_x1_err": _median(x1, X1_WORST),
    }


def _findings(repeats: list) -> dict:
    """Values recorded as reported, never gated."""
    out: dict = {}
    for rep in repeats:
        for task in rep["tasks"]:
            for key in ("gap", "distance_ratios", "mixed_decay_fit"):
                if key in task["facts"]:
                    out.setdefault(f"{task['label']}.{key}", []).append(task["facts"][key])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny meshes, one repeat: checks the harness, not the code")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fragdiff" / "__init__.py").is_file():
        return _fail(f"no src/fragdiff under {root}; run from the root of a fragdiff checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    name = f"seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    outdir = root / ".perfbench_out" / args.workload / name
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    config = outdir / "setup.cfg"
    config.write_text(SETUP_CONFIG)

    setups = []

    def probe_setup() -> bool:
        probe = _worker(root, ["--setup", str(config)],
                        outdir / f"setup-{len(setups)}.json", deadline)
        if probe is not None:
            setups.append(probe["setup_s"])
        return probe is not None

    # set-up is reported only by untraced runs; smoke mode probes once
    probing = not args.trace
    for _ in range(SETUP_TRIALS if probing and not args.smoke else 0):
        if not probe_setup():
            return _fail("set-up probe failed")

    repeats, traced_spans = [], []
    min_repeats = 1 if args.smoke and not args.trace else MIN_REPEATS
    loop_start = time.monotonic()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        workdir = outdir / f"work-{k}"
        spans_file = outdir / f"spans-{k}.json"
        worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                       "--trace", str(int(traced)), "--workdir", str(workdir),
                       "--spans", str(spans_file)] + (["--smoke"] if args.smoke else [])
        rep_start = time.monotonic()
        # a probe before every repeat meets the same drift of host speed
        if probing and not (args.smoke and setups) and not probe_setup():
            return _fail("set-up probe failed")
        rep = _worker(root, worker_args, outdir / f"repeat-{k}.json", deadline)
        shutil.rmtree(workdir, ignore_errors=True)
        now = time.monotonic()
        if rep is None:     # crashed or timed out: one failed task, and stop
            repeats.append({"traced": traced, "crashed": True,
                            "wall_s": now - rep_start, "peak_rss_mb": 0.0,
                            "tasks": [{"label": "worker", "seconds": now - rep_start,
                                       "ok": False, "error": "worker did not finish",
                                       "facts": {}, "cell_steps": 0}]})
            break
        repeats.append(rep)
        if traced:
            traced_spans.append(json.loads(spans_file.read_text())["spans"])
        k += 1
        if k >= min_repeats and (now - loop_start) + (now - rep_start) > args.seconds:
            break
        if now + (now - rep_start) > deadline:
            break

    attempted, failed, problems = _check_repeats(repeats)
    untraced = [rep for rep in repeats if not rep["traced"]]
    traced_reps = [rep for rep in _finished(repeats) if rep["traced"]]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "environment": _environment(root),
              "package": repeats[0].get("environment", {}),
              "inputs": repeats[0].get("inputs"),
              "setup_s": setups, "repeats": [
                  {"traced": r["traced"], "wall_s": r["wall_s"],
                   "peak_rss_mb": r["peak_rss_mb"],
                   "tasks": [[t["label"], t["seconds"]] for t in r["tasks"]]} for r in repeats],
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "problems": problems,
              "findings": _findings(repeats)}
    if args.trace:
        import spans
        import workloads
        computed = spans.layer_metrics([[tuple(s) for s in rep] for rep in traced_spans]) \
            if traced_spans else {}
        untraced_wall = [r["wall_s"] for r in _finished(untraced)]
        if traced_reps and untraced_wall:
            overhead = _median([r["wall_s"] for r in traced_reps]) - _median(untraced_wall)
            computed["trace.overhead_s"] = overhead
            computed["trace.overhead_frac"] = overhead / _median(untraced_wall)
        record["scaling_table"] = spans.scaling_table(computed)
        declared = spec["per_layer"]
        skip = workloads.UNREACHED[args.workload]
        record["unreached"] = spans.unreached(
            computed, [m["name"] for m in declared], skip, args.smoke)
    else:
        computed = _end_to_end(untraced, setups, attempted, failed)
        declared = spec["end_to_end"]
        skip = ()
    record["computed"] = computed
    # a metric that the workload reaches by design but that was never computed
    record["missing"] = [m["name"] for m in declared
                         if m["name"] not in computed and not m["name"].startswith(skip)]
    (outdir / "result.json").write_text(json.dumps(record, indent=1, default=str))

    metrics = {m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {len(repeats)} repeats "
          f"in {time.monotonic() - started:.1f} s")
    print(f"# environment {json.dumps(dict(record['environment'], **record['package']))}")
    print(f"# tasks attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / attempted:.4g}")
    for problem in problems:
        print(f"# FAILED {problem}")
    for key, values in record["findings"].items():
        print(f"# reported {key}: {values}")
    for row in record.get("scaling_table", []):
        if row["dense_s_p50"] > 0:
            print("# scaling " + ", ".join(f"{k}={v:.6g}" for k, v in row.items()))
    for key in record["missing"]:
        print(f"# missing {key}: not computed, reported as 0")
    for key in record.get("unreached", []):
        print(f"# unreached {key}: the workload calls this layer, but no span was recorded")
    for key, metric in metrics.items():
        print(f"# {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
