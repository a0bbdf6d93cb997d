"""One repeat of one workload, in a fresh process; started by run.py.

    python3 perfbench/worker.py --setup CONFIG --result FILE
        time importing fragdiff, parsing CONFIG and assembling its bundle
    python3 perfbench/worker.py --workload W --seed S --trace T --workdir D --result FILE
        run W's task list once and write timings, gate results and digests

Only the standard library is imported before the set-up clock starts.  The
package is always imported from `src/` of the checkout in the working
directory, never from an installed copy.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path.cwd() / "src"


def _import_fragdiff():
    sys.path.insert(0, str(SRC))
    import fragdiff
    if Path(fragdiff.__file__).resolve().parent != (SRC / "fragdiff").resolve():
        raise SystemExit(f"fragdiff imported from {fragdiff.__file__}, not {SRC}")
    return fragdiff


def setup_probe(config: Path) -> dict:
    """Set-up time as every CLI invocation pays it: import, parse, first assembly."""
    start = _T0
    _import_fragdiff()
    import fragdiff.cli  # noqa: F401  (the CLI imports every module)
    from fragdiff.config import build_bundle, parse_config
    build_bundle(parse_config(config))
    return {"setup_s": time.perf_counter() - start}


def _environment(fragdiff) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"fragdiff": fragdiff.__version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def run_repeat(workload: str, seed: int, traced: bool, smoke: bool, workdir: Path,
               spans_file: Path | None) -> dict:
    fragdiff = _import_fragdiff()
    import fragdiff.cli  # noqa: F401
    import spans
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    inputs = workloads.draw_inputs(seed)
    tasks = workloads.BUILDERS[workload](workdir, inputs, smoke)
    ctx = {"accuracy": not smoke}
    results = []
    for task in tasks:
        error, facts, value = None, {}, None
        start = time.perf_counter()
        try:
            value = tracer.call("bench.task", task.label, task.run, ctx) if tracer \
                else task.run(ctx)
        except Exception:   # a task that raises is counted as failed, with its traceback
            error = traceback.format_exc(limit=4)
        seconds = time.perf_counter() - start
        if error is None:
            try:
                facts = task.check(value, ctx)
                if task.outputs:
                    facts["digest"] = workloads.digest(task.outputs)
            except workloads.GateFailure as exc:
                error = f"gate: {exc}"
            except Exception:
                error = traceback.format_exc(limit=4)
        results.append({"label": task.label, "seconds": seconds, "ok": error is None,
                        "error": error, "facts": facts, "cell_steps": task.cell_steps})
    if tracer is not None:
        run_id = f"{workload}/seed{seed}/{spans_file.stem}"
        spans_file.write_text(json.dumps({"run_id": run_id, "spans": tracer.spans}))
    return {
        "workload": workload, "seed": seed, "traced": traced,
        "inputs": vars(inputs),
        "tasks": results,
        "wall_s": sum(r["seconds"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(fragdiff),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    if args.setup is not None:
        result = setup_probe(args.setup)
    else:
        result = run_repeat(args.workload, args.seed, bool(args.trace), args.smoke,
                            args.workdir, args.spans)
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
