"""Command-line entry point: run one task, write deterministic artifacts.

Outputs per run directory:
    moments.csv       t,M0,M1,M2,Mm,dist_ref_X1,mass_drift_rel,tail_mass_frac
    profile.csv       x,phi  (final state, or the steady profile)
    diagnostics.jsonl one JSON record per check or spectral result
    run_meta.json     config echo, mesh statistics, package versions; the
                      echo is the one record of rate, kernel, diffusion and
                      boundary condition

Exit codes: 0 ok, 2 configuration error, 3 numerical failure,
4 property violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checks import (WeightSpec, birth_domination, check_gain_smallness,
                     check_interpolation, check_kato, default_catalog,
                     kernel_positivity_samples)
# re-exported: perfbench/spans.py traces delta_m here
from .coefficients import delta_m  # noqa: F401
from .config import (RunConfig, build_initial, build_integrator, build_n_sequence,
                     parse_config, preset_config)
from .errors import ConfigError, NumericsError, PropertyViolation
from .evolution import evolve
from .mesh import State, mass
from .spectral import decay_rate, dominant_eigenpair, spectral_gap
from .stationary import solve_steady, solve_steady_regularized


def _write_csv(path: Path, header: str, columns) -> None:
    """Write the header, then each row of the columns as repr(float) values."""
    # one list of Python floats per column: repr of a float is repr of the
    # np.float64 it came from, without a numpy scalar per value
    fields = (map(repr, np.asarray(column, dtype=float).tolist()) for column in columns)
    path.write_text("\n".join([header, *map(",".join, zip(*fields))]) + "\n")


def _write_profile(out: Path, state: State) -> None:
    _write_csv(out / "profile.csv", "x,phi", [state.mesh.centers, state.values])


def _record(diag: list, kind: str, **payload) -> None:
    """Append one diagnostics line; numpy arrays become JSON lists."""
    diag.append(json.dumps({"kind": kind, **payload}, sort_keys=True,
                           default=np.ndarray.tolist))


def _run_meta(cfg: RunConfig, bundle) -> dict:
    mesh = bundle.mesh
    return {
        "config": cfg.echo(),
        "mesh": {"cells": mesh.n_cells, "x_max": mesh.x_max,
                 "h_min": float(mesh.widths.min()), "h_max": float(mesh.widths.max()),
                 "grading": cfg["domain"]["grading"]},
        "versions": {"fragdiff": __version__, "numpy": np.__version__},
    }


def _task_evolve(cfg: RunConfig, bundle, out: Path, diag: list) -> None:
    initial = build_initial(cfg, bundle)
    reference = None
    try:
        steady = solve_steady(bundle, normalize_mass=1.0)
        reference = steady.state.copy_with(steady.state.values * mass(initial))
    except (NumericsError, PropertyViolation):
        _record(diag, "reference", available=False)
    integrator = build_integrator(cfg)
    trajectory = evolve(bundle, initial, integrator, reference=reference)
    n = trajectory.times.size
    rows = [*range(0, n - 1, integrator.output_every), n - 1]   # the final step too
    dist = np.full(n, np.nan) if trajectory.dist_ref is None else trajectory.dist_ref
    columns = [trajectory.times,
               *(trajectory.moments[m] for m in (0.0, 1.0, 2.0, integrator.moment_order)),
               dist, trajectory.mass_drift_rel, trajectory.tail_fraction]
    _write_csv(out / "moments.csv", "t,M0,M1,M2,Mm,dist_ref_X1,mass_drift_rel,tail_mass_frac",
               [column[rows] for column in columns])
    _write_profile(out, trajectory.final)
    _record(diag, "evolve", steps=n - 1, max_mass_drift=trajectory.max_drift,
            min_value=trajectory.min_value, reaction_cfl=trajectory.reaction_cfl,
            final_tail_fraction=float(trajectory.tail_fraction[-1]))
    if reference is not None:
        fit = decay_rate(trajectory, reference)
        _record(diag, "decay_fit", status=fit.status, nu_hat=fit.nu_hat,
                r_squared=fit.r_squared, n_points=fit.n_points)


def _task_steady(cfg: RunConfig, bundle, out: Path, diag: list) -> None:
    result = solve_steady(bundle, normalize_mass=cfg["steady"]["mass"])
    _write_profile(out, result.state)
    _record(diag, "steady", residual_x1=result.residual_x1, mass=result.mass,
            min_value=result.min_value)


def _task_regularized(cfg: RunConfig, bundle, out: Path, diag: list) -> None:
    result = solve_steady_regularized(bundle, build_n_sequence(cfg))
    _write_profile(out, result.limit)
    _record(diag, "steady_regularized", n_values=list(result.n_values),
            pairwise_x1=result.pairwise_x1, pairwise_xm=result.pairwise_xm,
            distance_ratios=result.distance_ratios,
            residual_base_x1=result.residual_base_x1,
            limit_residual_x1=result.limit_residual_x1)


def _task_spectrum(cfg: RunConfig, bundle, out: Path, diag: list) -> None:
    gap = spectral_gap(bundle, k=cfg["spectrum"]["k"])
    lam, psi = dominant_eigenpair(bundle)
    _write_profile(out, psi)
    _record(diag, "spectrum", lambda0=lam, gap=gap, k=cfg["spectrum"]["k"])


def _task_checks(cfg: RunConfig, bundle, out: Path, diag: list) -> None:
    rng = np.random.default_rng(cfg["run"]["seed"])
    failures = 0
    for profile in default_catalog():
        for weight in (WeightSpec(), WeightSpec(m=2.0), WeightSpec(m=2.0, cap=10.0)):
            report = check_kato(profile, weight)
            failures += report.status == "fail"
            _record(diag, "kato", profile=report.profile, weight=report.weight,
                    lhs=report.lhs, rhs=report.rhs, margin=report.margin,
                    status=report.status)
    for profile in default_catalog()[:3]:
        for m in (-0.5, 0.0, 0.5, 0.9):
            report = check_interpolation(profile, m)
            failures += report.status == "fail"
            _record(diag, "interpolation", profile=report.profile, m=m,
                    lhs=report.lhs, rhs=report.rhs, margin=report.margin,
                    status=report.status)
    kernels = kernel_positivity_samples(rng)
    failures += not (kernels["positivity_ok"] and kernels["monotone_ok"])
    _record(diag, "kernel_inequalities", **kernels)
    xc = bundle.mesh.centers
    f = State(values=xc * np.exp(-xc), mesh=bundle.mesh)
    gain = check_gain_smallness(bundle, f, m=2.0)
    failures += gain.status == "fail"
    _record(diag, "gain_smallness", m=2.0, crossing_time=gain.crossing_time,
            ratio_at_end=gain.ratio_at_end, status=gain.status)
    for _ in range(5):
        values = rng.random(bundle.mesh.n_cells) * np.exp(-0.3 * xc)
        dom = birth_domination(bundle, values, 2.0)
        failures += not dom["ok"]
        _record(diag, "birth_domination", **dom)
    if failures:
        raise PropertyViolation(f"{failures} analysis checks failed")


_TASKS = {
    "evolve": _task_evolve,
    "steady": _task_steady,
    "steady_regularized": _task_regularized,
    "spectrum": _task_spectrum,
    "checks": _task_checks,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fragdiff",
        description="Conservative solver for fragmentation with size diffusion")
    parser.add_argument("--config", type=Path, help="path to a run configuration file")
    parser.add_argument("--preset", help="named scenario instead of a config file")
    parser.add_argument("--task", help="override the configured task")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        if (args.config is None) == (args.preset is None):
            raise ConfigError("provide exactly one of --config or --preset")
        cfg = parse_config(args.config) if args.config else preset_config(args.preset)
        task = cfg["run"]["task"] if args.task is None else args.task
        if task not in _TASKS:
            message = f"task must be one of {sorted(_TASKS)}, got {task!r}"
            raise cfg.error(message) if args.task is None else \
                ConfigError(f"--task: {message}")
        cfg.sections["run"]["task"] = task
        root = args.out or Path(os.environ.get("FRAGDIFF_OUT_ROOT", ".")) / "fragdiff-run"
        out = Path(root)
        out.mkdir(parents=True, exist_ok=True)
        bundle = cfg.bundle       # built by the parse; the task does not change it
        (out / "run_meta.json").write_text(
            json.dumps(_run_meta(cfg, bundle), indent=2, sort_keys=True) + "\n")
        diag: list[str] = []
        try:
            _TASKS[task](cfg, bundle, out, diag)
        finally:
            (out / "diagnostics.jsonl").write_text("".join(line + "\n" for line in diag))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 4
    if not args.quiet:
        print(f"task {task!r} done, artifacts in {out}")
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
