"""Command-line entry point: run one task, write deterministic artifacts.

Outputs per run directory:
    moments.csv       t,M0,M1,M2,Mm,dist_ref_X1,mass_drift_rel,tail_mass_frac
    profile.csv       x,phi  (final state, or the steady profile)
    diagnostics.jsonl one JSON record per check or spectral result
    run_meta.json     config echo, mesh statistics, package versions

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
from .coefficients import delta_m
from .config import (RunConfig, build_bundle, build_initial, build_integrator,
                     build_n_sequence, parse_config, preset_config)
from .errors import ConfigError, NumericsError, PropertyViolation
from .evolution import evolve
from .mesh import State, mass
from .spectral import decay_rate, dominant_eigenpair, spectral_gap
from .stationary import solve_steady, solve_steady_regularized


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_moments_csv(path: Path, trajectory, every: int, order: float) -> None:
    lines = ["t,M0,M1,M2,Mm,dist_ref_X1,mass_drift_rel,tail_mass_frac"]
    n = trajectory.times.size
    rows = list(range(0, n, every))
    if rows[-1] != n - 1:
        rows.append(n - 1)
    for k in rows:
        dist = trajectory.dist_ref[k] if trajectory.dist_ref is not None else float("nan")
        lines.append(",".join([
            _fmt(trajectory.times[k]),
            _fmt(trajectory.moments[0.0][k]),
            _fmt(trajectory.moments[1.0][k]),
            _fmt(trajectory.moments[2.0][k]),
            _fmt(trajectory.moments[order][k]),
            _fmt(dist),
            _fmt(trajectory.mass_drift_rel[k]),
            _fmt(trajectory.tail_fraction[k]),
        ]))
    path.write_text("\n".join(lines) + "\n")


def _write_profile_csv(path: Path, state: State) -> None:
    lines = ["x,phi"]
    for x, phi in zip(state.mesh.centers, state.values):
        lines.append(f"{_fmt(x)},{_fmt(phi)}")
    path.write_text("\n".join(lines) + "\n")


class _Diagnostics:
    def __init__(self, path: Path):
        self.path = path
        self.records: list[str] = []

    def add(self, kind: str, **payload) -> None:
        record = {"kind": kind}
        record.update(payload)
        self.records.append(json.dumps(record, sort_keys=True, default=_json_default))

    def flush(self) -> None:
        self.path.write_text("\n".join(self.records) + ("\n" if self.records else ""))


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _run_meta(cfg: RunConfig, bundle) -> dict:
    mesh = bundle.mesh
    return {
        "config": cfg.echo(),
        "mesh": {"cells": mesh.n_cells, "x_max": mesh.x_max,
                 "h_min": float(mesh.widths.min()), "h_max": float(mesh.widths.max()),
                 "grading": mesh.grading},
        "coefficients": {"rate": bundle.rate.describe(),
                         "kernel": bundle.kernel.describe(),
                         "right_bc": bundle.right_bc,
                         "diffusion": bundle.diffusion_rate},
        "versions": {"fragdiff": __version__, "numpy": np.__version__},
    }


def _task_evolve(cfg: RunConfig, bundle, out: Path, diag: _Diagnostics) -> None:
    initial = build_initial(cfg, bundle)
    reference = None
    try:
        steady = solve_steady(bundle, normalize_mass=1.0)
        reference = steady.state.copy_with(steady.state.values * mass(initial))
    except (NumericsError, PropertyViolation):
        diag.add("reference", available=False)
    integrator = build_integrator(cfg)
    trajectory = evolve(bundle, initial, integrator, reference=reference)
    _write_moments_csv(out / "moments.csv", trajectory, integrator.output_every,
                       integrator.moment_order)
    _write_profile_csv(out / "profile.csv", trajectory.final)
    diag.add("evolve", steps=int(trajectory.times.size - 1),
             max_mass_drift=trajectory.max_drift,
             min_value=trajectory.min_value,
             reaction_cfl=trajectory.reaction_cfl,
             final_tail_fraction=float(trajectory.tail_fraction[-1]))
    if reference is not None:
        fit = decay_rate(trajectory, reference)
        diag.add("decay_fit", status=fit.status, nu_hat=fit.nu_hat,
                 r_squared=fit.r_squared, n_points=fit.n_points)


def _task_steady(cfg: RunConfig, bundle, out: Path, diag: _Diagnostics) -> None:
    result = solve_steady(bundle, normalize_mass=cfg["steady"]["mass"])
    _write_profile_csv(out / "profile.csv", result.state)
    diag.add("steady", residual_x1=result.residual_x1, mass=result.mass,
             min_value=result.min_value)


def _task_regularized(cfg: RunConfig, bundle, out: Path, diag: _Diagnostics) -> None:
    result = solve_steady_regularized(bundle, build_n_sequence(cfg))
    _write_profile_csv(out / "profile.csv", result.limit)
    diag.add("steady_regularized", n_values=list(result.n_values),
             pairwise_x1=result.pairwise_x1, pairwise_xm=result.pairwise_xm,
             distance_ratios=result.distance_ratios,
             residual_base_x1=result.residual_base_x1,
             limit_residual_x1=result.limit_residual_x1,
             cauchy_ok=result.cauchy_ok)


def _task_spectrum(cfg: RunConfig, bundle, out: Path, diag: _Diagnostics) -> None:
    gap = spectral_gap(bundle, k=cfg["spectrum"]["k"])
    lam, psi = dominant_eigenpair(bundle)
    _write_profile_csv(out / "profile.csv", psi)
    diag.add("spectrum", lambda0=lam, gap=gap, k=cfg["spectrum"]["k"])


def _task_checks(cfg: RunConfig, bundle, out: Path, diag: _Diagnostics) -> None:
    rng = np.random.default_rng(cfg["run"]["seed"])
    failures = 0
    for profile in default_catalog():
        for weight in (WeightSpec("x"), WeightSpec("power", m=2.0),
                       WeightSpec("capped_power", m=2.0, cap=10.0)):
            report = check_kato(profile, weight)
            failures += report.status == "fail"
            diag.add("kato", profile=report.profile, weight=report.weight,
                     lhs=report.lhs, rhs=report.rhs, margin=report.margin,
                     status=report.status)
    for profile in default_catalog()[:3]:
        for m in (-0.5, 0.0, 0.5, 0.9):
            report = check_interpolation(profile, m)
            failures += report.status == "fail"
            diag.add("interpolation", profile=report.profile, m=m,
                     lhs=report.lhs, rhs=report.rhs, margin=report.margin,
                     status=report.status)
    kernels = kernel_positivity_samples(rng)
    failures += not (kernels["positivity_ok"] and kernels["monotone_ok"])
    diag.add("kernel_inequalities", **kernels)
    xc = bundle.mesh.centers
    f = State(values=xc * np.exp(-xc), mesh=bundle.mesh)
    gain = check_gain_smallness(bundle, f, m=2.0)
    failures += gain.status == "fail"
    diag.add("gain_smallness", m=2.0, crossing_time=gain.crossing_time,
             ratio_at_end=gain.ratio_at_end, status=gain.status)
    delta2 = delta_m(bundle.kernel, 2.0)
    for _ in range(5):
        values = rng.random(bundle.mesh.n_cells) * np.exp(-0.3 * xc)
        dom = birth_domination(bundle, values, 2.0, delta2)
        failures += not dom["ok"]
        diag.add("birth_domination", **dom)
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
        diag = _Diagnostics(out / "diagnostics.jsonl")
        bundle = build_bundle(cfg)
        (out / "run_meta.json").write_text(
            json.dumps(_run_meta(cfg, bundle), indent=2, sort_keys=True) + "\n")
        try:
            _TASKS[task](cfg, bundle, out, diag)
        finally:
            diag.flush()
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
