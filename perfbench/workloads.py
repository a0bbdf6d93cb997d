"""The benchmark's workloads: seeded inputs, fixed task lists and output gates.

A workload is a fixed list of tasks.  The seed draws only the generated
inputs (the initial profile's kind, scale, center and width, the `[run]
seed` of the `checks` task and the custom-kernel exponent); it never
changes a cell count, a step size or a step count, so the work of a repeat
does not depend on it.

CLI tasks go through `fragdiff.cli.main` with a generated config file;
custom kernels have no CLI route (the config accepts only the power-law
family), so those tasks are library calls.  Every task's outputs pass
through a gate; a task that raises, exits nonzero or fails its gate counts
as failed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Spectral gap of linear-rate at N=1024 (ROADMAP item 2 keeps it at 2.33801).
LINEAR_RATE_GAP = 2.33801
GAP_TOL = 1e-5
STEADY_X1_MAX = 5e-5         # acceptance criterion 1, mitosis at N=2048
DRIFT_FLOOR = 1e-10          # acceptance criterion 2
DECAY_REL_TOL = 0.10         # acceptance criterion 4
DECAY_R2_MIN = 0.999         # criterion 4's fit quality
FINAL_DIST_MAX = 1e-3        # criterion 4: final X1 distance from the reference
APPLY_REL_TOL = 1e-6         # custom binary kernel against the power-law bundle
BALANCE_REL_TOL = 1e-12      # birth mass against death mass
DELTA_REL_TOL = 1e-8         # custom delta_2 against its closed form


class GateFailure(Exception):
    """An output check failed."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


@dataclass
class Task:
    label: str                              # "<task>.<scenario>"
    run: Callable[[dict], object]           # timed; gets the shared context
    check: Callable[[object, dict], dict]   # untimed; returns recorded facts
    cell_steps: int = 0                     # N * steps for time-stepping tasks
    outputs: tuple = ()                     # files whose bytes must repeat


@dataclass
class Inputs:
    kind: str
    scale: float
    center: float
    width: float
    checks_seed: int
    near_parent_p: int


def draw_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    return Inputs(kind=str(rng.choice(["exponential", "gaussian_bump"])),
                  scale=float(rng.uniform(0.5, 2.0)),
                  center=float(rng.uniform(2.0, 6.0)),
                  width=float(rng.uniform(0.5, 2.0)),
                  checks_seed=int(rng.integers(0, 2 ** 31)),
                  near_parent_p=int(rng.choice([2, 4, 6])))


# ---------------------------------------------------------------------------
# reading CLI artifacts
# ---------------------------------------------------------------------------

def _diagnostics(out: Path) -> dict:
    records = {}
    for line in (out / "diagnostics.jsonl").read_text().splitlines():
        record = json.loads(line)
        records.setdefault(record["kind"], []).append(record)
    return records


def _profile(out: Path) -> tuple[np.ndarray, np.ndarray, float]:
    data = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    x, phi = data[:, 0], data[:, 1]
    return x, phi, 2.0 * float(x[0])        # uniform mesh: first center is h/2


def _x1_error_vs_exact(x, phi, h) -> float:
    """X1 distance from the unit-mass mitosis equilibrium x e^{-x} / 2."""
    return float(np.sum(x * np.abs(phi - 0.5 * x * np.exp(-x)) * h))


def digest(paths) -> str:
    sha = hashlib.sha256()
    for path in paths:
        sha.update(Path(path).read_bytes())
    return sha.hexdigest()


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def _tail_budget(out: Path) -> float:
    """Upper bound on the truncation-boundary flux integral, int |phi_N| dt.

    The discrete mass defect is that flux alone (acceptance criterion 2).
    moments.csv records the tail mass share on every output row, and the
    last cell's mass x_N phi_N h never exceeds the tail mass, so each row
    bounds |phi_N| by tail_frac * M1 / (x_N h).
    """
    rows = np.loadtxt(out / "moments.csv", delimiter=",", skiprows=1, ndmin=2)
    x, _, h = _profile(out)
    t, m1, tail = rows[:, 0], rows[:, 2], rows[:, 7]
    phi_last = tail * np.abs(m1) / (x[-1] * h)
    return float(np.sum(np.diff(t) * np.maximum(phi_last[1:], phi_last[:-1])))


def _check_evolve(steps: int, decay_gap: float | None):
    def check(rc, ctx) -> dict:
        out = ctx["out"]
        gate(rc == 0, f"exit code {rc}")
        diag = _diagnostics(out)
        ev = diag["evolve"][0]
        budget = _tail_budget(out)
        gate(ev["steps"] == steps, f"{ev['steps']} steps, expected {steps}")
        gate(ev["max_mass_drift"] <= DRIFT_FLOOR + budget,
             f"mass drift {ev['max_mass_drift']:.3e} > {DRIFT_FLOOR} + tail budget {budget:.3e}")
        gate(ev["min_value"] >= 0.0, f"min value {ev['min_value']:.3e} < 0")
        facts = {"max_mass_drift": ev["max_mass_drift"], "tail_budget": budget}
        if decay_gap is not None and ctx["accuracy"]:
            rows = np.loadtxt(out / "moments.csv", delimiter=",", skiprows=1, ndmin=2)
            final = float(rows[-1, 5])
            gate(final <= FINAL_DIST_MAX, f"final X1 distance {final:.3e} > {FINAL_DIST_MAX}")
            fit = diag["decay_fit"][0]
            gate(fit["status"] == "ok" and fit["nu_hat"] > 0,
                 f"decay fit status {fit['status']}, nu_hat {fit['nu_hat']}")
            dev = abs(fit["nu_hat"] - decay_gap) / decay_gap
            facts.update(final_dist=final, nu_hat=fit["nu_hat"], r_squared=fit["r_squared"])
            # Initial data nearly orthogonal to the slowest mode (an exponential
            # of scale near 0.96) decays at the next mode's rate through most
            # of the fit window.  The fit then mixes two modes, its R^2 falls
            # below criterion 4's 0.999 and nu_hat does not estimate the gap:
            # it is reported, not gated.
            if fit["r_squared"] >= DECAY_R2_MIN:
                gate(dev <= DECAY_REL_TOL,
                     f"nu_hat {fit['nu_hat']:.5f} is {dev:.1%} off the gap")
            else:
                facts["mixed_decay_fit"] = [fit["nu_hat"], fit["r_squared"]]
        return facts
    return check


def _check_steady(closed_form: bool):
    def check(rc, ctx) -> dict:
        out = ctx["out"]
        gate(rc == 0, f"exit code {rc}")
        steady = _diagnostics(out)["steady"][0]
        gate(abs(steady["mass"] - 1.0) <= 1e-9, f"steady mass {steady['mass']!r}")
        facts = {"residual_x1": steady["residual_x1"]}
        if closed_form:
            err = _x1_error_vs_exact(*_profile(out))
            facts["steady_x1_err"] = err
            if ctx["accuracy"]:
                gate(err <= STEADY_X1_MAX, f"steady X1 error {err:.3e} > {STEADY_X1_MAX}")
        return facts
    return check


def _check_regularized(rc, ctx) -> dict:
    gate(rc == 0, f"exit code {rc}")
    reg = _diagnostics(ctx["out"])["steady_regularized"][0]
    # Reported, never gated: acceptance criterion 8a awaits a spec decision.
    return {"distance_ratios": reg["distance_ratios"]}


def _check_spectrum(reference_gap: float | None):
    def check(rc, ctx) -> dict:
        gate(rc == 0, f"exit code {rc}")
        gap = _diagnostics(ctx["out"])["spectrum"][0]["gap"]
        gate(gap > 0.0, f"gap {gap!r} not positive")
        if reference_gap is not None and ctx["accuracy"]:
            gate(abs(gap - reference_gap) <= GAP_TOL,
                 f"gap {gap!r} not within {GAP_TOL} of {reference_gap}")
        return {"gap": gap}
    return check


def _check_exit(rc, ctx) -> dict:
    gate(rc == 0, f"exit code {rc}")
    return {}


# ---------------------------------------------------------------------------
# task builders
# ---------------------------------------------------------------------------

_PRESET_CELLS = {"mitosis": 2048, "linear-rate": 1024}
_PRESET_STEPS = {"mitosis": 10000, "linear-rate": 4000}   # t_end / dt of the presets


def _cli_task(workdir: Path, label: str, text: str, check, cell_steps: int = 0,
              outputs: tuple = ()) -> Task:
    cfg = workdir / f"{label}.cfg"
    out = workdir / label
    cfg.write_text(text)

    def run(ctx):
        import fragdiff.cli
        return fragdiff.cli.main(["--config", str(cfg), "--out", str(out), "--quiet"])

    def checked(rc, ctx):
        return check(rc, dict(ctx, out=out))

    return Task(label, run, checked, cell_steps, tuple(out / name for name in outputs))


def _config(preset: str, task: str, inputs: Inputs, cells: int | None = None,
            extra: str = "") -> str:
    lines = [f"[run]\npreset = {preset}\ntask = {task}\nseed = {inputs.checks_seed}"]
    if cells is not None:
        lines.append(f"[domain]\ncells = {cells}")
    lines.append(f"[initial]\nkind = {inputs.kind}\nscale = {inputs.scale!r}\n"
                 f"center = {inputs.center!r}\nwidth = {inputs.width!r}")
    return "\n".join(lines) + "\n" + extra


def _cells(preset: str, smoke: bool, full: int | None = None) -> int:
    n = full or _PRESET_CELLS[preset]
    return n if not smoke else max(64, n // 32)


def evolve_presets(workdir: Path, inputs: Inputs, smoke: bool) -> list:
    tasks = []
    for preset in ("mitosis", "linear-rate"):
        n, steps = _cells(preset, smoke), _PRESET_STEPS[preset]
        decay_gap = LINEAR_RATE_GAP if preset == "linear-rate" else None
        tasks.append(_cli_task(workdir, f"evolve.{preset}",
                               _config(preset, "evolve", inputs, n),
                               _check_evolve(steps, decay_gap), n * steps,
                               ("moments.csv", "profile.csv")))
    # the equilibrium the mitosis run approaches, against its closed form
    tasks.append(_cli_task(workdir, "steady.mitosis",
                           _config("mitosis", "steady", inputs, _cells("mitosis", smoke)),
                           _check_steady(True), outputs=("profile.csv",)))
    return tasks


def dense_generator(workdir: Path, inputs: Inputs, smoke: bool) -> list:
    n, steps = _cells("mitosis", smoke), 100
    implicit = _cli_task(workdir, "evolve_implicit.mitosis",
                         _config("mitosis", "evolve", inputs, n,
                                 "[time]\nscheme = fully_implicit\nt_end = 0.1\n"),
                         _check_evolve(steps, None), n * steps,
                         ("moments.csv", "profile.csv"))
    # The short implicit evolve runs first and last, so that its throughput
    # is sampled at both ends of a repeat rather than in one 1-second window.
    # Custom kernels ride here too: their birth operator is a dense N x N
    # matrix built by scalar Gauss loops; on their own, those interpreter-bound
    # seconds spread by 20-30 % from run to run on a 2-core host.
    tasks = [implicit]
    for preset in ("mitosis", "linear-rate"):
        n = _cells(preset, smoke)
        tasks.append(_cli_task(workdir, f"steady.{preset}",
                               _config(preset, "steady", inputs, n),
                               _check_steady(preset == "mitosis"), outputs=("profile.csv",)))
        tasks.append(_cli_task(workdir, f"steady_regularized.{preset}",
                               _config(preset, "steady_regularized", inputs, n),
                               _check_regularized, outputs=("profile.csv",)))
        gap = LINEAR_RATE_GAP if preset == "linear-rate" else None
        tasks.append(_cli_task(workdir, f"spectrum.{preset}",
                               _config(preset, "spectrum", inputs, n),
                               _check_spectrum(gap), outputs=("profile.csv",)))
    n_big = _cells("mitosis", smoke, 4096)
    tasks.append(_cli_task(workdir, "steady.mitosis-N4096",
                           _config("mitosis", "steady", inputs, n_big),
                           _check_steady(True), outputs=("profile.csv",)))
    tasks.append(_cli_task(workdir, "spectrum.mitosis-N4096",
                           _config("mitosis", "spectrum", inputs, n_big),
                           _check_spectrum(None), outputs=("profile.csv",)))
    return tasks + _custom_kernel_tasks(workdir, inputs, smoke) + [implicit]


# custom kernels live on [0, 20] at N=64, where scalar Gauss assembly takes seconds
CUSTOM_X_MAX = 20.0
CUSTOM_DT, CUSTOM_T_END = 1e-3, 5.0


def _custom_kernel_tasks(workdir: Path, inputs: Inputs, smoke: bool) -> list:
    # Library calls go through the defining modules, where tracing wraps them.
    import fragdiff
    import fragdiff.coefficients as coefficients
    import fragdiff.evolution as evolution
    import fragdiff.operators as ops
    import fragdiff.stationary as stationary
    n = 16 if smoke else 64
    p = inputs.near_parent_p
    mesh = fragdiff.build_mesh(CUSTOM_X_MAX, n)
    rate = fragdiff.ConstantRate(1.0)
    results: dict = {}

    def make_kernels(ctx):
        results["binary"] = fragdiff.CustomKernel(
            lambda x, y: 2.0 / y * np.ones_like(x), name="binary")
        results["near-parent"] = fragdiff.CustomKernel(
            lambda x, y: (p + 2.0) * x ** p * y ** (-p - 1.0), name=f"near-parent-{p}")
        return 0

    def assemble(name):
        def run(ctx):
            results[f"bundle.{name}"] = ops.assemble_bundle(mesh, rate, results[name])
            return 0
        return run

    def check_assembly(name):
        def check(_, ctx):
            bundle = results[f"bundle.{name}"]
            xc, dx = mesh.centers, mesh.widths
            phi = xc * np.exp(-xc)
            born = float(np.sum(xc * bundle.birth.apply(phi) * dx))
            died = float(np.sum(xc * bundle.death * phi * dx))
            gate(abs(born - died) <= BALANCE_REL_TOL * abs(died),
                 f"{name}: birth mass {born!r} != death mass {died!r}")
            facts = {"balance_rel": abs(born - died) / abs(died)}
            if name == "binary":
                exact = fragdiff.assemble_bundle(mesh, rate, fragdiff.PowerLawKernel(0.0))
                a, b = exact.apply(phi), bundle.apply(phi)
                rel = float(np.max(np.abs(a - b)) / np.max(np.abs(a)))
                gate(rel <= APPLY_REL_TOL, f"binary apply {rel:.3e} off the power-law bundle")
                facts["apply_rel"] = rel
            return facts
        return check

    def contraction(ctx):
        results["delta"] = {name: coefficients.delta_m(results[name], 2.0)
                            for name in ("binary", "near-parent")}
        return 0

    def check_contraction(_, ctx):
        # closed form 1 - int x^2 b dx / y^2: 1/3 for b = 2/y, 1/(p+3) near the parent
        expected = {"binary": 1.0 / 3.0, "near-parent": 1.0 / (p + 3.0)}
        for name, value in results["delta"].items():
            gate(abs(value - expected[name]) <= DELTA_REL_TOL * expected[name],
                 f"{name}: delta_2 {value!r}, expected {expected[name]!r}")
        return dict(results["delta"])

    def steady(ctx):
        results["steady"] = stationary.solve_steady(results["bundle.binary"])
        return 0

    def check_steady(_, ctx):
        values = results["steady"].state.values
        xc, h = mesh.centers, float(mesh.widths[0])
        reference = fragdiff.solve_steady(
            fragdiff.assemble_bundle(mesh, rate, fragdiff.PowerLawKernel(0.0))).state.values
        rel = float(np.sum(xc * np.abs(values - reference) * h)
                    / np.sum(xc * np.abs(reference) * h))
        gate(rel <= APPLY_REL_TOL, f"custom steady {rel:.3e} off the power-law steady")
        return {"x1_err_vs_exact": _x1_error_vs_exact(xc, values, h), "steady_rel": rel,
                "digest": hashlib.sha256(values.tobytes()).hexdigest()}

    def evolve(ctx):
        bundle = results["bundle.binary"]
        xc = mesh.centers
        if inputs.kind == "exponential":
            shape = np.exp(-xc / inputs.scale)
        else:
            shape = np.exp(-((xc - inputs.center) / inputs.width) ** 2)
        initial = fragdiff.State(values=shape / np.sum(xc * shape * mesh.widths), mesh=mesh)
        # every state is kept so the leak budget below sums the exact flux
        config = fragdiff.IntegratorConfig(dt=CUSTOM_DT, t_end=CUSTOM_T_END,
                                           output_every=1)
        results["trajectory"] = evolution.evolve(bundle, initial, config)
        return 0

    def check_evolve(_, ctx):
        traj = results["trajectory"]
        # truncation-leak budget as in acceptance criterion 2
        dt_store = traj.states[0].time
        budget = sum(abs(st.values[-1]) * dt_store for st in traj.states)
        gate(traj.max_drift <= DRIFT_FLOOR + budget,
             f"mass drift {traj.max_drift:.3e} > {DRIFT_FLOOR} + tail budget {budget:.3e}")
        gate(traj.min_value >= 0.0, f"min value {traj.min_value:.3e} < 0")
        return {"max_mass_drift": traj.max_drift, "tail_budget": budget,
                "digest": hashlib.sha256(traj.final.values.tobytes()).hexdigest()}

    steps = int(round(CUSTOM_T_END / CUSTOM_DT))
    tasks = [
        Task("custom.kernels", make_kernels, lambda rc, ctx: {}),
        Task("custom.assemble.binary", assemble("binary"), check_assembly("binary")),
        Task("custom.assemble.near-parent", assemble("near-parent"),
             check_assembly("near-parent")),
        Task("custom.delta_m", contraction, check_contraction),
        Task("custom.steady.binary", steady, check_steady),
        Task("custom.evolve.binary", evolve, check_evolve, n * steps),
    ]
    for preset in ("mitosis", "linear-rate"):
        tasks.append(_cli_task(workdir, f"checks.{preset}",
                               _config(preset, "checks", inputs, _cells(preset, smoke)),
                               _check_exit))
    return tasks


BUILDERS = {"evolve-presets": evolve_presets, "dense-generator": dense_generator}

# Per-layer name prefixes each workload is designed not to reach.  Every
# other call count must be nonzero in a traced run (`spans.unreached`).
UNREACHED = {
    "evolve-presets": (
        "checks.", "coefficients.", "operators.assemble_custom_s.",
        "stationary.regularized_s.", "evolution.stepper_init_s.fully_implicit.",
        "cli.main_s.checks.", "cli.main_s.evolve_implicit.", "cli.main_s.spectrum.",
        "cli.main_s.steady_regularized.", "cli.main_s.steady.linear-rate.",
        "cli.main_s.steady.mitosis-N4096.",
        "operators.assemble_bundle_s.N4096.", "operators.dense_s.N4096.",
        "stationary.solve_steady_s.N4096.", "spectral.dominant_eigenpair_s.",
        "spectral.subdominant_spectrum_s."),
    "dense-generator": ("cli.main_s.evolve.",),
}
