"""In-memory span tracing around fragdiff's public entry points.

`Tracer.install()` replaces each traced callable with a wrapper under the
name its callers look it up by (for example `fragdiff.cli.solve_steady`,
which is what the CLI calls, and `fragdiff.stationary.solve_steady`, which
is what the regularised solve calls).  Each wrapped call appends one span
(name, label, start, end, parent) to a list; nothing is written until the
run ends.  No file of the package changes.

`layer_metrics()` turns the spans of one or more traced repeats into the
per-layer figures the benchmark reports.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

N_SPLIT = (1024, 2048, 4096)     # cell counts of the scaling table
# per-call timing families: metric name -> span name (or span name.label)
PER_CALL_S = {
    "config.parse_s": "config.parse",
    "evolution.stepper_init_s.imex_euler": "evolution.stepper_init.imex_euler",
    "evolution.stepper_init_s.fully_implicit": "evolution.stepper_init.fully_implicit",
    "stationary.regularized_s": "stationary.regularized",
    "spectral.decay_rate_s": "spectral.decay_rate",
    "coefficients.custom_kernel_init_s": "coefficients.custom_kernel_init",
    "coefficients.delta_m_s": "coefficients.delta_m",
    "checks.check_kato_s": "checks.check_kato",
    "checks.check_interpolation_s": "checks.check_interpolation",
    "checks.check_gain_smallness_s": "checks.check_gain_smallness",
    "checks.kernel_positivity_samples_s": "checks.kernel_positivity_samples",
    "cli.self_s": "cli.self",
}
PER_CALL_US = {
    "operators.apply_reaction_us": "operators.apply_reaction",
    "evolution.advance_us": "evolution.advance",
    "evolution.step_us": "evolution.step",
}
PER_N_S = {
    "operators.assemble_bundle_s": "operators.assemble_bundle.powerlaw",
    "operators.dense_s": "operators.dense",
    "stationary.solve_steady_s": "stationary.solve_steady",
    "spectral.dominant_eigenpair_s": "spectral.dominant_eigenpair",
    "spectral.subdominant_spectrum_s": "spectral.subdominant_spectrum",
}
COUNTED = {"operators.dense": "operators.dense_calls",
           "stationary.solve_steady": "stationary.solve_steady_calls",
           "evolution.step": "evolution.steps"}


def _cells(args, kwargs):
    # first argument is a bundle (or `self` of an OperatorBundle method)
    return f"N{args[0].mesh.n_cells}"


def _assembly_label(args, kwargs):
    from fragdiff.coefficients import PowerLawKernel
    mesh = args[0] if args else kwargs["mesh"]
    kernel = args[2] if len(args) > 2 else kwargs["kernel"]
    kind = "powerlaw" if isinstance(kernel, PowerLawKernel) else "custom"
    return f"{kind}.N{mesh.n_cells}"


def _scheme_label(args, kwargs):
    # Stepper.__init__(self, bundle, dt, scheme="imex_euler")
    return args[3] if len(args) > 3 else kwargs.get("scheme", "imex_euler")


# (module, attribute, span name, label function).  An attribute "Cls.meth"
# patches the method on the class, which every caller shares.
TARGETS = (
    ("fragdiff.cli", "main", "cli.main", None),
    ("fragdiff.cli", "parse_config", "config.parse", None),
    ("fragdiff.config", "assemble_bundle", "operators.assemble_bundle", _assembly_label),
    ("fragdiff.operators", "assemble_bundle", "operators.assemble_bundle", _assembly_label),
    ("fragdiff.operators", "OperatorBundle.dense", "operators.dense", _cells),
    ("fragdiff.operators", "OperatorBundle.apply_reaction", "operators.apply_reaction", None),
    ("fragdiff.evolution", "Stepper.__init__", "evolution.stepper_init", _scheme_label),
    ("fragdiff.evolution", "Stepper.advance", "evolution.advance", None),
    ("fragdiff.evolution", "Stepper.step", "evolution.step", None),
    ("fragdiff.cli", "evolve", "evolution.evolve", _cells),
    ("fragdiff.evolution", "evolve", "evolution.evolve", _cells),
    ("fragdiff.evolution", "moment_of", "mesh.moment_of", None),
    ("fragdiff.evolution", "tail_mass_fraction", "mesh.tail_mass_fraction", None),
    ("fragdiff.evolution", "x1_distance_of", "mesh.x1_distance_of", None),
    ("fragdiff.cli", "solve_steady", "stationary.solve_steady", _cells),
    ("fragdiff.stationary", "solve_steady", "stationary.solve_steady", _cells),
    ("fragdiff.cli", "solve_steady_regularized", "stationary.regularized", None),
    ("fragdiff.cli", "dominant_eigenpair", "spectral.dominant_eigenpair", _cells),
    ("fragdiff.spectral", "dominant_eigenpair", "spectral.dominant_eigenpair", _cells),
    ("fragdiff.spectral", "subdominant_spectrum", "spectral.subdominant_spectrum", _cells),
    ("fragdiff.cli", "decay_rate", "spectral.decay_rate", None),
    ("fragdiff.coefficients", "CustomKernel.__init__", "coefficients.custom_kernel_init", None),
    ("fragdiff.cli", "delta_m", "coefficients.delta_m", None),
    ("fragdiff.coefficients", "delta_m", "coefficients.delta_m", None),
    ("fragdiff.cli", "check_kato", "checks.check_kato", None),
    ("fragdiff.cli", "check_interpolation", "checks.check_interpolation", None),
    ("fragdiff.cli", "check_gain_smallness", "checks.check_gain_smallness", None),
    ("fragdiff.cli", "kernel_positivity_samples", "checks.kernel_positivity_samples", None),
)


class Tracer:
    """Span recorder for one process; spans are (name, label, start_ns, end_ns, parent)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, fn, name: str, label=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, label(args, kwargs) if label else "",
                                start, end, parent)

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, label: str, fn, *args):
        """Run fn(*args) inside a span opened by the benchmark itself."""
        return self.wrap(fn, name, lambda a, k: label)(*args)

    def install(self) -> None:
        import importlib
        for module_name, attr, name, label in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, label))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _timing(out: dict, key: str, seconds: list, scale: float = 1.0) -> None:
    """p50, p99 and sample count of one per-call timing family."""
    out[f"{key}.p50"] = _pct(seconds, 50) * scale
    out[f"{key}.p99"] = _pct(seconds, 99) * scale
    out[f"{key}.n"] = len(seconds)


def _self_times(spans: list) -> list:
    child = [0] * len(spans)
    for name, label, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start - c) for (name, label, start, end, parent), c in zip(spans, child)]


def _in_tasks(spans: list) -> list:
    """Whether each span ran inside a benchmark task; the rest is gate work.

    A span's index is taken when it starts, so a parent precedes its children.
    """
    inside = []
    for name, label, start, end, parent in spans:
        inside.append(name == "bench.task" or (parent >= 0 and inside[parent]))
    return inside


def _reductions_per_step(spans: list) -> list:
    """Time in mesh reductions after each step of every evolve call, in ns.

    Inside one evolve call the spans run: stepper set-up, record(0), then
    step k followed by record(k); the reductions after step k are its own.
    """
    per_step = []
    current: dict = {}
    for name, label, start, end, parent in sorted(spans, key=lambda s: s[2]):
        if parent < 0 or spans[parent][0] != "evolution.evolve":
            continue
        if name == "evolution.step":
            if parent in current:
                per_step.append(current[parent])
            current[parent] = 0
        elif name.startswith("mesh.") and parent in current:
            current[parent] += end - start
    return per_step + list(current.values())


def layer_metrics(repeats: list) -> dict:
    """Per-layer metrics from the span lists of several traced repeats.

    Timings pool the calls of every repeat; counts and totals are medians of
    the per-repeat values.
    """
    calls = defaultdict(list)
    per_repeat = defaultdict(list)
    reductions = []
    for spans in repeats:
        totals = defaultdict(float)
        for (name, label, start, end, parent), own, inside in zip(
                spans, _self_times(spans), _in_tasks(spans)):
            if not inside:
                continue
            dur = (end - start) * 1e-9
            calls[name].append(dur)
            if label:
                calls[f"{name}.{label}"].append(dur)
            totals[name.split(".")[0] + ".self_total_s"] += own * 1e-9
            if name in COUNTED:
                totals[COUNTED[name]] += 1
            if name == "operators.dense":
                totals["operators.dense_bytes"] += 8 * int(label[1:]) ** 2
            elif name == "cli.main":
                # the benchmark's own task span names the task and scenario
                calls[f"cli.main.{spans[parent][1]}"].append(dur)
                calls["cli.self"].append(own * 1e-9)
        evolve_ns = sum(s[3] - s[2] for s in spans if s[0] == "evolution.evolve")
        inner_ns = sum(s[3] - s[2] for s in spans if s[4] >= 0
                       and spans[s[4]][0] == "evolution.evolve"
                       and s[0] in ("evolution.step", "evolution.stepper_init"))
        steps = totals["evolution.steps"]
        totals["evolution.record_us"] = (evolve_ns - inner_ns) * 1e-3 / steps if steps else 0.0
        for key, value in totals.items():
            per_repeat[key].append(value)
        reductions += _reductions_per_step(spans)

    out = {key: float(statistics.median(values)) for key, values in per_repeat.items()}
    for metric, span in PER_CALL_S.items():
        _timing(out, metric, calls[span])
    for metric, span in PER_CALL_US.items():
        _timing(out, metric, calls[span], 1e6)
    for metric, span in PER_N_S.items():
        for n in N_SPLIT:
            _timing(out, f"{metric}.N{n}", calls[f"{span}.N{n}"])
    _timing(out, "operators.assemble_custom_s",
            [d for key, ds in calls.items()
             if key.startswith("operators.assemble_bundle.custom.") for d in ds])
    _timing(out, "mesh.reductions_us", [r * 1e-9 for r in reductions], 1e6)
    for key, values in calls.items():
        if key.startswith("cli.main."):
            out[f"cli.main_s.{key[len('cli.main.'):]}.p50"] = _pct(values, 50)
    out["trace.spans"] = float(statistics.median(len(s) for s in repeats))
    return out


def unreached(metrics: dict, names: list, skip: tuple, smoke: bool) -> list:
    """Declared layers that read 0 calls although the workload reaches them.

    A wrapper that stops matching how the package looks a callable up
    records nothing, and its timings then read 0, which looks like a gain.
    The call counts (`.n`, `*_calls`, `evolution.steps`) and the per-task
    `cli.main_s` times show that loss.  `skip` lists the name prefixes the
    workload is designed not to reach; smoke mode shrinks every mesh, so the
    per-N families are left out there.
    """
    out = []
    for name in names:
        counted = (name.endswith((".n", "_calls")) or name == "evolution.steps"
                   or name.startswith("cli.main_s."))
        per_n = any(f".N{n}." in name for n in N_SPLIT)
        if not counted or name.startswith(skip) or (smoke and per_n):
            continue
        if metrics.get(name, 0.0) <= 0:
            out.append(name)
    return out


def scaling_table(metrics: dict) -> list:
    """Dense-path cost against N, with computed (not measured) bytes and flops."""
    rows = []
    for n in N_SPLIT:
        rows.append({
            "N": n,
            "solve_steady_s_p50": metrics.get(f"stationary.solve_steady_s.N{n}.p50", 0.0),
            "subdominant_spectrum_s_p50":
                metrics.get(f"spectral.subdominant_spectrum_s.N{n}.p50", 0.0),
            "dense_s_p50": metrics.get(f"operators.dense_s.N{n}.p50", 0.0),
            "computed_dense_bytes": 8 * n * n,
            "computed_lu_flops": 2.0 * n ** 3 / 3.0,
        })
    return rows
