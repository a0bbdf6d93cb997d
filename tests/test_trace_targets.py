"""The benchmark's tracer (`perfbench/spans.py`) patches package callables by
name; a rename in `src/`, or a path that stops calling a traced callable,
must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module_name, attr) for module_name, attr, _, _ in spans.TARGETS]


@pytest.mark.parametrize("module_name, attr", traced_names())
def test_traced_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.fixture(scope="module")
def bundles():
    from fragdiff import (ConstantRate, CustomKernel, PowerLawKernel, assemble_bundle,
                          build_mesh)
    mesh = build_mesh(20.0, 64)
    binary = CustomKernel(lambda x, y: 2.0 / y * np.ones_like(x), name="binary")
    return {"power-law": assemble_bundle(mesh, ConstantRate(1.0), PowerLawKernel(0.0)),
            "custom": assemble_bundle(mesh, ConstantRate(1.0), binary)}


def _counting(monkeypatch, owner, name):
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("kind, scheme", [("power-law", "imex_euler"),
                                          ("custom", "imex_euler"),
                                          ("power-law", "fully_implicit")])
def test_evolve_advances_once_per_step(bundles, monkeypatch, kind, scheme):
    # the tracer's evolution.advance_us times Stepper.advance: every step is
    # one call.  evolve calls Stepper.step not at all, so the tracer's
    # evolution.step_us and evolution.steps count only library calls of step()
    from fragdiff import IntegratorConfig, State, evolve
    from fragdiff.evolution import Stepper
    bundle = bundles[kind]
    calls = _counting(monkeypatch, Stepper, "advance")
    steps = _counting(monkeypatch, Stepper, "step")
    initial = State(values=np.exp(-bundle.mesh.centers), mesh=bundle.mesh)
    evolve(bundle, initial, IntegratorConfig(scheme=scheme, dt=1e-3, t_end=0.037))
    assert len(calls) == 37 and steps == []


@pytest.mark.parametrize("kind", ["power-law", "custom"])
def test_steady_residual_goes_through_apply_reaction(bundles, monkeypatch, kind):
    # both workloads reach operators.apply_reaction_us through every steady
    # solve: its residual is one bundle.apply
    from fragdiff import solve_steady
    from fragdiff.operators import OperatorBundle
    calls = _counting(monkeypatch, OperatorBundle, "apply_reaction")
    solve_steady(bundles[kind])
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["power-law", "custom"])
def test_generator_apply_goes_through_apply_reaction(bundles, monkeypatch, kind):
    # the evolve-presets workload reaches operators.apply_reaction_us through
    # the steady residual's one bundle.apply
    from fragdiff.operators import OperatorBundle
    calls = _counting(monkeypatch, OperatorBundle, "apply_reaction")
    bundle = bundles[kind]
    bundle.apply(np.exp(-bundle.mesh.centers))
    assert len(calls) == 1


@pytest.mark.parametrize("kind, t_end, fills", [("custom", 1.0, 2), ("power-law-2048", 0.1, 7)])
def test_evolve_fills_blocks_of_a_fixed_byte_size(bundles, monkeypatch, kind, t_end, fills):
    # 1,000 steps of the 64-cell custom bundle take two 512-row blocks, 100
    # steps at N = 2048 seven 16-row ones: a change of the block rule shows
    # as a count, not as timing noise
    from fragdiff import (ConstantRate, IntegratorConfig, PowerLawKernel, State,
                          assemble_bundle, build_mesh, evolve)
    from fragdiff.evolution import Stepper
    if kind == "custom":
        bundle = bundles[kind]
    else:
        bundle = assemble_bundle(build_mesh(40.0, 2048), ConstantRate(1.0), PowerLawKernel(0.0))
    calls = _counting(monkeypatch, Stepper, "fill")
    initial = State(values=np.exp(-bundle.mesh.centers), mesh=bundle.mesh)
    evolve(bundle, initial, IntegratorConfig(dt=1e-3, t_end=t_end))
    assert len(calls) == fills
