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


def test_custom_stepper_applies_the_reaction_once(bundles, monkeypatch):
    # the dense-generator workload reaches operators.apply_reaction_us only here
    from fragdiff.evolution import Stepper
    from fragdiff.operators import OperatorBundle
    calls = _counting(monkeypatch, OperatorBundle, "apply_reaction")
    Stepper(bundles["custom"], 1e-3)
    assert len(calls) == 1
