"""The package's public names resolve once each, its layering holds, and its
rules reject NaN and inf."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import fragdiff
from fragdiff.checks import WeightSpec, check_gain_smallness
from fragdiff.mesh import moment_of, norm_row


def test_every_public_name_resolves():
    missing = [name for name in fragdiff.__all__ if not hasattr(fragdiff, name)]
    assert missing == []


def test_sources_parse_at_the_declared_python_floor():
    # syntax newer than requires-python (except*, say) fails here on any interpreter
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    assert floor == ("3", "10")
    for path in sorted(Path(fragdiff.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=tuple(int(part) for part in floor))


def test_only_operators_knows_the_birth_storage_and_checks_skips_evolution():
    # the step maps and solves are built in operators; checks needs no time loop;
    # the heat-kernel oracle lives in checks, so operators is the generator alone
    storage, readers, imports = {"separable", "receiver", "donor", "dense_applied"}, set(), []
    oracle, defined = {"kernel_value", "image_kernel_value", "heat_apply_exact",
                       "heat_growth_bound", "apply_generator"}, []
    for path in sorted(Path(fragdiff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in storage:
                readers.add(path.name)
            if path.name == "checks.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                imports += [name for name in names if "evolution" in name.split(".")]
            if path.name == "operators.py" and isinstance(node, ast.FunctionDef) \
                    and node.name in oracle:
                defined.append(node.name)
    assert readers == {"operators.py"}
    assert imports == []
    assert defined == []


def test_no_public_name_is_listed_twice():
    repeated = sorted({name for name in fragdiff.__all__
                       if fragdiff.__all__.count(name) > 1})
    assert repeated == []


NAN = float("nan")
MESH = fragdiff.build_mesh(10.0, 16)
BUNDLE = fragdiff.assemble_bundle(MESH, fragdiff.ConstantRate(1.0), fragdiff.PowerLawKernel(0.0))
# a rule written `if x <= bound: raise` lets NaN through; each of these must raise
NAN_CASES = {
    "PowerRate": (lambda: fragdiff.PowerRate(NAN), "gamma"),
    "ConstantRate": (lambda: fragdiff.ConstantRate(NAN), "value"),
    "ShiftedPowerRate": (lambda: fragdiff.ShiftedPowerRate(NAN, 1.0), "offset"),
    "RegularizedRate": (lambda: fragdiff.RegularizedRate(fragdiff.PowerRate(1.0), NAN),
                        "n must"),
    "TableRate-x": (lambda: fragdiff.TableRate([0.0, NAN, 2.0], [1.0, 1.0, 1.0]),
                    "abscissae"),
    "TableRate-a": (lambda: fragdiff.TableRate([0.0, 1.0, 2.0], [1.0, NAN, 1.0]),
                    "nonnegative"),
    "assemble_diffusion": (lambda: fragdiff.assemble_diffusion(MESH, "noflux", NAN),
                           "diffusion_rate"),
    "IntegratorConfig": (lambda: fragdiff.IntegratorConfig(moment_order=NAN), "moment_order"),
    "output_every": (lambda: fragdiff.IntegratorConfig(output_every=NAN), "output_every"),
    "output_every-inf": (lambda: fragdiff.IntegratorConfig(output_every=np.inf),
                         "output_every must be a whole number >= 1, got inf"),
    "output_every-fraction": (lambda: fragdiff.IntegratorConfig(output_every=2.5),
                              "output_every must be a whole number >= 1, got 2.5"),
    "build_mesh-cells-nan": (lambda: fragdiff.build_mesh(40.0, NAN),
                             "n_cells must be a whole number >= 8, got nan"),
    "build_mesh-cells-inf": (lambda: fragdiff.build_mesh(40.0, np.inf),
                             "n_cells must be a whole number >= 8, got inf"),
    "spectral_gap-k-nan": (lambda: fragdiff.spectral_gap(BUNDLE, k=NAN),
                           "k must be a whole number >= 1, got nan"),
    "subdominant_spectrum-k-fraction": (lambda: fragdiff.subdominant_spectrum(BUNDLE, k=2.5),
                                        "k must be a whole number >= 1, got 2.5"),
    "n_sequence-nan": (lambda: fragdiff.solve_steady_regularized(BUNDLE, (4, NAN)),
                       "n_sequence must be a whole number >= 1, got nan"),
    "n_sequence-fraction": (lambda: fragdiff.solve_steady_regularized(BUNDLE, (4, 16.7, 64)),
                            "n_sequence must be a whole number >= 1, got 16.7"),
    "moment_of": (lambda: moment_of(MESH, np.ones(MESH.n_cells), NAN), "moment_order"),
    "norm_row": (lambda: norm_row(MESH, NAN), "m >= 1"),
    "norm_row-inf": (lambda: norm_row(MESH, np.inf), "finite m >= 1, got inf"),
    "check_gain_smallness": (lambda: check_gain_smallness(
        fragdiff.assemble_bundle(MESH, fragdiff.ConstantRate(1.0), fragdiff.PowerLawKernel(0.0)),
        fragdiff.State(np.ones(MESH.n_cells), MESH), NAN), "m > 1"),
    "check_gain_smallness-inf": (lambda: check_gain_smallness(
        BUNDLE, fragdiff.State(np.ones(MESH.n_cells), MESH), np.inf), "finite m > 1, got inf"),
    "WeightSpec": (lambda: WeightSpec(cap=NAN), "cap must be positive"),
    "WeightSpec-m-nan": (lambda: WeightSpec(m=NAN), "m must be finite, got nan"),
    "WeightSpec-m-inf": (lambda: WeightSpec(m=np.inf), "m must be finite, got inf"),
    "verify_mass_condition": (lambda: fragdiff.verify_mass_condition(
        fragdiff.PowerLawKernel(0.0), [1.0, NAN]), "donor samples"),
    "fragment_moment": (lambda: fragdiff.PowerLawKernel(0.0).fragment_moment(NAN, 1.0),
                        "diverges"),
    "delta_m": (lambda: fragdiff.delta_m(fragdiff.PowerLawKernel(0.0), NAN), "m > 1"),
    "delta_m-inf": (lambda: fragdiff.delta_m(fragdiff.PowerLawKernel(0.0), np.inf),
                    "finite m > 1, got inf"),
    "moment_ceiling": (lambda: fragdiff.moment_ceiling(
        fragdiff.PowerRate(1.0), fragdiff.PowerLawKernel(0.0), NAN, 40.0), "m >= 3"),
    "moment_ceiling-inf": (lambda: fragdiff.moment_ceiling(
        fragdiff.PowerRate(1.0), fragdiff.PowerLawKernel(0.0), np.inf, 40.0),
        "finite m >= 3, got inf"),
    "heat_growth_bound": (lambda: fragdiff.heat_growth_bound(NAN), "m >= 3"),
    "heat_growth_bound-inf": (lambda: fragdiff.heat_growth_bound(np.inf),
                              "finite m >= 3, got inf"),
    "kernel_value": (lambda: fragdiff.kernel_value(NAN, 0.0), "time"),
    "Mesh-nan": (lambda: fragdiff.Mesh(edges=[0.0, 1.0, NAN]), "finite"),
    "Mesh-inf": (lambda: fragdiff.Mesh(edges=[0.0, 1.0, np.inf]), "finite"),
    "build_mesh-inf": (lambda: fragdiff.build_mesh(np.inf, 16), "x_max"),
    "ConstantRate-inf": (lambda: fragdiff.ConstantRate(np.inf),
                         "value must be positive and finite"),
    "PowerRate-inf": (lambda: fragdiff.PowerRate(np.inf), "gamma must be finite"),
    "ShiftedPowerRate-offset-inf": (lambda: fragdiff.ShiftedPowerRate(np.inf, 1.0),
                                    "offset must be positive and finite"),
    "ShiftedPowerRate-gamma-inf": (lambda: fragdiff.ShiftedPowerRate(1.0, np.inf),
                                   "gamma must be finite"),
    "RegularizedRate-inf": (lambda: fragdiff.RegularizedRate(fragdiff.PowerRate(1.0), np.inf),
                            "n must be finite"),
    "TableRate-x-inf": (lambda: fragdiff.TableRate([0.0, 1.0, np.inf], [1.0, 1.0, 1.0]),
                        "abscissae must be finite"),
    "TableRate-a-inf": (lambda: fragdiff.TableRate([0.0, 1.0, 2.0], [1.0, np.inf, 1.0]),
                        "must be finite and nonnegative"),
    "assemble_diffusion-inf": (lambda: fragdiff.assemble_diffusion(MESH, "noflux", np.inf),
                               "diffusion_rate must be positive and finite"),
    "moment_order-inf": (lambda: fragdiff.IntegratorConfig(moment_order=np.inf),
                         "moment_order must be finite"),
    "require_mass-inf": (lambda: fragdiff.solve_steady(fragdiff.assemble_bundle(
        MESH, fragdiff.ConstantRate(1.0), fragdiff.PowerLawKernel(0.0)), normalize_mass=np.inf),
        "mass must be finite"),
}


@pytest.mark.parametrize("call, match", list(NAN_CASES.values()), ids=list(NAN_CASES))
def test_rules_reject_nan_and_infinite_input(call, match):
    with pytest.raises(fragdiff.ConfigError, match=match):
        call()


def test_whole_number_counts_pass_on_as_ints():
    # 64.0 cells or k = 2.0 is a whole number: honoured, and passed on as an int
    assert fragdiff.build_mesh(40.0, 64.0).n_cells == 64
    assert fragdiff.subdominant_spectrum(BUNDLE, k=2.0).size == 2
    assert type(fragdiff.IntegratorConfig(output_every=4.0).output_every) is int
