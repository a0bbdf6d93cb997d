import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fragdiff
from fragdiff import ConfigError, NumericsError
from fragdiff.cli import _TASKS, _write_csv, main
from fragdiff.config import (build_bundle, build_initial, parse_config_text,
                             preset_config)


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def test_preset_mitosis_parses():
    cfg = preset_config("mitosis")
    assert cfg["coefficients"]["rate"] == "constant"
    assert cfg["coefficients"]["rate_value"] == 1.0
    assert cfg["coefficients"]["kernel_nu"] == 0.0
    assert cfg["domain"]["x_max"] == 40.0
    assert cfg["domain"]["cells"] == 2048


def test_empty_config_lists_missing_keys():
    with pytest.raises(ConfigError) as err:
        parse_config_text("", source="empty")
    message = str(err.value)
    assert "[run] task" in message
    assert "[domain] x_max" in message
    assert "[domain] cells" in message


def test_negative_rate_exponent_rejected():
    text = """
[run]
preset = mitosis
[coefficients]
rate = power
rate_gamma = -0.5
"""
    with pytest.raises(ConfigError, match="gamma"):
        parse_config_text(text)


def test_build_bundle_equals_the_direct_assembly():
    text = """
[run]
task = steady
[domain]
x_max = 30
cells = 96
grading = geometric
ratio = 1.01
right_bc = dirichlet
[coefficients]
rate = shifted_power
rate_value = 2.0    # read by rate = constant only
rate_offset = 0.5
rate_gamma = 1.5
regularize_n = 16
kernel_nu = -0.5
diffusion = 0.5
"""
    direct = fragdiff.assemble_bundle(
        fragdiff.build_mesh(30.0, 96, "geometric", 1.01),
        fragdiff.RegularizedRate(fragdiff.ShiftedPowerRate(0.5, 1.5), 16),
        fragdiff.PowerLawKernel(-0.5), right_bc="dirichlet", diffusion_rate=0.5)
    assert np.all(build_bundle(parse_config_text(text)).dense() == direct.dense())


def test_unknown_key_is_line_anchored_error():
    text = "[run]\npreset = mitosis\n[domain]\nx_mox = 12\n"
    with pytest.raises(ConfigError, match=":4:"):
        parse_config_text(text)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text("[rum]\ntask = evolve\n")


def test_kernel_nu_constraint():
    text = "[run]\npreset = mitosis\n[coefficients]\nkernel_nu = -2.0\n"
    with pytest.raises(ConfigError, match="nu"):
        parse_config_text(text)


def test_file_overrides_preset():
    text = "[run]\npreset = mitosis\n[domain]\ncells = 64\n"
    cfg = parse_config_text(text)
    assert cfg["domain"]["cells"] == 64
    assert cfg["domain"]["x_max"] == 40.0


def test_initial_profiles_mass_normalized():
    text = """
[run]
preset = mitosis
[domain]
cells = 128
[initial]
kind = gaussian_bump
center = 5.0
width = 1.5
mass = 2.5
"""
    cfg = parse_config_text(text)
    bundle = build_bundle(cfg)
    state = build_initial(cfg, bundle)
    got = float(np.sum(bundle.mesh.centers * state.values * bundle.mesh.widths))
    assert got == pytest.approx(2.5, rel=1e-12)


def test_equilibrium_initial_profile_starts_at_time_zero():
    cfg = parse_config_text("[run]\npreset = mitosis\n[domain]\ncells = 64\n"
                            "[initial]\nkind = equilibrium\nmass = 2\n")
    bundle = build_bundle(cfg)
    state = build_initial(cfg, bundle)
    assert state.time == 0.0
    got = float(np.sum(bundle.mesh.centers * state.values * bundle.mesh.widths))
    assert got == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def small_config(task, extra=""):
    return f"""
[run]
task = {task}
[domain]
x_max = 40.0
cells = 256
[coefficients]
rate = constant
rate_value = 1.0
[time]
dt = 0.002
t_end = 0.2
output_every = 20
{extra}
"""


def test_run_evolve_outputs(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(small_config("evolve"))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "--out", str(out), "--quiet"]) == 0
    header = (out / "moments.csv").read_text().splitlines()[0]
    assert header == "t,M0,M1,M2,Mm,dist_ref_X1,mass_drift_rel,tail_mass_frac"
    rows = (out / "moments.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    first = rows[0].split(",")
    assert len(first) == 8
    assert float(first[2]) == pytest.approx(1.0, rel=1e-12)
    profile = (out / "profile.csv").read_text().splitlines()
    assert profile[0] == "x,phi"
    assert len(profile) == 257
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["mesh"]["cells"] == 256
    diag = [json.loads(line) for line in
            (out / "diagnostics.jsonl").read_text().splitlines()]
    assert any(rec["kind"] == "evolve" for rec in diag)


def test_run_meta_records_each_input_once(tmp_path):
    # the config echo is the one record of the model's inputs
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(small_config("evolve", "[domain]\nright_bc = dirichlet\n"
                                     "[coefficients]\nkernel_nu = -0.5\ndiffusion = 0.5\n"))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "--out", str(out), "--quiet"]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert sorted(meta) == ["config", "mesh", "versions"]
    echo = meta["config"]
    assert echo["coefficients"]["rate"] == "constant"
    assert echo["coefficients"]["kernel_nu"] == -0.5
    assert echo["coefficients"]["diffusion"] == 0.5
    assert echo["domain"]["right_bc"] == "dirichlet"


def test_run_deterministic_outputs(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(small_config("evolve"))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--config", str(cfg_file), "--out", str(out), "--quiet"]) == 0
        outs.append((out / "moments.csv").read_bytes()
                    + (out / "profile.csv").read_bytes())
    assert outs[0] == outs[1]


def test_moments_csv_keeps_the_final_step(tmp_path):
    # 100 steps with output_every = 30: rows 0, 30, 60, 90, then the final step
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(small_config("evolve").replace("output_every = 20",
                                                       "output_every = 30"))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "--out", str(out), "--quiet"]) == 0
    rows = (out / "moments.csv").read_text().splitlines()[1:]
    times = [float(row.split(",")[0]) for row in rows]
    assert times == pytest.approx([0.0, 0.06, 0.12, 0.18, 0.2], rel=1e-12)


def test_run_steady_regularized_profile_is_the_limit(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[run]\npreset = mitosis\ntask = steady_regularized\n"
                        "[domain]\ncells = 256\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "--out", str(out), "--quiet"]) == 0
    [record] = [json.loads(line) for line in
                (out / "diagnostics.jsonl").read_text().splitlines()]
    assert sorted(record) == ["distance_ratios", "kind", "limit_residual_x1", "n_values",
                              "pairwise_x1", "pairwise_xm", "residual_base_x1"]
    assert record["kind"] == "steady_regularized" and record["n_values"] == [4, 16, 64, 256]
    rows = (out / "profile.csv").read_text().splitlines()[1:]
    phi = np.array([float(row.split(",")[1]) for row in rows])
    cfg = parse_config_text(cfg_file.read_text())
    limit = fragdiff.solve_steady_regularized(cfg.bundle, (4, 16, 64, 256)).limit
    assert np.array_equal(phi, limit.values)


def test_run_steady_profile(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(small_config("steady"))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "--out", str(out), "--quiet"]) == 0
    rows = (out / "profile.csv").read_text().splitlines()[1:]
    x, phi = np.array([[float(v) for v in row.split(",")] for row in rows]).T
    exact = x * np.exp(-x) / 2.0
    assert np.sum(x * np.abs(phi - exact)) * (40.0 / 256) < 5e-3


def test_run_spectrum_diagnostics(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(small_config("spectrum").replace(
        "rate = constant\nrate_value = 1.0", "rate = power\nrate_gamma = 1.0"))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "--out", str(out), "--quiet"]) == 0
    records = [json.loads(line) for line in
               (out / "diagnostics.jsonl").read_text().splitlines()]
    spectrum = next(rec for rec in records if rec["kind"] == "spectrum")
    assert spectrum["gap"] > 0
    assert abs(spectrum["lambda0"]) < 1e-6


def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[domain]\nx_max = -3\n")
    assert main(["--config", str(bad), "--quiet"]) == 2
    missing = tmp_path / "nope.cfg"
    assert main(["--config", str(missing), "--quiet"]) == 2
    assert main(["--quiet"]) == 2      # neither config nor preset


def test_every_package_error_has_its_exit_code(tmp_path, monkeypatch, capsys):
    # each error class the package exports leaves main() as an exit code
    errors = [name for name in fragdiff.__all__ if isinstance(getattr(fragdiff, name), type)
              and issubclass(getattr(fragdiff, name), Exception)]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(small_config("steady"))
    codes, messages = {}, {}
    for name in errors:
        def fail(*args, error=getattr(fragdiff, name)):
            raise error("raised by the task")
        monkeypatch.setitem(_TASKS, "steady", fail)
        codes[name] = main(["--config", str(cfg_file), "--out", str(tmp_path / name),
                            "--quiet"])
        messages[name] = capsys.readouterr().err
    assert codes == {"ConfigError": 2, "NumericsError": 3, "PropertyViolation": 4}
    assert messages == {"ConfigError": "config error: raised by the task\n",
                        "NumericsError": "numerical failure: raised by the task\n",
                        "PropertyViolation": "property violation: raised by the task\n"}


def test_csv_writer_pins_its_text(tmp_path):
    path = tmp_path / "run.csv"
    _write_csv(path, "a,b", [np.array([0.1, 1e-300]), np.array([-0.0, np.nan])])
    assert path.read_text() == "a,b\n0.1,-0.0\n1e-300,nan\n"


def test_evolve_without_a_steady_reference_still_runs(tmp_path, monkeypatch):
    def singular(*args, **kwargs):
        raise NumericsError("generator system is singular")

    monkeypatch.setattr("fragdiff.cli.solve_steady", singular)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(small_config("evolve"))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "--out", str(out), "--quiet"]) == 0
    records = [json.loads(line) for line in
               (out / "diagnostics.jsonl").read_text().splitlines()]
    assert records[0] == {"kind": "reference", "available": False}
    assert [rec["kind"] for rec in records] == ["reference", "evolve"]     # no decay_fit
    rows = (out / "moments.csv").read_text().splitlines()[1:]
    assert {row.split(",")[5] for row in rows} == {"nan"}


def test_exit_code_property_violation(tmp_path):
    # reckless step size on a growing rate: the explicit reaction breaks
    # positivity, the run aborts with the property-violation code
    text = """
[run]
task = evolve
[domain]
x_max = 40.0
cells = 128
[coefficients]
rate = power
rate_gamma = 1.0
[time]
dt = 0.2
t_end = 2.0
"""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(text)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="positivity"):
        code = main(["--config", str(cfg_file), "--out", str(out), "--quiet"])
    assert code == 4
    assert (out / "diagnostics.jsonl").read_text() == ""     # no record, still a file


def test_preset_run_with_task_override(tmp_path):
    out = tmp_path / "out"
    code = main(["--preset", "linear-rate", "--task", "checks",
                 "--out", str(out), "--quiet"])
    assert code == 0
    records = [json.loads(line) for line in
               (out / "diagnostics.jsonl").read_text().splitlines()]
    kinds = {rec["kind"] for rec in records}
    assert {"kato", "interpolation", "kernel_inequalities",
            "gain_smallness", "birth_domination"} <= kinds
    statuses = [rec.get("status", "pass") for rec in records]
    assert all(s == "pass" for s in statuses)


def test_checks_task_writes_the_kato_records_in_order(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(small_config("checks"))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "--out", str(out), "--quiet"]) == 0
    kato = [rec for rec in map(json.loads, (out / "diagnostics.jsonl").read_text().splitlines())
            if rec["kind"] == "kato"]
    profiles = ["x_exp", "shifted_exp", "sin_exp", "odd_gauss", "two_roots"]
    assert [(rec["profile"], rec["weight"]) for rec in kato] == [
        (name, weight) for name in profiles for weight in ("x", "power", "capped_power")]
    assert all(rec["status"] == "pass" for rec in kato)


# ---------------------------------------------------------------------------
# every value is checked at parse time, at the line of the key
# ---------------------------------------------------------------------------

# (section, lines before the bad key, bad key line): one row per admissibility
# rule a config value is subject to
BAD_VALUES = [
    ("domain", "", "x_max = -3"),
    ("domain", "", "cells = 4"),
    ("domain", "", "grading = spiral"),
    ("domain", "", "grading = geometric"),                 # no ratio given
    ("domain", "grading = geometric\n", "ratio = 1.5"),
    ("domain", "", "right_bc = periodic"),
    ("coefficients", "", "rate = exotic"),
    ("coefficients", "rate = power\n", "rate_gamma = -0.5"),
    ("coefficients", "rate = shifted_power\n", "rate_gamma = -1"),
    ("coefficients", "", "rate_value = 0"),
    ("coefficients", "rate = shifted_power\n", "rate_offset = -1"),
    ("coefficients", "", "regularize_n = 0"),
    ("coefficients", "", "kernel_nu = 0.5"),
    ("coefficients", "", "diffusion = 0"),
    ("time", "", "scheme = rk4"),
    ("time", "", "scheme = crank_nicolson_imex"),
    ("time", "", "dt = -0.1"),
    ("time", "", "t_end = 0"),
    ("time", "", "output_every = 0"),
    ("time", "", "moment_order = -1"),
    ("time", "dt = 0.3\n", "t_end = 1.0"),
    ("time", "", "dt = nan"),
    ("initial", "", "kind = triangle"),
    ("initial", "", "mass = -1"),
    ("initial", "", "scale = 0"),
    ("initial", "", "width = -2"),
    ("steady", "", "mass = -0.5"),
    ("regularized", "", "n_sequence = 16,4"),
    ("regularized", "", "n_sequence = 4,x"),
    ("spectrum", "", "k = 0"),
]


@pytest.mark.parametrize("section,before,bad", BAD_VALUES,
                         ids=[bad for _, _, bad in BAD_VALUES])
def test_bad_value_rejected_at_its_line(section, before, bad):
    text = f"[run]\npreset = mitosis\n[{section}]\n{before}{bad}\n"
    line = text.splitlines().index(bad) + 1
    with pytest.raises(ConfigError) as err:
        parse_config_text(text, source="run.cfg")
    assert str(err.value).startswith(f"run.cfg:{line}: [{section}] ")


# (text, line of the error, message): one row per rule of the file's syntax
MALFORMED = [
    ("[run]\npreset = mitosis\n[domain]\ncells 64\n", 4, "expected 'key = value'"),
    ("task = evolve\n[run]\npreset = mitosis\n", 1, "key outside any [section]"),
    ("[run]\npreset = mitosis\n[domain]\ncells = 64\ncells = 128\n", 5,
     "duplicate key 'cells'"),
    ("[run]\npreset = mitosis\n[domain]\ncells = 6.5\n", 4,
     "key 'cells' expects int, got '6.5'"),
    ("[run]\ntask = evolve\npreset = fission\n", 3, "[run] unknown preset 'fission'"),
    # the daughter kernel is always the power law: no [coefficients] kernel key
    ("[run]\npreset = mitosis\n[coefficients]\nkernel = custom\n", 4,
     "unknown key 'kernel' in [coefficients]"),
]


@pytest.mark.parametrize("text,line,message", MALFORMED,
                         ids=[text.splitlines()[line - 1] for text, line, _ in MALFORMED])
def test_malformed_line_rejected_at_its_line(text, line, message):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text, source="run.cfg")
    assert str(err.value).startswith(f"run.cfg:{line}: {message}")


def test_negative_steady_mass_exits_2_at_its_line(tmp_path, capsys):
    # [initial] names a mass too; the error still points at [steady]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[run]\npreset = mitosis\ntask = steady\n[domain]\ncells = 64\n"
                        "[initial]\nmass = 2\n[steady]\nmass = -1\n")
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {cfg_file}:9: [steady] mass must be finite and >= 0, got -1.0")


def test_too_many_modes_for_the_mesh_exit_2_at_their_line(tmp_path, capsys):
    # the message names [domain] cells too; the error still points at [spectrum]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[run]\npreset = mitosis\ntask = spectrum\n[domain]\ncells = 8\n"
                        "[spectrum]\nk = 6\n")
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {cfg_file}:7: [spectrum] k must be <= n_cells - 3 = 5, got 6")
    # the default k = 8 is checked against the mesh as well
    with pytest.raises(ConfigError, match=r"^run.cfg: \[spectrum\] k must be <= n_cells - 3"):
        parse_config_text("[run]\npreset = mitosis\n[domain]\ncells = 10\n",
                          source="run.cfg")


def test_error_anchor_falls_back_to_section_then_source():
    cfg = parse_config_text("[run]\npreset = mitosis\n[time]\ndt = 0.001\n",
                            source="run.cfg")
    assert str(cfg.error("dt must be positive")) == "run.cfg:4: [time] dt must be positive"
    assert str(cfg.error("t_end must be positive")) == \
        "run.cfg:3: [time] t_end must be positive"
    assert str(cfg.error("nu must lie in (-2, 0]")) == \
        "run.cfg: [coefficients] nu must lie in (-2, 0]"
    assert str(cfg.error("edges must increase")) == "run.cfg: edges must increase"


def test_unknown_task_exits_before_output(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[run]\npreset = mitosis\ntask = fly\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert f"config error: {cfg_file}:3: [run] task" in capsys.readouterr().err
    assert main(["--preset", "mitosis", "--task", "fly", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("bad", ["[time]\ndt = nan", "[time]\nt_end = inf",
                                 "[coefficients]\nrate_value = nan",
                                 "[time]\nmoment_order = -1.5"])
def test_unusable_numbers_exit_2_without_traceback(tmp_path, capsys, bad):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"[run]\npreset = mitosis\n{bad}\n")
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg_file}:4: ")
    assert "Traceback" not in err


def test_overflowing_geometric_mesh_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[run]\npreset = mitosis\n[domain]\ncells = 5000\n"
                        "grading = geometric\nratio = 1.2\n")
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg_file}:") and "Traceback" not in err
    assert "ratio = 1.2 and n_cells = 5000" in err


@pytest.mark.parametrize("text,line", [
    ("[run]\npreset = mitosis\n[time]\ndt = 1e-300\nt_end = 1e10\n", 5),
    ("[run]\ntask = evolve\n[domain]\nx_max = 40\ncells = 64\n[time]\nt_end = 1e308\n", 7),
    ("[run]\npreset = mitosis\n[time]\ndt = 1e-12\nt_end = 10\n", 5),
], ids=["explicit-dt", "default-dt", "past-physical-memory"])
def test_overflowing_step_count_exits_2_at_t_end(tmp_path, capsys, text, line):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg_file}:{line}: [time] t_end / dt = ")
    assert not out.exists()


@pytest.mark.parametrize("mass", ["1", "1e-12"])
def test_evolve_past_its_budget_exits_4_at_every_mass_scale(tmp_path, capsys, mass):
    # past its positivity budget (dt = 0.1) the linear-rate step dips at
    # step 1; the scheme is linear, so the tiny start dips as the unit one
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[run]\npreset = linear-rate\n[time]\ndt = 0.1\nt_end = 2.0\n"
                        f"[initial]\nmass = {mass}\n")
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="positivity budget"):
        assert main(["--config", str(cfg_file), "--out", str(out), "--quiet"]) == 4
    assert capsys.readouterr().err.startswith("property violation: positivity violated")
    assert not (out / "moments.csv").exists()


def _run_with_src(*args):
    """Run the interpreter in a fresh process that imports this checkout's package."""
    src = Path(fragdiff.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_module_runs_as_cli():
    proc = _run_with_src("-m", "fragdiff.cli", "--preset", "nope")
    assert proc.returncode == 2
    assert "unknown preset 'nope'" in proc.stderr


def test_cli_import_loads_no_scipy_integrate_optimize_or_special():
    # scipy.integrate brings scipy.optimize and scipy.special: about 0.3 s and
    # 19 MB at every CLI start, read by no task
    proc = _run_with_src("-c", "import sys, fragdiff.cli; print([name for name in "
                         "('scipy.integrate', 'scipy.optimize', 'scipy.special') "
                         "if name in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_run_assembles_its_bundle_once(tmp_path, monkeypatch):
    cells = []
    assemble = fragdiff.config.assemble_bundle

    def counting(mesh, *args, **kwargs):
        cells.append(mesh.n_cells)
        return assemble(mesh, *args, **kwargs)

    monkeypatch.setattr("fragdiff.config.assemble_bundle", counting)
    assert main(["--preset", "mitosis", "--task", "steady", "--out", str(tmp_path),
                 "--quiet"]) == 0
    assert cells == [2048]


def test_moments_csv_writes_the_configured_order(tmp_path):
    # Mm is the configured moment, also below order 2
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[run]\npreset = mitosis\ntask = evolve\n[domain]\ncells = 64\n"
                        "[time]\nt_end = 1.0\nmoment_order = 0.5\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "--out", str(out), "--quiet"]) == 0
    rows = [[float(v) for v in row.split(",")]
            for row in (out / "moments.csv").read_text().splitlines()[1:]]
    x, phi = np.array([[float(v) for v in row.split(",")] for row in
                       (out / "profile.csv").read_text().splitlines()[1:]]).T
    mesh = build_bundle(parse_config_text(cfg_file.read_text())).mesh
    assert rows[-1][4] == pytest.approx(np.sum(x ** 0.5 * phi * mesh.widths), rel=1e-12)
    assert rows[-1][4] != pytest.approx(rows[-1][3], rel=1e-3)     # not M2
