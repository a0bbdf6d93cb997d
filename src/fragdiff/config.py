"""Run configuration: sectioned key/value files, presets, and builders.

The format is INI-like text with [section] headers, `key = value` pairs,
and '#' comments.  Unknown sections or keys are hard errors anchored to
their line.  A `preset` key in [run] starts from a named scenario; any
key given explicitly afterwards overrides the preset value.

Every value is checked at parse time, by building the objects a run uses
(its bundle through `build_bundle`, integrator and step grid, initial shape
and its mass, n-sequence, eigenvalue count, steady mass and seed): the
constructor that consumes a value states its rule.  The bundle is kept as
`RunConfig.bundle`, outside the config echo.  Errors read `<file>:<line>:
[section] <message>`, at the offending key, or at its section header when
a preset or default gave it.
Numbers must be finite, an explicit dt must divide t_end, and t_end / dt
must be a step count whose series fit in memory.  `_SCHEMA` gives each key's
type and default; `[run] task`, `[domain] x_max` and `[domain] cells` are
required.  The CLI checks the task name.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import stationary
from .coefficients import (ConstantRate, PowerLawKernel, PowerRate,
                           RegularizedRate, ShiftedPowerRate)
from .errors import ConfigError
from .evolution import IntegratorConfig
from .mesh import State, build_mesh, moment_of, require_count
from .operators import OperatorBundle, assemble_bundle
from .spectral import require_modes

# section -> key -> (type, default); default None means the key is optional
_SCHEMA = {
    "run": {"preset": (str, None), "task": (str, None), "seed": (int, 0)},
    "domain": {"x_max": (float, None), "cells": (int, None),
               "grading": (str, "uniform"), "ratio": (float, None),
               "right_bc": (str, "noflux")},
    "coefficients": {"rate": (str, "constant"), "rate_value": (float, 1.0),
                     "rate_gamma": (float, 1.0), "rate_offset": (float, 1.0),
                     "regularize_n": (int, None), "kernel_nu": (float, 0.0),
                     "diffusion": (float, 1.0)},
    "time": {"scheme": (str, "imex_euler"), "dt": (float, None),
             "t_end": (float, 10.0), "output_every": (int, 100),
             "moment_order": (float, 3.0)},
    "initial": {"kind": (str, "exponential"), "scale": (float, 1.0),
                "center": (float, 4.0), "width": (float, 1.0), "mass": (float, 1.0)},
    "steady": {"mass": (float, 1.0)},
    "regularized": {"n_sequence": (str, "4,16,64,256")},
    "spectrum": {"k": (int, 8)},
}

_REQUIRED = (("run", "task"), ("domain", "x_max"), ("domain", "cells"))

# Constructor parameters whose config key has another name.
_KEY_OF = {"n_cells": "cells", "value": "rate_value", "gamma": "rate_gamma",
           "offset": "rate_offset", "n": "regularize_n", "nu": "kernel_nu",
           "diffusion_rate": "diffusion"}

# Presets give what differs from the _SCHEMA defaults (exponential initial
# profile of scale and mass 1, binary kernel b = 2/y, rate constant 1).
PRESETS = {
    # binary breakup at constant rate: the scenario with the closed-form
    # equilibrium x exp(-x) / 2
    "mitosis": {
        "run": {"task": "evolve"},
        "domain": {"x_max": 40.0, "cells": 2048},
        "time": {"dt": 1e-3},
    },
    # size-proportional breakup rate a(x) = x: spectral-gap regime
    "linear-rate": {
        "run": {"task": "evolve"},
        "domain": {"x_max": 40.0, "cells": 1024},
        "coefficients": {"rate": "power", "rate_gamma": 1.0},
        "time": {"dt": 0.01, "t_end": 40.0, "output_every": 50},
    },
}


@dataclass
class RunConfig:
    sections: dict
    source: str = "<memory>"
    lines: dict = field(default_factory=dict)   # section or (section, key) -> line
    bundle: OperatorBundle | None = field(default=None, repr=False, compare=False)

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]

    def echo(self) -> dict:
        return {s: dict(v) for s, v in self.sections.items()}

    def error(self, message: str, section: str | None = None) -> ConfigError:
        """`message` anchored as the module docstring says, to the first key it names."""
        keys = [_KEY_OF.get(word, word) for word in re.findall(r"\w+", message)]
        named = [(sec, key) for key in keys for sec in _SCHEMA
                 if key in _SCHEMA[sec] and section in (None, sec)]
        if not named:
            return ConfigError(f"{self.source}: {message}")
        sec, key = next((hit for hit in named if hit in self.lines), named[0])
        line = self.lines.get((sec, key), self.lines.get(sec))
        where = self.source if line is None else f"{self.source}:{line}"
        return ConfigError(f"{where}: [{sec}] {message}")

    def checked(self, build, *args, section: str | None = None):
        """build(*args), its ConfigError anchored by `error` (to `section` if given)."""
        try:
            return build(*args)
        except ConfigError as exc:
            raise self.error(str(exc), section) from exc


def _parse_sections(text: str, source: str) -> tuple[dict, dict]:
    """Parse [section]/key=value text into typed values and their line numbers."""
    sections: dict = {}
    lines: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        where = f"{source}:{lineno}"
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SCHEMA:
                raise ConfigError(f"{where}: unknown section [{current}]")
            sections.setdefault(current, {})
            lines.setdefault(current, lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"{where}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _SCHEMA[current]:
            raise ConfigError(f"{where}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        target = _SCHEMA[current][key][0]
        try:
            sections[current][key] = target(value)
        except ValueError as exc:
            raise ConfigError(
                f"{where}: key {key!r} expects {target.__name__}, got {value!r}") from exc
        if target is float and not math.isfinite(sections[current][key]):
            raise ConfigError(f"{where}: [{current}] {key} must be finite, got {value!r}")
        lines[current, key] = lineno
    return sections, lines


def parse_config_text(text: str, source: str = "<memory>") -> RunConfig:
    raw, lines = _parse_sections(text, source)
    merged = {sec: {key: default for key, (_, default) in keys.items() if default is not None}
              for sec, keys in _SCHEMA.items()}
    preset = raw.get("run", {}).get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"{source}:{lines['run', 'preset']}: [run] unknown preset "
                              f"{preset!r}; available: {sorted(PRESETS)}")
        for sec, kv in PRESETS[preset].items():
            merged[sec].update(kv)
    for sec, kv in raw.items():
        merged[sec].update(kv)
    missing = [f"[{sec}] {key}" for sec, key in _REQUIRED if key not in merged[sec]]
    if missing:
        raise ConfigError(f"{source}: missing required keys: {', '.join(missing)}")
    cfg = RunConfig(sections=merged, source=source, lines=lines)
    # the objects of a run: their constructors check every value
    cfg.bundle = cfg.checked(build_bundle, cfg)
    cfg.checked(lambda: build_integrator(cfg).grid(cfg.bundle))
    cfg.checked(_check_initial, cfg["initial"], cfg.bundle, section="initial")
    cfg.checked(build_n_sequence, cfg)
    # these messages name a key of another section too ([domain] cells, [initial] mass)
    cfg.checked(require_modes, cfg["spectrum"]["k"], cfg.bundle.mesh.n_cells,
                section="spectrum")
    cfg.checked(stationary.require_mass, cfg["steady"]["mass"], section="steady")
    cfg.checked(require_count, "seed", cfg["run"]["seed"], 0)
    return cfg


def parse_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), source=str(path))


def preset_config(name: str) -> RunConfig:
    return parse_config_text(f"[run]\npreset = {name}\n", source=f"<preset:{name}>")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _choose(table: dict, name: str, choice: str):
    if choice not in table:
        raise ConfigError(f"{name} must be one of {sorted(table)}, got {choice!r}")
    return table[choice]


_RATES = {
    "constant": lambda co: ConstantRate(co["rate_value"]),
    "power": lambda co: PowerRate(co["rate_gamma"]),
    "shifted_power": lambda co: ShiftedPowerRate(co["rate_offset"], co["rate_gamma"]),
}

_SHAPES = {
    "exponential": lambda ini, bundle: np.exp(-bundle.mesh.centers / ini["scale"]),
    "gaussian_bump": lambda ini, bundle: np.exp(
        -((bundle.mesh.centers - ini["center"]) / ini["width"]) ** 2),
    "equilibrium": lambda ini, bundle: stationary.solve_steady(bundle).state.values,
    "zero": lambda ini, bundle: np.zeros(bundle.mesh.n_cells),
}


def build_bundle(cfg: RunConfig) -> OperatorBundle:
    dom, co = cfg["domain"], cfg["coefficients"]
    mesh = build_mesh(dom["x_max"], dom["cells"], dom["grading"], dom.get("ratio"))
    rate = _choose(_RATES, "rate", co["rate"])(co)
    if "regularize_n" in co:
        rate = RegularizedRate(rate, co["regularize_n"])
    return assemble_bundle(mesh, rate, PowerLawKernel(co["kernel_nu"]),
                           right_bc=dom["right_bc"], diffusion_rate=co["diffusion"])


def build_integrator(cfg: RunConfig) -> IntegratorConfig:
    return IntegratorConfig(**cfg["time"])


def build_n_sequence(cfg: RunConfig) -> tuple:
    raw = cfg["regularized"]["n_sequence"]
    try:
        values = [int(tok) for tok in raw.replace(" ", "").split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"n_sequence must list integers, got {raw!r}") from exc
    return stationary.regularization_indices(values)


def _check_initial(ini: dict, bundle: OperatorBundle) -> None:
    """The [initial] rules, the shape's mass on the bundle's mesh among them."""
    shape = _choose(_SHAPES, "kind", ini["kind"])
    for key in ("scale", "width"):
        if not ini[key] > 0:
            raise ConfigError(f"{key} must be positive, got {ini[key]}")
    stationary.require_mass(ini["mass"])
    # the equilibrium has unit mass by construction: no steady solve here
    if ini["kind"] not in ("zero", "equilibrium") and \
            not moment_of(bundle.mesh, shape(ini, bundle), 1.0) > 0:
        raise ConfigError("initial profile carries no mass on this mesh")


def build_initial(cfg: RunConfig, bundle: OperatorBundle) -> State:
    """The [initial] profile, scaled to its mass, on the mesh of the parse's bundle."""
    ini = cfg["initial"]
    values = _SHAPES[ini["kind"]](ini, bundle)
    if ini["kind"] != "zero":
        values = values * (ini["mass"] / moment_of(bundle.mesh, values, 1.0))
    return State(values=values, mesh=bundle.mesh)
