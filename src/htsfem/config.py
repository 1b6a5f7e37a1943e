"""Declarative run configuration: JSON schema, defaults and factories.

Every default is embedded in the schema, so an empty configuration runs
the stacked-bar magnetization case at the reference parameters.
Unknown keys are rejected, and so is a source key that the scenario
does not read, unless it keeps its default.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import jsonschema

from .materials import MU0, MagneticLaw, Materials, PowerLaw, VACUUM
from .mesh import GeometryParams, Region, Scenario
from .assembly import NormSpec
from .transient import TimeConfig, ramp_then_hold


class ConfigError(ValueError):
    pass


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "scenario": {"enum": ["stacked_bar", "single_tape"],
                     "default": "stacked_bar"},
        "pairing": {"type": "array", "items": {"enum": [1, 2]},
                    "minItems": 2, "maxItems": 2, "default": [2, 1]},
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "bar_width": {"type": "number", "exclusiveMinimum": 0, "default": 0.02},
                "bar_height": {"type": "number", "exclusiveMinimum": 0, "default": 0.01},
                "air_half": {"type": "number", "exclusiveMinimum": 0, "default": 0.04},
                "tape_width": {"type": "number", "exclusiveMinimum": 0, "default": 0.01},
                "tape_thickness": {"type": "number", "exclusiveMinimum": 0, "default": 1e-6},
                "delta": {"type": "number", "exclusiveMinimum": 0, "default": 0.001},
                "min_elements_across": {"type": "integer", "minimum": 1, "default": 4},
            },
            "default": {},
        },
        "material": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "e_c": {"type": "number", "exclusiveMinimum": 0, "default": 1e-4},
                "j_c": {"type": "number", "exclusiveMinimum": 0, "default": 3e8},
                "n": {"type": "number", "minimum": 1, "default": 20},
                "j_reg_rel": {"type": "number", "exclusiveMinimum": 0, "default": 1e-3},
                "mu_r": {"type": "number", "minimum": 1, "default": 1000},
                "rho_linear": {"type": "number", "exclusiveMinimum": 0, "default": 1.6e-8},
            },
            "default": {},
        },
        "source": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "b_ext": {"type": "number", "minimum": 0, "default": 0.4},
                "current": {"type": ["number", "null"], "default": None},
                "current_rel": {"type": "number", "default": 0.5},
                "voltage": {"type": ["number", "null"], "default": None},
            },
            "default": {},
        },
        "time": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t_end": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
                "ramp_fraction": {"type": "number", "exclusiveMinimum": 0,
                                  "maximum": 1, "default": 0.5},
                "n_ramp_steps": {"type": "integer", "minimum": 1, "default": 40},
                "dt": {"type": ["number", "null"], "default": None},
                "newton_max_iter": {"type": "integer", "minimum": 1, "default": 30},
                "newton_rtol": {"type": "number", "exclusiveMinimum": 0,
                                "exclusiveMaximum": 1, "default": 1e-6},
                "newton_stol": {"type": "number", "exclusiveMinimum": 0,
                                "exclusiveMaximum": 1, "default": 1e-9},
            },
            "default": {},
        },
        "norms": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rho0": {"type": "number", "exclusiveMinimum": 0, "default": 1.6e-8},
                "dt0": {"type": ["number", "null"], "default": None},
                "nu0": {"type": ["number", "null"], "default": None},
            },
            "default": {},
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_refinements": {"type": "integer", "default": 3},
                "base_delta": {"type": ["number", "null"], "default": None},
            },
            "default": {},
        },
        "sampling": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "offset": {"type": "number", "exclusiveMinimum": 0, "default": 1e-4},
                "n_samples": {"type": "integer", "minimum": 50, "default": 200},
            },
            "default": {},
        },
        "output_dir": {"type": "string", "default": "out"},
    },
}

# built once: jsonschema.validate checks the schema against its
# metaschema on every call, over 100 times the cost of the instance check
_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


# the source keys that each scenario does not read
_UNREAD_SOURCE = {"stacked_bar": ("current_rel", "voltage"), "single_tape": ("b_ext",)}


def _apply_defaults(schema, value):
    if schema.get("type") == "object" and isinstance(value, dict):
        out = dict(value)
        for key, sub in schema.get("properties", {}).items():
            if key in out:
                out[key] = _apply_defaults(sub, out[key])
            elif "default" in sub:
                out[key] = _apply_defaults(sub, copy.deepcopy(sub["default"]))
        return out
    return value


def load_config(source=None) -> dict:
    """Validate and resolve a configuration (path, dict or None)."""
    if source is None:
        raw = {}
    elif isinstance(source, dict):
        raw = source
    else:
        try:
            raw = json.loads(Path(source).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read configuration: {err}") from err
    err = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if err is not None:
        raise ConfigError(f"invalid configuration: {err.message}") from err
    cfg = _apply_defaults(CONFIG_SCHEMA, raw)
    if cfg["scenario"] == "single_tape":
        if raw.get("pairing") is None:
            cfg["pairing"] = [1, 2]
        g = cfg["geometry"]
        if "air_half" not in raw.get("geometry", {}):
            g["air_half"] = 0.02
        if "delta" not in raw.get("geometry", {}):
            g["delta"] = 0.00025
        if "j_c" not in raw.get("material", {}):
            cfg["material"]["j_c"] = 2.5e8
    schema = CONFIG_SCHEMA["properties"]["source"]["properties"]
    for key in _UNREAD_SOURCE[cfg["scenario"]]:
        if cfg["source"][key] != schema[key]["default"]:
            raise ConfigError(f"source.{key} does not apply to the {cfg['scenario']} scenario")
    return cfg


def make_geometry(cfg) -> GeometryParams:
    g = cfg["geometry"]
    return GeometryParams(
        scenario=Scenario(cfg["scenario"]),
        bar_width=g["bar_width"], bar_height=g["bar_height"],
        air_half=g["air_half"], tape_width=g["tape_width"],
        tape_thickness=g["tape_thickness"], delta=g["delta"],
        min_elements_across=g["min_elements_across"])


def make_materials(cfg) -> Materials:
    mt = cfg["material"]
    power = PowerLaw(e_c=mt["e_c"], j_c=mt["j_c"], n=mt["n"],
                     j_reg=mt["j_reg_rel"] * mt["j_c"])
    magnetic = {int(Region.OMEGA_A_AIR): VACUUM,
                int(Region.OMEGA_A_FERRO): MagneticLaw(mt["mu_r"])}
    return Materials(power, magnetic)


def linear_materials(cfg) -> Materials:
    """Linear-conductor variant (n = 1, resistivity rho_linear)."""
    mt = cfg["material"]
    power = PowerLaw(e_c=mt["rho_linear"] * mt["j_c"], j_c=mt["j_c"], n=1)
    magnetic = {int(Region.OMEGA_A_AIR): VACUUM,
                int(Region.OMEGA_A_FERRO): MagneticLaw(mt["mu_r"])}
    return Materials(power, magnetic)


def circuit(cfg) -> tuple:
    """(mode, peak) of the conductor's or the tape's drive: the bar's
    net current, 0 unless set; the tape's voltage where set, else its
    current, ``current`` or ``current_rel`` times the critical current."""
    src, mt, g = cfg["source"], cfg["material"], cfg["geometry"]
    if cfg["scenario"] == "stacked_bar":
        return "current", src["current"] or 0.0
    if src["voltage"] is not None:
        return "voltage", src["voltage"]
    if src["current"] is not None:
        return "current", src["current"]
    return "current", src["current_rel"] * (mt["j_c"] * g["tape_thickness"] * g["tape_width"])


def _nominal_dt(t) -> float:
    """The configured step, else the ramp duration over its step count."""
    if t["dt"] is not None:
        return t["dt"]
    return t["ramp_fraction"] * t["t_end"] / t["n_ramp_steps"]


def make_time(cfg) -> TimeConfig:
    t = cfg["time"]
    t_ramp = t["ramp_fraction"] * t["t_end"]
    b_ext = (ramp_then_hold(cfg["source"]["b_ext"], t_ramp, t["t_end"])
             if cfg["scenario"] == "stacked_bar" else None)
    return TimeConfig(dt=_nominal_dt(t), t_end=t["t_end"], b_ext=b_ext,
                      drive=ramp_then_hold(circuit(cfg)[1], t_ramp, t["t_end"]),
                      max_iter=t["newton_max_iter"],
                      rel_residual_tol=t["newton_rtol"],
                      rel_increment_tol=t["newton_stol"])


def make_norms(cfg) -> NormSpec:
    n = cfg["norms"]
    dt0 = n["dt0"] if n["dt0"] is not None else _nominal_dt(cfg["time"])
    nu0 = n["nu0"] if n["nu0"] is not None else 1.0 / MU0
    return NormSpec(rho0=n["rho0"], dt0=dt0, nu0=nu0)


def dump_resolved(cfg, path):
    with open(path, "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
