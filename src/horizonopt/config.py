"""Configuration documents: JSON schema, loading, and problem construction.

A configuration has sections mesh / operator / nonlinearity / discounts /
cost / data / admissible / time, plus optional optimizer and horizon_study
sections.  Closed-form data fields use the named templates of
:mod:`horizonopt.descriptors`.  The builders share one boundary: an error
raised while building objects from a document is a ConfigError.
"""

from __future__ import annotations

import functools
import json
from dataclasses import fields, replace

import jsonschema

from .admissible import AdmissibleSet
from .descriptors import field_from_config
from .horizon import HorizonStudyConfig
from .mesh import interval_mesh, rectangle_mesh
from .optimizer import OptimizerConfig
from .problem import (Discounts, EllipticForm, NewtonConfig, Nonlinearity,
                      ProblemSpec, builtin_nonlinearities, default_aux_rate,
                      default_integrability_exponent, linear_nonlinearity)
from .spaces import TimeGrid


class ConfigError(ValueError):
    """Malformed configuration document (parse or schema failure, or a value
    the objects built from it reject)."""


_FIELD_SCHEMA = {
    "type": "object",
    "properties": {"template": {"type": "string"}},
    "required": ["template"],
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "mesh": {
            "type": "object",
            "properties": {
                "dimension": {"enum": [1, 2]},
                "length": {"type": "number", "exclusiveMinimum": 0},
                "nodes": {"type": "integer", "minimum": 3},
                "lengths": {"type": "array", "items": {"type": "number"}, "minItems": 2,
                            "maxItems": 2},
                "shape": {"type": "array", "items": {"type": "integer"}, "minItems": 2,
                          "maxItems": 2},
                "control": {"type": "object"},
                "observation": {"type": "object"},
            },
            "required": ["control"],
        },
        "operator": {
            "type": "object",
            "properties": {
                "diffusion": {"type": ["number", "array"]},
                "reaction": {"type": ["number", "array"]},
            },
        },
        "nonlinearity": {
            "type": "object",
            "properties": {
                "name": {"type": "string"},
                "coefficient": {"type": "number"},
            },
            "required": ["name"],
        },
        "discounts": {
            "type": "object",
            "properties": {
                "state_discount": {"type": "number"},
                "control_discount": {"type": "number"},
                "aux_rate": {"type": "number"},
                "integrability_exponent": {"type": "number"},
                "enforce_second_order": {"type": "boolean"},
            },
            "required": ["state_discount", "control_discount"],
        },
        "cost": {
            "type": "object",
            "properties": {
                "control_weight": {"type": "number", "exclusiveMinimum": 0},
                "track_on_observation": {"type": "boolean"},
            },
            "required": ["control_weight"],
        },
        "data": {
            "type": "object",
            "properties": {
                "initial": _FIELD_SCHEMA,
                "source": _FIELD_SCHEMA,
                "target": _FIELD_SCHEMA,
            },
            "required": ["initial", "source", "target"],
        },
        "admissible": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["ball", "box"]},
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "lower": {"type": "number"},
                "upper": {"type": "number"},
            },
            "required": ["kind"],
        },
        "time": {
            "type": "object",
            "properties": {
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "step": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["horizon", "step"],
        },
        "optimizer": {"type": "object"},
        "horizon_study": {
            "type": "object",
            "properties": {
                "horizons": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "reference_horizon": {"type": "number"},
                "extension": {"enum": ["reference", "zero"]},
            },
            "required": ["horizons"],
        },
        "seed": {"type": "integer"},
    },
    "required": ["mesh", "nonlinearity", "discounts", "cost", "data", "admissible", "time"],
}

# the schema is constant, so it is checked against its metaschema once, here,
# instead of on every validation
_VALIDATOR_CLASS = jsonschema.validators.validator_for(CONFIG_SCHEMA)
_VALIDATOR_CLASS.check_schema(CONFIG_SCHEMA)
_VALIDATOR = _VALIDATOR_CLASS(CONFIG_SCHEMA)


def load_config(path) -> dict:
    """Read and schema-validate a configuration file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    validate_config(raw)
    return raw


def validate_config(cfg: dict) -> None:
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(cfg))
    if error is not None:
        path = ".".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"configuration field {path}: {error.message}") from error


def _document_errors(build):
    """The one translation point from building to configuration errors: a
    KeyError, TypeError or ValueError raised while ``build`` turns a document
    into objects is a ConfigError; a ConfigError passes through unchanged."""
    @functools.wraps(build)
    def run(cfg):
        try:
            return build(cfg)
        except ConfigError:
            raise
        except KeyError as exc:
            raise ConfigError(f"missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
    return run


def _region(mcfg: dict, name: str, dim: int):
    """``mesh.<name>``: {lo, hi} on an interval, {box: [[lo, hi], [lo, hi]]}
    on a rectangle; None when the section is absent."""
    region = mcfg.get(name)
    if region is None:
        return None
    try:
        if dim == 1:
            return (region["lo"], region["hi"])
        return tuple((lo, hi) for lo, hi in region["box"])
    except (KeyError, TypeError, ValueError) as exc:
        form = "{lo, hi}" if dim == 1 else "{box: [[lo, hi], [lo, hi]]}"
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"mesh.{name} must be {form}: {detail}") from exc


def _build_mesh(mcfg: dict):
    dim = mcfg.get("dimension", 1)
    control, observation = (_region(mcfg, name, dim) for name in ("control", "observation"))
    if dim == 1:
        return interval_mesh(mcfg.get("length", 1.0), mcfg.get("nodes", 51),
                             control=control, observation=observation)
    return rectangle_mesh(
        tuple(mcfg.get("lengths", (1.0, 1.0))), tuple(mcfg.get("shape", (16, 16))),
        control=control, observation=observation)


def _build_nonlinearity(ncfg: dict) -> Nonlinearity:
    name = ncfg["name"]
    if name == "linear":
        return linear_nonlinearity(ncfg.get("coefficient", 1.0))
    catalog = builtin_nonlinearities()
    if name not in catalog:
        raise ConfigError(f"unknown nonlinearity {name!r}; "
                          f"available: linear, {', '.join(sorted(catalog))}")
    return catalog[name]


@_document_errors
def build_problem(cfg: dict) -> ProblemSpec:
    """Construct a ProblemSpec from a validated configuration dictionary."""
    validate_config(cfg)
    mesh = _build_mesh(cfg["mesh"])
    ocfg = cfg.get("operator", {})
    form = EllipticForm(diffusion=ocfg.get("diffusion", 1.0),
                        reaction=ocfg.get("reaction", 0.0))
    # coefficient arrays that do not fit the mesh fail here, not at assembly
    for name, values, count, unit in (
            ("diffusion", form.diffusion_values, mesh.n_elements, "element"),
            ("reaction", form.reaction_values, mesh.n_nodes, "node")):
        try:
            values(mesh)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"operator.{name} must be one number or a list of one per "
                              f"{unit} ({count} on this mesh)") from exc
    nonlin = _build_nonlinearity(cfg["nonlinearity"])
    dcfg = cfg["discounts"]
    aux = dcfg.get("aux_rate")
    if aux is None:
        aux = default_aux_rate(dcfg["state_discount"], nonlin.growth_exponent,
                               nonlin.min_slope)
    p = dcfg.get("integrability_exponent")
    if p is None:
        p = default_integrability_exponent(mesh.dimension)
    discounts = Discounts(
        state_rate=float(dcfg["state_discount"]),
        control_rate=float(dcfg["control_discount"]),
        aux_rate=float(aux),
        integrability_exponent=float(p),
        enforce_second_order=bool(dcfg.get("enforce_second_order", False)),
    )
    acfg = cfg["admissible"]
    if acfg["kind"] == "ball":
        admissible = AdmissibleSet("ball", radius=float(acfg["radius"]))
    else:
        admissible = AdmissibleSet("box", lower=float(acfg["lower"]),
                                   upper=float(acfg["upper"]))
    tcfg = cfg["time"]
    grid = TimeGrid(float(tcfg["horizon"]), float(tcfg["step"]))
    try:
        newton = NewtonConfig(**cfg.get("optimizer", {}).get("newton", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"optimizer.newton: {exc}") from exc
    ccfg = cfg["cost"]
    spec = ProblemSpec(
        mesh=mesh, operator=form, nonlinearity=nonlin, discounts=discounts,
        grid=grid, initial_state=None, source=None, target=None,
        control_weight=float(ccfg["control_weight"]), admissible=admissible,
        track_on_observation=bool(ccfg.get("track_on_observation", True)),
        newton=newton,
    )
    # the data fields go in last, so that only their errors carry the label;
    # sampling checks every field against the mesh and the grid here, so a
    # template that cannot be sampled is a configuration error, not a failure
    # of the first solve
    data = cfg["data"]
    try:
        spec = replace(spec, initial_state=field_from_config(data["initial"]),
                       source=field_from_config(data["source"]),
                       target=field_from_config(data["target"]))
        for name in ("initial_values", "source_samples", "target_samples"):
            getattr(spec, name)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"data field: {exc}") from exc
    return spec


@_document_errors
def build_optimizer_config(cfg: dict) -> OptimizerConfig:
    """The optimizer section as an OptimizerConfig.  Its ``newton`` settings
    belong to the problem: ``build_problem`` reads them."""
    ocfg = {k: v for k, v in cfg.get("optimizer", {}).items() if k != "newton"}
    unknown = set(ocfg) - {f.name for f in fields(OptimizerConfig)}
    if unknown:
        raise ConfigError(f"unknown optimizer options: {sorted(unknown)}")
    return OptimizerConfig(**ocfg)


@_document_errors
def build_horizon_config(cfg: dict) -> HorizonStudyConfig:
    """The horizon_study section as a HorizonStudyConfig; every swept horizon
    and the reference horizon must be a multiple of ``time.step``."""
    hcfg = cfg.get("horizon_study")
    if hcfg is None:
        raise ConfigError("configuration has no horizon_study section")
    config = HorizonStudyConfig(
        horizons=tuple(hcfg["horizons"]),
        reference_horizon=hcfg.get("reference_horizon"),
        extension=hcfg.get("extension", "reference"),
        optimizer=build_optimizer_config(cfg),
    )
    step = float(cfg["time"]["step"])
    for horizon in (*config.horizons, config.resolved_reference()):
        TimeGrid(horizon, step)
    return config


def apply_overrides(cfg: dict, assignments: list) -> dict:
    """Apply ``section.key=value`` command-line overrides to a config dict."""
    out = json.loads(json.dumps(cfg))
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        keys = path.split(".")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a non-object")
        node[keys[-1]] = value
    validate_config(out)
    return out
