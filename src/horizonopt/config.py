"""Configuration documents: loading, overrides, and the builders that read them.

A configuration has sections mesh / operator / nonlinearity / discounts /
cost / data / admissible / time, plus optional optimizer and horizon_study
sections.  The builders are the one declaration of the format:
each reads its section through ``_read``, which checks every key the builder
declares and rejects every other key.  An error raised while building
objects from a document is a ConfigError.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .admissible import AdmissibleSet
from .descriptors import Field, SpaceProfile, TimeProfile, zero_field
from .horizon import HorizonStudyConfig
from .mesh import interval_mesh, rectangle_mesh
from .optimizer import OptimizerConfig
from .problem import (Discounts, EllipticForm, NewtonConfig, Nonlinearity,
                      ProblemSpec, builtin_nonlinearities, default_aux_rate,
                      default_integrability_exponent, linear_nonlinearity)
from .spaces import TimeGrid


class ConfigError(ValueError):
    """Malformed configuration document (parse failure, a key or value the
    builders do not accept, or a value the objects built from it reject)."""


def load_config(path) -> dict:
    """Read a configuration file; the builders check its contents."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("a configuration document is a JSON object")
    return raw


# the default of a key that must be present
_REQUIRED = object()


def _fits(value, hint) -> bool:
    """Whether a JSON value has the type ``hint``: ``float`` is any finite
    number (JSON readers take ``NaN`` and ``Infinity``) and ``int`` an
    integer, neither of them a boolean; ``list[X]`` is an array of X, and a
    union admits any of its members."""
    args = get_args(hint)
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(item, args[0]) for item in value)
    if args:
        return any(_fits(value, arg) for arg in args)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, hint)


def _one_of(*choices) -> tuple:
    return (lambda value: value in choices,
            f"must be one of {', '.join(json.dumps(c) for c in choices)}")


_POSITIVE = (lambda value: value > 0, "must be positive")
_PAIR = (lambda value: len(value) == 2, "must have 2 items")


def _read(doc, path: str, keys: dict) -> dict:
    """The section ``doc`` at ``path`` read against ``keys``, which maps each
    key a builder reads to ``(type hint, default)`` or ``(type hint, default,
    test, problem)``: a present key must have the type and pass the test, an
    absent one takes its default, or is missing when that is ``_REQUIRED``.
    Every other key is unknown, and reported first, so that a misspelled key
    is named before the key it stands for is missed."""
    prefix = f"{path}." if path else ""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'the document'}: expected object, "
                          f"got {json.dumps(doc, default=repr)}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown field "
                          f"(unknown {path or 'top-level'} options: {unknown})")
    values = {}
    for key, (hint, default, *bound) in keys.items():
        value = values[key] = doc.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"{prefix}{key}: missing field")
        if key not in doc:
            continue
        if not _fits(value, hint):
            expected = hint if get_args(hint) else hint.__name__
            raise ConfigError(f"{prefix}{key}: expected {expected}, "
                              f"got {json.dumps(value, default=repr)}")
        if bound and not bound[0](value):
            raise ConfigError(f"{prefix}{key}: {bound[1]}")
    return values


def _kind_keys(table: dict, kind) -> dict:
    """The keys ``table`` declares for ``kind``, or for every kind when it is
    none of them, so that a misspelled key is named before the kind."""
    if isinstance(kind, str) and kind in table:
        return table[kind]
    return {key: spec for keys in table.values() for key, spec in keys.items()}


def _settings_keys(cls) -> dict:
    """The keys of a settings dataclass: its fields, type hints and defaults."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in fields(cls)}


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


def _region(doc, name: str, dim: int):
    """``mesh.<name>``: {lo, hi} on an interval, {box: [[lo, hi], [lo, hi]]}
    on a rectangle; None when the section is absent."""
    if doc is None:
        return None
    one, two = (_REQUIRED, None) if dim == 1 else (None, _REQUIRED)
    region = _read(doc, f"mesh.{name}", {
        "lo": (float, one), "hi": (float, one),
        "box": (list[list[float]], two, lambda box: len(box) == 2
                and all(len(pair) == 2 for pair in box), "must be [[lo, hi], [lo, hi]]")})
    if dim == 1:
        return (region["lo"], region["hi"])
    return tuple((lo, hi) for lo, hi in region["box"])


def _build_mesh(doc):
    # both dimensions' keys are declared: a key counts as unknown only if no
    # dimension reads it, so switching the dimension keeps a document valid
    mcfg = _read(doc, "mesh", {
        "dimension": (int, 1, *_one_of(1, 2)), "length": (float, 1.0, *_POSITIVE),
        "nodes": (int, 51, lambda nodes: nodes >= 3, "must be at least 3"),
        "lengths": (list[float], [1.0, 1.0], *_PAIR), "shape": (list[int], [16, 16], *_PAIR),
        "control": (dict, _REQUIRED), "observation": (dict, None)})
    dim = mcfg["dimension"]
    control, observation = (_region(mcfg[name], name, dim) for name in ("control", "observation"))
    if dim == 1:
        return interval_mesh(mcfg["length"], mcfg["nodes"],
                             control=control, observation=observation)
    return rectangle_mesh(tuple(mcfg["lengths"]), tuple(mcfg["shape"]),
                          control=control, observation=observation)


def _build_nonlinearity(doc) -> Nonlinearity:
    ncfg = _read(doc, "nonlinearity", {"name": (str, _REQUIRED), "coefficient": (float, 1.0)})
    name = ncfg["name"]
    if name == "linear":
        return linear_nonlinearity(ncfg["coefficient"])
    catalog = builtin_nonlinearities()
    if name not in catalog:
        raise ConfigError(f"unknown nonlinearity {name!r}; "
                          f"available: linear, {', '.join(sorted(catalog))}")
    return catalog[name]


# the keys each space kind reads; a template leaves the others at their defaults
_SPACE_KEYS = {
    "constant": {"value": (float, 1.0)},
    "gaussian": {"center": (float | list[float], 0.5), "width": (float, 0.2)},
    "cosine": {"mode": (int, 1)},
    "nodal": {"values": (list[float], [])},
}
_SPACE_DEFAULTS = {key: default for keys in _SPACE_KEYS.values()
                   for key, (_, default) in keys.items()}
# the space kind each template but ``zero`` names; such a template reads that
# kind's keys, ``amplitude`` and the time profile's keys
_SPACE_KIND = {"constant": "constant", "gauss_decay": "gaussian", "cosine_decay": "cosine",
               "nodal": "nodal"}
_TEMPLATE_KEYS = {
    "zero": {},
    **{name: {"amplitude": (float, 1.0), **_SPACE_KEYS[kind], "rate": (float, 0.0),
              "gauss_rate": (float, 0.0), "support_end": (float | None, None)}
       for name, kind in _SPACE_KIND.items()}}


def build_field(doc, path: str) -> Field:
    """The data template ``doc`` at ``path`` as a Field: ``zero``, or a
    template that names a space kind and reads its keys and the time
    profile's ``rate``, ``gauss_rate`` and ``support_end``."""
    template = doc.get("template") if isinstance(doc, dict) else None
    tcfg = _read(doc, path, {"template": (str, _REQUIRED, *_one_of(*_TEMPLATE_KEYS)),
                             **_kind_keys(_TEMPLATE_KEYS, template)})
    if template == "zero":
        return zero_field()
    sp = {**_SPACE_DEFAULTS, **tcfg}
    profile = SpaceProfile(
        _SPACE_KIND[template], value=float(sp["value"]), width=float(sp["width"]),
        mode=sp["mode"], center=tuple(np.atleast_1d(np.asarray(sp["center"], dtype=float))),
        nodal=tuple(float(v) for v in sp["values"]))
    end = tcfg["support_end"]
    decay = TimeProfile(decay=float(tcfg["rate"]), gauss_decay=float(tcfg["gauss_rate"]),
                        support_end=None if end is None else float(end))
    return Field(profile, decay, amplitude=float(tcfg["amplitude"]))


@_document_errors
def build_problem(cfg: dict) -> ProblemSpec:
    """Construct a ProblemSpec from a configuration document: every section
    but ``horizon_study`` and the optimizer settings other than ``newton``."""
    doc = _read(cfg, "", {
        "mesh": (dict, _REQUIRED), "operator": (dict, {}), "nonlinearity": (dict, _REQUIRED),
        "discounts": (dict, _REQUIRED), "cost": (dict, _REQUIRED), "data": (dict, _REQUIRED),
        "admissible": (dict, _REQUIRED), "time": (dict, _REQUIRED), "optimizer": (dict, {}),
        "horizon_study": (dict, None)})
    mesh = _build_mesh(doc["mesh"])
    ocfg = _read(doc["operator"], "operator", {"diffusion": (float | list[float], 1.0),
                                               "reaction": (float | list[float], 0.0)})
    form = EllipticForm(diffusion=ocfg["diffusion"], reaction=ocfg["reaction"])
    # coefficient arrays that do not fit the mesh fail here, not at assembly
    for name, values, count, unit in (
            ("diffusion", form.diffusion_values, mesh.n_elements, "element"),
            ("reaction", form.reaction_values, mesh.n_nodes, "node")):
        try:
            values(mesh)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"operator.{name} must be one number or a list of one per "
                              f"{unit} ({count} on this mesh)") from exc
    nonlin = _build_nonlinearity(doc["nonlinearity"])
    dcfg = _read(doc["discounts"], "discounts", {
        "state_discount": (float, _REQUIRED), "control_discount": (float, _REQUIRED),
        "aux_rate": (float, None), "integrability_exponent": (float, None),
        "enforce_second_order": (bool, False)})
    aux = dcfg["aux_rate"]
    if aux is None:
        aux = default_aux_rate(dcfg["state_discount"], nonlin.growth_exponent,
                               nonlin.min_slope)
    p = dcfg["integrability_exponent"]
    if p is None:
        p = default_integrability_exponent(mesh.dimension)
    discounts = Discounts(
        state_rate=float(dcfg["state_discount"]),
        control_rate=float(dcfg["control_discount"]),
        aux_rate=float(aux),
        integrability_exponent=float(p),
        enforce_second_order=dcfg["enforce_second_order"],
    )
    # the keys of both kinds are declared, as for the mesh's dimensions
    ball = doc["admissible"].get("kind") == "ball"
    acfg = _read(doc["admissible"], "admissible", {
        "kind": (str, _REQUIRED, *_one_of("ball", "box")),
        "radius": (float, _REQUIRED if ball else None, *_POSITIVE),
        "lower": (float, None if ball else _REQUIRED),
        "upper": (float, None if ball else _REQUIRED)})
    needed = ("radius",) if ball else ("lower", "upper")
    admissible = AdmissibleSet(acfg["kind"], **{key: float(acfg[key]) for key in needed})
    tcfg = _read(doc["time"], "time", {"horizon": (float, _REQUIRED, *_POSITIVE),
                                       "step": (float, _REQUIRED, *_POSITIVE)})
    grid = TimeGrid(float(tcfg["horizon"]), float(tcfg["step"]))
    newton = _read(doc["optimizer"].get("newton", {}), "optimizer.newton",
                   _settings_keys(NewtonConfig))
    try:
        newton = NewtonConfig(**newton)
    except ValueError as exc:
        raise ConfigError(f"optimizer.newton: {exc}") from exc
    ccfg = _read(doc["cost"], "cost", {"control_weight": (float, _REQUIRED, *_POSITIVE)})
    data = _read(doc["data"], "data", {name: (dict, _REQUIRED)
                                       for name in ("initial", "source", "target")})
    # only building the data fields and sampling them carry the label; sampling
    # here checks every field against the mesh and the grid, so a template
    # that cannot be sampled is a configuration error, not a failure of the
    # first solve
    try:
        initial, source, target = (build_field(data[key], f"data.{key}")
                                   for key in ("initial", "source", "target"))
    except ValueError as exc:
        raise ConfigError(f"data field: {exc}") from exc
    spec = ProblemSpec(
        mesh=mesh, operator=form, nonlinearity=nonlin, discounts=discounts,
        grid=grid, initial_state=initial, source=source, target=target,
        control_weight=float(ccfg["control_weight"]), admissible=admissible,
        newton=newton,
    )
    try:
        for name in ("initial_values", "source_samples", "target_samples"):
            getattr(spec, name)
    except ValueError as exc:
        raise ConfigError(f"data field: {exc}") from exc
    return spec


@_document_errors
def build_optimizer_config(cfg: dict) -> OptimizerConfig:
    """The optimizer section as an OptimizerConfig.  Its ``newton`` settings
    belong to the problem: ``build_problem`` reads them."""
    ocfg = _read(cfg.get("optimizer", {}), "optimizer",
                 {**_settings_keys(OptimizerConfig), "newton": (dict, {})})
    del ocfg["newton"]
    try:
        return OptimizerConfig(**ocfg)
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from exc


@_document_errors
def build_horizon_config(cfg: dict) -> HorizonStudyConfig:
    """The horizon_study section as a HorizonStudyConfig; every swept horizon
    and the reference horizon must be a multiple of ``time.step``."""
    if cfg.get("horizon_study") is None:
        raise ConfigError("configuration has no horizon_study section")
    hcfg = _read(cfg["horizon_study"], "horizon_study", {
        "horizons": (list[float], _REQUIRED, len, "must not be empty"),
        "reference_horizon": (float, None),
        "extension": (str, "reference", *_one_of("reference", "zero"))})
    config = HorizonStudyConfig(**hcfg)
    step = float(cfg["time"]["step"])
    for horizon in (*config.horizons, config.reference_horizon):
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
    return out
