"""Serializable copula descriptors: JSON form, shorthand grammar, builders.

A descriptor is a JSON object with a ``family`` tag and a ``params``
object; combinators nest child descriptors under ``left``/``right``/
``inner``/``outer``.  Tail dependence functions, generators and diagonals
enter as named built-ins with parameters (arbitrary user code is not
accepted over the file interface).  The tables below are the schema: a
family tag, shorthand head or spec name is valid exactly when it has an
entry, and every name a built object records is a name its table accepts,
so each descriptor a copula carries builds that copula again.  The built
objects carry their own accuracy pairs and closed-form tail dependence
functions, set by the builders (see ``core``); a descriptor is only read
to build.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import core, families, taildep
from .core import Copula, CopulaError
from .families import DiagonalSection, Generator
from .taildep import TailDepFunction

__all__ = [
    "DescriptorError",
    "MAX_DEPTH",
    "SHORTHAND_USAGE",
    "generator_from_spec",
    "diagonal_from_spec",
    "tdf_from_spec",
    "build_copula",
    "parse_shorthand",
    "load_descriptor",
    "descriptor_to_json",
    "descriptor_from_json",
]


class DescriptorError(CopulaError, ValueError):
    """A descriptor is malformed or references an unknown family or fixture."""


# the deepest nesting of JSON objects and arrays a descriptor may have: far beyond any combinator a user writes, and
# shallow enough that building and evaluating one this deep stays well inside Python's recursion limit
MAX_DEPTH = 100


def _require(cond: bool, message: str):
    if not cond:
        raise DescriptorError(message)


def _param(params: dict, key: str, kind=float, default=None):
    value = params.get(key, default)
    _require(value is not None, f"missing parameter {key!r}")
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DescriptorError(f"parameter {key!r} must be {kind.__name__}") from exc
    # JSON true and "3" are no numbers, and a number for an int parameter keeps its value: 3.0 is 3, but 2.6 is not 2
    _require(not (isinstance(value, (bool, str)) or kind is int and isinstance(value, float) and out != value),
             f"parameter {key!r} must be {kind.__name__}, got {json.dumps(value)}")
    return out


# spec name -> (parameter names, builder taking those parameters in order)
_GENERATORS = {
    "clayton": (("theta",), families.clayton_generator),
    "gumbel": (("theta",), families.gumbel_generator),
    "joe": (("theta",), families.joe_generator),
    "nonstrict-linear": ((), families.nonstrict_linear_generator),
}
_DIAGONALS = {"power": (("p",), families.power_diagonal)}
# the builders also take the dimension, after the parameters
_TDFS = {
    "zero": ((), taildep.zero_tdf),
    "min": ((), taildep.min_tdf),
    "clayton": (("alpha",), taildep.archimedean_tdf),
    "fig1-parabola": ((), lambda d: taildep.fig1_parabola()),
    "fig1-piecewise": ((), lambda d: taildep.fig1_piecewise()),
}


def _from_spec(table: dict, kind: str, spec: dict, *extra):
    _require(isinstance(spec, dict), f"{kind} spec must be an object")
    name = spec.get("name")
    _require(isinstance(name, str) and name in table, f"unknown {kind} {name!r}")
    keys, build = table[name]
    try:
        return build(*(_param(spec, k) for k in keys), *extra)
    except core.DomainError as exc:
        raise DescriptorError(str(exc)) from exc


def generator_from_spec(spec: dict) -> Generator:
    """Build a named Archimedean generator from {"name": ..., <params>}."""
    return _from_spec(_GENERATORS, "generator", spec)


def diagonal_from_spec(spec: dict) -> DiagonalSection:
    """Build a named diagonal section from {"name": ..., <params>}."""
    return _from_spec(_DIAGONALS, "diagonal", spec)


def tdf_from_spec(spec: dict, dimension: int = 2) -> TailDepFunction:
    """Build a tail dependence function from {"name": ..., <params>}."""
    lam = _from_spec(_TDFS, "tail dependence fixture", spec, dimension)
    _require(lam.dimension == dimension, f"{lam.name} is a bivariate fixture")
    return lam


def _child(desc: dict, key: str) -> Copula:
    _require(key in desc, f"{desc.get('family')} descriptor needs a {key!r} child")
    return _build(desc[key])


def _dim(p: dict) -> int:
    return _param(p, "d", int, 2)


# family tag -> builder of (params, descriptor)
_FAMILIES = {
    "independence": lambda p, desc: core.independence(_dim(p)),
    "comonotone": lambda p, desc: core.comonotone(_dim(p)),
    "countermonotone": lambda p, desc: core.countermonotone(),
    "archimedean": lambda p, desc: families.archimedean(generator_from_spec(p.get("generator")), _dim(p)),
    "marshall_olkin": lambda p, desc: families.marshall_olkin(_param(p, "alpha")),
    "gaussian": lambda p, desc: families.gaussian(_param(p, "rho")),
    "extreme_value": lambda p, desc: families.ev_copula(tdf_from_spec(p.get("tdf"))),
    "lower_extreme_value": lambda p, desc: families.lower_ev_copula(tdf_from_spec(p.get("tdf"))),
    "fredricks_nelsen": lambda p, desc: families.fredricks_nelsen(diagonal_from_spec(p.get("diagonal"))),
    "bertino": lambda p, desc: families.bertino(diagonal_from_spec(p.get("diagonal"))),
    "semilinear": lambda p, desc: families.semilinear(diagonal_from_spec(p.get("diagonal"))),
    "glue": lambda p, desc: core.glue(_child(desc, "left"), _child(desc, "right"), _param(p, "axis", int),
                                      _param(p, "split")),
    "survival": lambda p, desc: core.survival(_child(desc, "inner")),
    "hierarchical": lambda p, desc: families.hierarchical(_child(desc, "outer"), _child(desc, "inner")),
}


def build_copula(desc: dict) -> Copula:
    """Construct the copula described by a descriptor object, first refusing one nested deeper than ``MAX_DEPTH``:
    counted one level of distinct objects and arrays at a time, so no deep, shared or cyclic input recurses."""
    level, depth = [desc], 0
    while level := {id(v): v for v in level if isinstance(v, (dict, list))}.values():
        depth += 1
        _require(depth <= MAX_DEPTH, f"descriptor nested deeper than {MAX_DEPTH} levels")
        level = [v for x in level for v in (x.values() if isinstance(x, dict) else x)]
    return _build(desc)


def _build(desc: dict) -> Copula:
    _require(isinstance(desc, dict), "descriptor must be an object")
    family = desc.get("family")
    _require(isinstance(family, str), "descriptor needs a 'family' tag")
    _require(family in _FAMILIES, f"unknown family {family!r}")
    params = desc.get("params", {})
    _require(isinstance(params, dict), "'params' must be an object")
    try:
        return _FAMILIES[family](params, desc)
    except (core.DomainError, core.DimensionError) as exc:
        raise DescriptorError(f"invalid {family} descriptor: {exc}") from exc


def _spec(table: dict, text: str) -> dict:
    # "name[:value]" -> {"name": name, <the entry's parameter>: value}; the builder rejects unknown names
    name, colon, arg = text.partition(":")
    keys = table[name][0] if name in table else ()
    _require(arg or not colon, f"{name} has an empty parameter after ':'")
    _require(keys or not arg or name not in table, f"{name} takes no parameter, got {arg!r}")
    return {"name": name, **{k: float(arg) for k in keys}}


def _archimedean(name: str):
    return lambda a: {"family": "archimedean",
                      "params": {"generator": _spec(_GENERATORS, f"{name}:{a}" if a else name), "d": 2}}


def _power(family: str):
    return lambda a: {"family": family, "params": {"diagonal": {"name": "power", "p": float(a)}}}


# shorthand head -> (argument form, descriptor from the text after the head);
# a form starting with ':' marks a required argument
_SHORTHANDS = {
    "independence": ("[:D]", lambda a: {"family": "independence", "params": {"d": int(a or 2)}}),
    "comonotone": ("[:D]", lambda a: {"family": "comonotone", "params": {"d": int(a or 2)}}),
    "countermonotone": ("", lambda a: {"family": "countermonotone", "params": {}}),
    "clayton": (":THETA", _archimedean("clayton")),
    "gumbel": (":THETA", _archimedean("gumbel")),
    "joe": (":THETA", _archimedean("joe")),
    "nonstrict-linear": ("", _archimedean("nonstrict-linear")),
    "marshall-olkin": (":ALPHA", lambda a: {"family": "marshall_olkin", "params": {"alpha": float(a)}}),
    "gaussian": (":RHO", lambda a: {"family": "gaussian", "params": {"rho": float(a)}}),
    "fn": (":P", _power("fredricks_nelsen")),
    "fredricks-nelsen": (":P", _power("fredricks_nelsen")),
    "bertino": (":P", _power("bertino")),
    "semilinear": (":P", _power("semilinear")),
    "ev": (":FIXTURE", lambda a: {"family": "extreme_value", "params": {"tdf": _spec(_TDFS, a)}}),
    "lev": (":FIXTURE", lambda a: {"family": "lower_extreme_value", "params": {"tdf": _spec(_TDFS, a)}}),
}

SHORTHAND_USAGE = "{}; FIXTURE is one of {}".format(
    ", ".join(head + form for head, (form, _) in _SHORTHANDS.items()),
    ", ".join(name + "".join(f":{k.upper()}" for k in keys) for name, (keys, _) in _TDFS.items()),
)


def parse_shorthand(text: str) -> dict:
    """Parse the compact ``family:param`` grammar into a descriptor.

    ``SHORTHAND_USAGE`` lists the accepted forms, for example
    ``independence:3``, ``clayton:1``, ``nonstrict-linear``,
    ``marshall-olkin:0.5``, ``fn:1.5`` (power diagonal), ``ev:min`` and
    ``lev:clayton:2``.
    """
    head, colon, rest = text.strip().partition(":")
    _require(head in _SHORTHANDS, f"unknown shorthand {text!r}")
    form, make = _SHORTHANDS[head]
    _require(bool(rest) or not form.startswith(":"), f"{head} shorthand needs a parameter, e.g. {head}{form}")
    _require(bool(rest) or not colon, f"{head} shorthand has an empty parameter after ':'")
    _require(bool(form) or not rest, f"{head} shorthand takes no parameter, got {rest!r}")
    try:
        return make(rest)
    except ValueError as exc:
        raise DescriptorError(f"bad shorthand {text!r}: {exc}") from exc


def load_descriptor(source: str) -> dict:
    """Resolve a CLI argument: a JSON descriptor file path or a shorthand string."""
    path = Path(source)
    if path.suffix == ".json" or path.is_file():
        try:
            return descriptor_from_json(path.read_text())
        except OSError as exc:
            raise DescriptorError(f"cannot read descriptor file {source!r}: {exc}") from exc
    return parse_shorthand(source)


def descriptor_to_json(desc: dict) -> str:
    return json.dumps(desc, sort_keys=True)


def descriptor_from_json(text: str) -> dict:
    try:
        desc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses once per nested object or array
        raise DescriptorError(f"invalid descriptor JSON: {exc}") from exc
    _require(isinstance(desc, dict), "descriptor JSON must be an object")
    return desc
