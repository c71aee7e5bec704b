"""Serializable copula descriptors: JSON form, shorthand grammar, builders.

A descriptor is a JSON object with a ``family`` tag and a ``params``
object; combinators nest child descriptors under ``left``/``right``/
``inner``/``outer``.  Tail dependence functions, generators and diagonals
enter as named built-ins with parameters (arbitrary user code is not
accepted over the file interface).  The tables below are the schema: a
family tag, shorthand head or spec name is valid exactly when it has an
entry, and every name a built object records is a name its table accepts,
so each descriptor a copula carries builds that copula again.  The built
objects carry their own accuracy pairs, set by the builders (see ``core``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from . import core, families, taildep
from .core import Copula, CopulaError
from .families import DiagonalSection, Generator
from .taildep import TailDepFunction

__all__ = [
    "DescriptorError",
    "SHORTHAND_USAGE",
    "generator_from_spec",
    "diagonal_from_spec",
    "tdf_from_spec",
    "build_copula",
    "parse_shorthand",
    "load_descriptor",
    "descriptor_to_json",
    "descriptor_from_json",
    "analytic_tdf_of",
]


class DescriptorError(CopulaError, ValueError):
    """A descriptor is malformed or references an unknown family or fixture."""


def _require(cond: bool, message: str):
    if not cond:
        raise DescriptorError(message)


def _param(params: dict, key: str, kind=float, default=None):
    value = params.get(key, default)
    _require(value is not None, f"missing parameter {key!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise DescriptorError(f"parameter {key!r} must be {kind.__name__}") from exc


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
    "fig1-parabola": ((), lambda d: taildep.lift(taildep.parabola_section())),
    "fig1-piecewise": ((), lambda d: taildep.lift(taildep.capped_slope_section())),
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
    return build_copula(desc[key])


def _dim(p: dict) -> int:
    return _param(p, "d", int, 2)


def _archimedean_tdf(p: dict, d: int) -> TailDepFunction | None:
    alpha = generator_from_spec(p.get("generator")).rv_index_at_0
    return None if alpha is None else taildep.archimedean_tdf(alpha, d)


def _power_diagonal_tdf(p: dict, d: int) -> TailDepFunction | None:
    # C(s*w)/s for the diagonal t^p is min(w) when p = 1 and O(s^(p-1)) -> 0 when p > 1
    spec = p.get("diagonal", {})
    if spec.get("name") != "power":
        return None
    return taildep.min_tdf(d) if _param(spec, "p") == 1.0 else taildep.zero_tdf(d)


def _gaussian_tdf(p: dict, d: int) -> TailDepFunction:
    # above the cutoff families.gaussian builds the comonotone copula; below
    # it the tail limit vanishes (for |rho| < 1 too slowly to estimate)
    return taildep.min_tdf(d) if _param(p, "rho") > families.GAUSS_RHO_CUTOFF else taildep.zero_tdf(d)


def _ev_tdf(p: dict, d: int) -> TailDepFunction:
    # u1 u2 exp(Lambda(-log u)) at u = s*w is of order s^(2 - Lambda(1, 1)), so C(s*w)/s tends to 0
    # unless Lambda(1, 1) = 1: Lambda is then min (the fixture min, or Clayton with alpha = inf), C is M
    lam = tdf_from_spec(p.get("tdf"), d)
    return taildep.min_tdf(d) if lam.name == "min" or lam.params.get("alpha") == math.inf else taildep.zero_tdf(d)


def _zero_tdf(p: dict, d: int) -> TailDepFunction:
    return taildep.zero_tdf(d)


# family tag -> (builder of (params, descriptor), closed-form tail dependence function of
# (params, dimension) or None where there is none)
_FAMILIES = {
    "independence": (lambda p, desc: core.independence(_dim(p)), _zero_tdf),
    "comonotone": (lambda p, desc: core.comonotone(_dim(p)), lambda p, d: taildep.min_tdf(d)),
    "countermonotone": (lambda p, desc: core.countermonotone(), _zero_tdf),
    "archimedean": (lambda p, desc: families.archimedean(generator_from_spec(p.get("generator")), _dim(p)),
                    _archimedean_tdf),
    "marshall_olkin": (lambda p, desc: families.marshall_olkin(_param(p, "alpha")), _zero_tdf),
    "gaussian": (lambda p, desc: families.gaussian(_param(p, "rho")), _gaussian_tdf),
    "extreme_value": (lambda p, desc: families.ev_copula(tdf_from_spec(p.get("tdf"))), _ev_tdf),
    "lower_extreme_value": (lambda p, desc: families.lower_ev_copula(tdf_from_spec(p.get("tdf"))),
                            lambda p, d: tdf_from_spec(p.get("tdf"), d)),
    "fredricks_nelsen": (lambda p, desc: families.fredricks_nelsen(diagonal_from_spec(p.get("diagonal"))),
                         _power_diagonal_tdf),
    "bertino": (lambda p, desc: families.bertino(diagonal_from_spec(p.get("diagonal"))), _power_diagonal_tdf),
    "semilinear": (lambda p, desc: families.semilinear(diagonal_from_spec(p.get("diagonal"))),
                   _power_diagonal_tdf),
    "glue": (lambda p, desc: core.glue(_child(desc, "left"), _child(desc, "right"),
                                       _param(p, "axis", int), _param(p, "split")), None),
    "survival": (lambda p, desc: core.survival(_child(desc, "inner")), None),
    "hierarchical": (lambda p, desc: families.hierarchical(_child(desc, "outer"), _child(desc, "inner")), None),
}


def build_copula(desc: dict) -> Copula:
    """Construct the copula described by a descriptor object."""
    _require(isinstance(desc, dict), "descriptor must be an object")
    family = desc.get("family")
    _require(isinstance(family, str), "descriptor needs a 'family' tag")
    _require(family in _FAMILIES, f"unknown family {family!r}")
    params = desc.get("params", {})
    _require(isinstance(params, dict), "'params' must be an object")
    try:
        return _FAMILIES[family][0](params, desc)
    except (core.DomainError, core.DimensionError) as exc:
        raise DescriptorError(f"invalid {family} descriptor: {exc}") from exc


def analytic_tdf_of(c: Copula) -> TailDepFunction | None:
    """Closed-form tail dependence function of a copula, or None when its
    descriptor names no family, generator, diagonal or fixture with one."""
    rule = _FAMILIES.get(c.descriptor.get("family"), (None, None))[1]
    try:
        return None if rule is None else rule(c.descriptor.get("params", {}), c.dimension)
    except DescriptorError:
        return None


def _spec(table: dict, text: str) -> dict:
    # "name[:value]" -> {"name": name, <the entry's parameter>: value}; the builder rejects unknown names
    name, _, arg = text.partition(":")
    keys = table[name][0] if name in table else ()
    return {"name": name, **{k: float(arg) for k in keys}}


def _archimedean(name: str):
    return lambda a: {"family": "archimedean", "params": {"generator": _spec(_GENERATORS, f"{name}:{a}"), "d": 2}}


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
    head, _, rest = text.strip().partition(":")
    _require(head in _SHORTHANDS, f"unknown shorthand {text!r}")
    form, make = _SHORTHANDS[head]
    _require(bool(rest) or not form.startswith(":"), f"{head} shorthand needs a parameter, e.g. {head}{form}")
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


def descriptor_to_json(desc: dict, indent: int | None = None) -> str:
    return json.dumps(desc, indent=indent, sort_keys=True)


def descriptor_from_json(text: str) -> dict:
    try:
        desc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"invalid descriptor JSON: {exc}") from exc
    _require(isinstance(desc, dict), "descriptor JSON must be an object")
    return desc
