"""Copula objects, axiomatic validity audits, and structural combinators.

A copula is represented by an immutable :class:`Copula` carrying its
dimension, a vectorized evaluator, and a JSON-able descriptor.  Evaluators
built through the family constructors are wrapped so that the boundary
axioms (groundedness and uniform margins) hold exactly at coordinates that
are exactly 0 or 1; :func:`copula_from_callable` skips that wrapper so that
arbitrary functions can be audited honestly by :func:`validate_copula`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BOUNDARY_TOL",
    "VOLUME_TOL",
    "CopulaError",
    "DimensionError",
    "DomainError",
    "GridConfig",
    "CheckResult",
    "ValidityReport",
    "Copula",
    "copula_from_formula",
    "copula_from_callable",
    "independence",
    "comonotone",
    "countermonotone",
    "h_volume",
    "validate_copula",
    "glue",
    "survival",
]

# Coordinates within BOUNDARY_TOL of {0, 1} are clamped; beyond it they are
# rejected.  All theorems here concern behaviour near 0, so the clamp is tight.
BOUNDARY_TOL = 1e-12

# H-volumes of a true copula may round to tiny negatives; anything below
# -VOLUME_TOL counts as a d-increasingness violation.
VOLUME_TOL = 1e-9


class CopulaError(Exception):
    """Base error for copula construction and evaluation."""


class DimensionError(CopulaError):
    """Operands have incompatible dimensions."""


class DomainError(CopulaError, ValueError):
    """A coordinate or parameter lies outside its admissible domain."""


@dataclass(frozen=True)
class GridConfig:
    """Settings shared by grid audits and order checkers.

    resolution
        Subdivisions per axis; audits evaluate on ``resolution + 1`` points
        including both endpoints.
    tau
        Strictness/violation threshold for order verdicts.
    interior_margin
        Width of the band near the simplex boundary excluded from strict
        order checks (strict orders quantify over the open orthant only).
    """

    resolution: int = 64
    tau: float = 1e-6
    interior_margin: float = 1e-3

    def __post_init__(self):
        if self.resolution < 2:
            raise DomainError(f"grid resolution must be >= 2, got {self.resolution}")
        if not self.tau > 0.0:
            raise DomainError(f"tau must be positive, got {self.tau}")
        if not 0.0 <= self.interior_margin < 0.5:
            raise DomainError(f"interior_margin must be in [0, 0.5), got {self.interior_margin}")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single named audit check."""

    name: str
    passed: bool
    worst: float
    witness: tuple | None = None


@dataclass(frozen=True)
class ValidityReport:
    """Bundle of named audit checks with worst violations and witnesses."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "worst": c.worst,
                    "witness": None if c.witness is None else list(c.witness),
                }
                for c in self.checks
            ],
        }


class Copula:
    """A d-dimensional copula with a vectorized pointwise evaluator.

    Parameters
    ----------
    dimension : int
        Number of coordinates, at least 2.
    evaluator : callable
        Maps an ``(n, d)`` float array with entries in [0, 1] to an ``(n,)``
        array of copula values.
    descriptor : dict
        JSON-able description (``{"family": ..., "params": ...}`` plus
        nested descriptors for combinators).

    Instances are immutable and evaluation is pure, so copulas are safe to
    share between threads or processes.
    """

    __slots__ = ("dimension", "descriptor", "_evaluator")

    def __init__(self, dimension: int, evaluator: Callable[[np.ndarray], np.ndarray], descriptor: dict):
        if dimension < 2:
            raise DimensionError(f"copulas need dimension >= 2, got {dimension}")
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "_evaluator", evaluator)
        object.__setattr__(self, "descriptor", descriptor)

    def __setattr__(self, name, value):
        raise AttributeError("Copula objects are immutable")

    def __repr__(self):
        fam = self.descriptor.get("family", "?") if isinstance(self.descriptor, dict) else "?"
        return f"Copula(family={fam!r}, d={self.dimension})"

    def cdf(self, u) -> np.ndarray | float:
        """Evaluate C(u) for one point ``(d,)`` or a batch ``(..., d)``."""
        arr = np.asarray(u, dtype=float)
        scalar = arr.ndim == 1
        if arr.shape[-1] != self.dimension:
            raise DimensionError(
                f"points have {arr.shape[-1]} coordinates, copula has dimension {self.dimension}"
            )
        pts = np.atleast_2d(arr).reshape(-1, self.dimension)
        if not np.isfinite(pts).all():
            raise DomainError("coordinates must be finite")
        if pts.shape[0] == 0:
            return np.empty(arr.shape[:-1])
        low, high = pts.min(), pts.max()
        if low < -BOUNDARY_TOL or high > 1.0 + BOUNDARY_TOL:
            raise DomainError(
                f"coordinate outside [0, 1] beyond tolerance {BOUNDARY_TOL}: range [{low}, {high}]"
            )
        pts = np.clip(pts, 0.0, 1.0)
        vals = np.asarray(self._evaluator(pts), dtype=float)
        if scalar:
            return float(vals[0])
        return vals.reshape(arr.shape[:-1])

    def eval(self, u) -> float:
        """Evaluate at a single point, returning a float."""
        out = self.cdf(np.asarray(u, dtype=float).reshape(-1))
        return float(out)

    __call__ = cdf

    def diagonal(self, t) -> np.ndarray | float:
        """Diagonal section t -> C(t, ..., t)."""
        t_arr = np.asarray(t, dtype=float)
        pts = np.repeat(t_arr.reshape(-1, 1), self.dimension, axis=1)
        vals = self.cdf(pts)
        return float(vals[0]) if t_arr.ndim == 0 else np.asarray(vals).reshape(t_arr.shape)


def _with_boundary_axioms(formula: Callable, dimension: int) -> Callable:
    """Wrap a CDF formula so the copula axioms hold exactly on the boundary.

    Rows with any coordinate exactly 0 return 0; rows with at least d-1
    coordinates exactly 1 return the remaining coordinate.  Interior values
    are clipped into [0, 1] to absorb rounding.  A batch whose coordinates
    all lie strictly inside (0, 1) has no such rows, so it goes to the
    formula whole, without the row masks and the copy of the inner rows;
    a formula that treats each row on its own gives the same values on
    either path.
    """

    def wrapped(pts: np.ndarray) -> np.ndarray:
        if pts.size and pts.min() > 0.0 and pts.max() < 1.0:
            return np.clip(formula(pts), 0.0, 1.0)
        out = np.empty(pts.shape[0], dtype=float)
        zero = (pts == 0.0).any(axis=1)
        margin = ((pts == 1.0).sum(axis=1) >= dimension - 1) & ~zero
        inner = ~(zero | margin)
        out[zero] = 0.0
        if margin.any():
            out[margin] = pts[margin].min(axis=1)
        if inner.any():
            out[inner] = np.clip(formula(pts[inner]), 0.0, 1.0)
        return out

    return wrapped


def copula_from_formula(dimension: int, formula: Callable, descriptor: dict) -> Copula:
    """Build a copula from a raw CDF formula, enforcing exact boundary axioms."""
    return Copula(dimension, _with_boundary_axioms(formula, dimension), descriptor)


def copula_from_callable(fn: Callable, dimension: int, descriptor: dict | None = None) -> Copula:
    """Wrap an arbitrary ``(n, d) -> (n,)`` function without boundary shortcuts.

    Intended for auditing candidate functions with :func:`validate_copula`;
    the function is trusted verbatim, including on the boundary.
    """
    desc = descriptor if descriptor is not None else {"family": "custom", "params": {}}
    return Copula(dimension, lambda pts: np.asarray(fn(pts), dtype=float), desc)


def independence(dimension: int = 2) -> Copula:
    """Product copula: C(u) = u_1 * ... * u_d."""
    return copula_from_formula(
        dimension,
        lambda pts: pts.prod(axis=1),
        {"family": "independence", "params": {"d": dimension}},
    )


def comonotone(dimension: int = 2) -> Copula:
    """Upper Frechet-Hoeffding bound: C(u) = min_k u_k."""
    return copula_from_formula(
        dimension,
        lambda pts: pts.min(axis=1),
        {"family": "comonotone", "params": {"d": dimension}},
    )


def countermonotone() -> Copula:
    """Lower Frechet-Hoeffding bound max(u_1 + u_2 - 1, 0); a copula only for d = 2."""
    return copula_from_formula(
        2,
        lambda pts: np.maximum(pts.sum(axis=1) - 1.0, 0.0),
        {"family": "countermonotone", "params": {}},
    )


def h_volume(c: Copula, lower, upper) -> float:
    """Signed inclusion-exclusion volume of the box [lower, upper].

    The sum runs over the 2^d corners with sign (-1)^(number of lower
    coordinates); nonnegativity over all boxes is the d-increasing axiom.
    """
    lo = np.asarray(lower, dtype=float).reshape(-1)
    hi = np.asarray(upper, dtype=float).reshape(-1)
    d = c.dimension
    if lo.shape != (d,) or hi.shape != (d,):
        raise DimensionError(f"box corners must have {d} coordinates")
    if (lo > hi + BOUNDARY_TOL).any():
        raise DomainError("box lower corner exceeds upper corner")
    corners = np.empty((2**d, d), dtype=float)
    signs = np.empty(2**d, dtype=float)
    for i, picks in enumerate(itertools.product((0, 1), repeat=d)):
        corners[i] = np.where(np.asarray(picks, dtype=bool), hi, lo)
        signs[i] = -1.0 if (d - sum(picks)) % 2 else 1.0
    vals = c.cdf(corners)
    return float(np.dot(signs, vals))


def _tensor_grid(axes: np.ndarray, d: int) -> np.ndarray:
    mesh = np.meshgrid(*([axes] * d), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def validate_copula(c: Copula, grid: GridConfig | None = None) -> ValidityReport:
    """Audit the three copula axioms on a tensor grid.

    Evaluates C on the full (resolution+1)^d grid including the boundary,
    then checks groundedness and uniform margins on the boundary faces and
    nonnegativity of the H-volume of every grid cell (the cell volumes are
    the d-fold finite differences of the value tensor).
    """
    g = grid or GridConfig()
    d = c.dimension
    axes = np.linspace(0.0, 1.0, g.resolution + 1)
    shape = (g.resolution + 1,) * d
    values = np.asarray(c.cdf(_tensor_grid(axes, d))).reshape(shape)

    # grounded: any face with a zero coordinate must vanish
    worst_g, witness_g = 0.0, None
    for k in range(d):
        face = np.abs(np.take(values, 0, axis=k))
        idx = np.unravel_index(np.argmax(face), face.shape)
        if face[idx] > worst_g:
            worst_g = float(face[idx])
            coords = list(idx)
            coords.insert(k, 0)
            witness_g = tuple(axes[i] for i in coords)

    # uniform margins: fixing all other coordinates at 1 recovers the identity
    worst_m, witness_m = 0.0, None
    for k in range(d):
        line = values
        for ax in reversed(range(d)):
            if ax != k:
                line = np.take(line, -1, axis=ax)
        dev = np.abs(line - axes)
        i = int(np.argmax(dev))
        if dev[i] > worst_m:
            worst_m = float(dev[i])
            pt = [1.0] * d
            pt[k] = float(axes[i])
            witness_m = tuple(pt)

    # d-increasing: every grid cell has nonnegative H-volume
    vols = values
    for ax in range(d):
        vols = np.diff(vols, axis=ax)
    j = np.unravel_index(np.argmin(vols), vols.shape)
    worst_v = float(vols[j])
    witness_v = tuple(float(axes[i]) for i in j) + tuple(float(axes[i + 1]) for i in j)

    tol = VOLUME_TOL
    return ValidityReport(
        checks=(
            CheckResult("grounded", worst_g <= tol, worst_g, witness_g),
            CheckResult("uniform_margins", worst_m <= tol, worst_m, witness_m),
            CheckResult("d_increasing", worst_v >= -tol, max(0.0, -worst_v), witness_v),
        )
    )


def glue(left: Copula, right: Copula, axis: int, split: float) -> Copula:
    """Glue two bivariate copulas along one axis at an interior split point.

    Along axis 1 the value is ``split * left(u1/split, u2)`` for
    ``u1 <= split`` and ``split * u2 + (1-split) * right((u1-split)/(1-split), u2)``
    beyond it; axis 2 is symmetric.  Both margins are preserved, so the
    result is again a copula.
    """
    if left.dimension != 2 or right.dimension != 2:
        raise DimensionError("glue is defined for bivariate copulas")
    if axis not in (1, 2):
        raise DomainError(f"glue axis must be 1 or 2, got {axis}")
    if not 0.0 < split < 1.0:
        raise DomainError(f"glue split must lie in (0, 1), got {split}")
    theta = float(split)
    j = axis - 1  # glued coordinate
    k = 1 - j     # passthrough coordinate

    def formula(pts: np.ndarray) -> np.ndarray:
        a, b = pts[:, j], pts[:, k]
        lo = np.empty_like(pts)
        lo[:, j] = np.minimum(a / theta, 1.0)
        lo[:, k] = b
        hi = np.empty_like(pts)
        hi[:, j] = np.clip((a - theta) / (1.0 - theta), 0.0, 1.0)
        hi[:, k] = b
        below = theta * left._evaluator(lo)
        above = theta * b + (1.0 - theta) * right._evaluator(hi)
        return np.where(a <= theta, below, above)

    desc = {
        "family": "glue",
        "params": {"axis": axis, "split": theta},
        "left": left.descriptor,
        "right": right.descriptor,
    }
    return copula_from_formula(2, formula, desc)


def survival(c: Copula) -> Copula:
    """Survival copula (u, v) -> u + v - 1 + C(1-u, 1-v); an involution."""
    if c.dimension != 2:
        raise DimensionError("survival is implemented for bivariate copulas")

    def formula(pts: np.ndarray) -> np.ndarray:
        return pts[:, 0] + pts[:, 1] - 1.0 + c._evaluator(1.0 - pts)

    return copula_from_formula(2, formula, {"family": "survival", "inner": c.descriptor})
