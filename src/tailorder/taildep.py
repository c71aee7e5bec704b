"""Tail dependence functions: limits, closed forms, audits, and functionals.

The lower tail dependence function of a copula C in direction w is the
limit of C(s*w)/s as s decreases to 0.  This module estimates that limit
along geometric schedules, ships the closed forms available for the
regularly varying Archimedean class, reduces bivariate functions to their
unit-simplex sections and back, audits the characterizing properties, and
evaluates the limiting Spearman-type functional (d+1) * integral of the
tail dependence function over the unit cube.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np

from .core import CopulaError, DimensionError, DomainError, GridConfig, CheckResult, ValidityReport

if TYPE_CHECKING:  # pragma: no cover
    from .core import Copula
    from .families import Generator

__all__ = [
    "LimitSchedule",
    "TDFEstimate",
    "TailDepFunction",
    "SimplexTDF",
    "QuadratureError",
    "estimate_tdf",
    "tdc",
    "estimated_tdf",
    "archimedean_tdf",
    "zero_tdf",
    "min_tdf",
    "simplex_restriction",
    "lift",
    "tdc_from_simplex",
    "parabola_section",
    "capped_slope_section",
    "min_section",
    "validate_tdf",
    "tail_expansion_residual",
    "RVIndexEstimate",
    "regular_variation_index",
    "spearman_tdf_limit",
    "simplex_directions",
]


class QuadratureError(CopulaError):
    """Two-resolution quadrature values failed to agree."""


@dataclass(frozen=True)
class LimitSchedule:
    """Geometric scale schedule s0 * ratio^k discretizing the limit s -> 0."""

    s0: float = 1e-2
    ratio: float = 0.5
    steps: int = 24

    def __post_init__(self):
        if not 0.0 < self.s0 < 1.0:
            raise DomainError(f"s0 must lie in (0, 1), got {self.s0}")
        if not 0.0 < self.ratio < 1.0:
            raise DomainError(f"ratio must lie in (0, 1), got {self.ratio}")
        if self.steps < 3:
            raise DomainError(f"steps must be >= 3, got {self.steps}")

    def scales(self) -> np.ndarray:
        s = self.s0 * self.ratio ** np.arange(self.steps)
        if s[-1] < 1e-300:
            raise DomainError("schedule underflow: scales drop below 1e-300")
        return s


@dataclass(frozen=True)
class TDFEstimate:
    """Limit estimate with an empirical error bar and the full trace.

    No convergence rate is assumed: ``value`` is the last iterate,
    ``error_estimate`` the last successive difference, and ``converged``
    flags monotonically shrinking differences with a small final gap.
    The trace lists (s, C(s*w)/s) pairs in decreasing s.
    """

    value: float
    error_estimate: float
    converged: bool
    trace: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class SimplexTDF:
    """Unit-simplex section t -> Lambda(t, 1-t) of a bivariate tail dependence function.

    ``breakpoints`` lists interior kink locations (when known) so that
    quadrature can split panels there; a valid section is concave and
    satisfies 0 <= phi(t) <= min(t, 1-t).
    """

    phi: Callable
    breakpoints: tuple[float, ...] = ()
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.asarray(self.phi(t_arr), dtype=float)
        return float(out) if t_arr.ndim == 0 else out


@dataclass(frozen=True)
class TailDepFunction:
    """Positively homogeneous tail dependence function on [0, inf)^d.

    ``fn`` maps an (n, d) array of nonnegative directions to (n,) values;
    ``provenance`` records whether the function is a closed form or a
    numerical estimate.  ``section`` optionally carries the unit-simplex
    restriction (d = 2 only), used by the quadrature functional.
    """

    fn: Callable
    dimension: int
    provenance: str = "analytic"
    name: str = "custom"
    params: dict = field(default_factory=dict)
    section: SimplexTDF | None = None

    def __call__(self, w):
        arr = np.asarray(w, dtype=float)
        scalar = arr.ndim == 1
        if arr.shape[-1] != self.dimension:
            raise DimensionError(
                f"directions have {arr.shape[-1]} coordinates, expected {self.dimension}"
            )
        pts = np.atleast_2d(arr).reshape(-1, self.dimension)
        if (pts < 0).any():
            raise DomainError("directions must be nonnegative")
        vals = np.asarray(self.fn(pts), dtype=float)
        if scalar:
            return float(vals[0])
        return vals.reshape(arr.shape[:-1])


def estimate_tdf(
    c: "Copula",
    w,
    schedule: LimitSchedule | None = None,
    gap_tol: float = 1e-4,
    window: int = 5,
) -> TDFEstimate:
    """Estimate the tail dependence function of ``c`` in direction ``w``.

    Evaluates C(s*w)/s along the schedule.  The estimate is the last
    iterate; ``converged`` requires the last ``window`` successive absolute
    differences to be nonincreasing and the final one below ``gap_tol``
    (slow limits, e.g. Gaussian, are reported as non-converged rather than
    wrong).
    """
    sched = schedule or LimitSchedule()
    direction = np.asarray(w, dtype=float).reshape(-1)
    if direction.shape[0] != c.dimension:
        raise DimensionError(
            f"direction has {direction.shape[0]} coordinates, copula has {c.dimension}"
        )
    if (direction < 0).any() or not direction.any():
        raise DomainError("direction must be nonnegative and nonzero")
    wmax = float(direction.max())
    if sched.s0 * wmax > 1.0 + 1e-12:
        raise DomainError(f"s0 * max(w) = {sched.s0 * wmax} exceeds 1; rescale the direction")
    s = sched.scales()
    ratios = np.asarray(c.cdf(s[:, None] * direction[None, :])) / s
    diffs = np.abs(np.diff(ratios))
    win = min(window, len(diffs))
    tail = diffs[-win:]
    monotone = bool(np.all(tail[1:] <= tail[:-1] + 1e-15))
    converged = monotone and float(diffs[-1]) < gap_tol
    return TDFEstimate(
        value=float(ratios[-1]),
        error_estimate=float(diffs[-1]),
        converged=converged,
        trace=tuple(zip(s.tolist(), ratios.tolist())),
    )


def tdc(c: "Copula", schedule: LimitSchedule | None = None, **kwargs) -> TDFEstimate:
    """Tail dependence coefficient: the limit of C(s, ..., s)/s."""
    return estimate_tdf(c, np.ones(c.dimension), schedule, **kwargs)


def estimated_tdf(c: "Copula", schedule: LimitSchedule | None = None) -> TailDepFunction:
    """Wrap per-direction limit estimation as a TailDepFunction.

    Directions are renormalized to sup-norm 1 before estimation (harmless
    by positive homogeneity), so any nonnegative direction is accepted.
    """
    sched = schedule or LimitSchedule()

    def fn(pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[0])
        for i, row in enumerate(pts):
            m = row.max()
            if m == 0.0:
                continue
            out[i] = m * estimate_tdf(c, row / m, sched).value
        return out

    return TailDepFunction(
        fn,
        c.dimension,
        provenance="estimated",
        name="estimated",
        params={"family": c.descriptor.get("family", "?")},
    )


def zero_tdf(dimension: int = 2) -> TailDepFunction:
    """Vanishing tail dependence function (tail-independent copulas)."""
    return TailDepFunction(
        lambda pts: np.zeros(pts.shape[0]), dimension, name="zero",
        section=SimplexTDF(lambda t: np.zeros_like(t), name="zero") if dimension == 2 else None,
    )


def min_tdf(dimension: int = 2) -> TailDepFunction:
    """Upper bound min_k w_k (the comonotone tail dependence function)."""
    return TailDepFunction(
        lambda pts: pts.min(axis=1), dimension, name="min",
        section=min_section() if dimension == 2 else None,
    )


def archimedean_tdf(alpha: float, dimension: int = 2) -> TailDepFunction:
    """Closed-form tail dependence function for regular variation index alpha.

    Zero for alpha = 0, (sum_k w_k^-alpha)^(-1/alpha) for finite positive
    alpha, and min_k w_k for alpha = inf.
    """
    if alpha < 0:
        raise DomainError(f"alpha must lie in [0, inf], got {alpha}")
    if alpha == 0.0:
        base = zero_tdf(dimension)
    elif np.isinf(alpha):
        base = min_tdf(dimension)
    else:
        a = float(alpha)

        def fn(pts: np.ndarray) -> np.ndarray:
            with np.errstate(divide="ignore", over="ignore"):
                out = (pts ** -a).sum(axis=1) ** (-1.0 / a)
            return np.where(np.isfinite(out), out, 0.0)

        sec = None
        if dimension == 2:
            sec = SimplexTDF(
                lambda t, a=a: np.where(
                    (t > 0) & (t < 1),
                    (np.clip(t, 1e-300, None) ** -a + np.clip(1 - t, 1e-300, None) ** -a) ** (-1 / a),
                    0.0,
                ),
                name="clayton",
                params={"alpha": a},
            )
        return TailDepFunction(fn, dimension, name="clayton", params={"alpha": a}, section=sec)
    return TailDepFunction(
        base.fn, dimension, provenance="analytic",
        name="clayton", params={"alpha": float(alpha)}, section=base.section,
    )


def simplex_restriction(lam: TailDepFunction) -> SimplexTDF:
    """Restrict a bivariate tail dependence function to the unit simplex."""
    if lam.dimension != 2:
        raise DimensionError("simplex restriction is defined for bivariate functions")

    def phi(t):
        t_arr = np.asarray(t, dtype=float)
        return lam(np.stack([t_arr, 1.0 - t_arr], axis=-1))

    sec = lam.section
    return SimplexTDF(phi, breakpoints=sec.breakpoints if sec else (), name=lam.name, params=dict(lam.params))


def lift(section: SimplexTDF) -> TailDepFunction:
    """Extend a unit-simplex section to [0, inf)^2 by positive homogeneity."""

    def fn(pts: np.ndarray) -> np.ndarray:
        s = pts.sum(axis=1)
        safe = np.where(s > 0.0, s, 1.0)
        t = pts[:, 0] / safe
        return np.where(s > 0.0, s * np.asarray(section.phi(t), dtype=float), 0.0)

    return TailDepFunction(fn, 2, name=section.name, params=dict(section.params), section=section)


def tdc_from_simplex(section: SimplexTDF) -> float:
    """Tail dependence coefficient 2 * phi(1/2) of a simplex section."""
    return 2.0 * float(section(0.5))


def parabola_section() -> SimplexTDF:
    """Concave section t * (1 - t); a valid tail dependence section."""
    return SimplexTDF(lambda t: t * (1.0 - t), name="fig1-parabola")


def capped_slope_section() -> SimplexTDF:
    """Piecewise-linear section min(t/2, 1 - t) with a kink at t = 2/3."""
    return SimplexTDF(lambda t: np.minimum(0.5 * t, 1.0 - t), breakpoints=(2.0 / 3.0,), name="fig1-piecewise")


def min_section() -> SimplexTDF:
    """Maximal section min(t, 1 - t), the restriction of min."""
    return SimplexTDF(lambda t: np.minimum(t, 1.0 - t), breakpoints=(0.5,), name="min")


def simplex_directions(n: int, dimension: int = 2) -> np.ndarray:
    """Grid of directions on the unit simplex (sum-norm 1).

    For d = 2 returns n points (t, 1-t) with t equally spaced on [0, 1];
    for d = 3 returns the triangular lattice with n points per edge.
    A grid needs both ends of an edge, so n < 2 raises DomainError.
    """
    if n < 2:
        raise DomainError(f"a simplex grid needs n >= 2 points per edge, got {n}")
    if dimension == 2:
        t = np.linspace(0.0, 1.0, n)
        return np.stack([t, 1.0 - t], axis=1)
    if dimension == 3:
        m = n - 1
        pts = [
            (i / m, j / m, (m - i - j) / m)
            for i in range(m + 1)
            for j in range(m + 1 - i)
        ]
        return np.asarray(pts, dtype=float)
    raise DimensionError("simplex grids are provided for d = 2 and d = 3")


def validate_tdf(
    lam: TailDepFunction,
    grid: GridConfig | None = None,
    tol: float = 1e-9,
    seed: int = 0,
) -> ValidityReport:
    """Audit the five characterizing properties of a tail dependence function.

    Checks, on seeded random samples: the bounds 0 <= Lambda(w) <= min_k w_k,
    d-increasingness on boxes, positive homogeneity of order 1, the sum-norm
    Lipschitz bound, and midpoint concavity.
    """
    g = grid or GridConfig()
    d = lam.dimension
    rng = np.random.default_rng(seed)
    n = g.resolution**2

    pts = rng.uniform(0.0, 2.0, size=(n, d))

    vals = lam(pts)
    lowest = np.minimum(vals, 0.0)
    excess = vals - pts.min(axis=1)
    viol = np.maximum(-lowest, excess)
    i = int(np.argmax(viol))
    bounds = CheckResult("bounds", float(viol[i]) <= tol, max(0.0, float(viol[i])), tuple(pts[i]))

    lower = rng.uniform(0.0, 2.0, size=(n, d))
    upper = lower + rng.uniform(0.0, 1.0, size=(n, d))
    vols = np.zeros(n)
    for picks in np.ndindex(*([2] * d)):
        sel = np.asarray(picks, dtype=bool)
        corner = np.where(sel, upper, lower)
        sign = -1.0 if (d - int(sum(picks))) % 2 else 1.0
        vols += sign * lam(corner)
    i = int(np.argmin(vols))
    dinc = CheckResult(
        "d_increasing", float(vols[i]) >= -tol, max(0.0, -float(vols[i])),
        tuple(lower[i]) + tuple(upper[i]),
    )

    scales = rng.uniform(0.05, 2.0, size=n)
    dev = np.abs(lam(scales[:, None] * pts) - scales * vals)
    i = int(np.argmax(dev))
    homog = CheckResult("homogeneity", float(dev[i]) <= tol, float(dev[i]), tuple(pts[i]) + (float(scales[i]),))

    other = rng.uniform(0.0, 2.0, size=(n, d))
    lip = np.abs(lam(pts) - lam(other)) - np.abs(pts - other).sum(axis=1)
    i = int(np.argmax(lip))
    lipschitz = CheckResult("lipschitz", float(lip[i]) <= tol, max(0.0, float(lip[i])), tuple(pts[i]) + tuple(other[i]))

    mid = 0.5 * (pts + other)
    conc = 0.5 * (lam(pts) + lam(other)) - lam(mid)
    i = int(np.argmax(conc))
    concave = CheckResult("concavity", float(conc[i]) <= tol, max(0.0, float(conc[i])), tuple(pts[i]) + tuple(other[i]))

    return ValidityReport(checks=(bounds, dinc, homog, lipschitz, concave))


def tail_expansion_residual(c: "Copula", lam: TailDepFunction, u) -> float:
    """Normalized expansion residual (C(u) - Lambda(u)) / ||u||_1.

    For a matching pair the residual tends to 0 along any sequence with
    ||u||_1 -> 0; no rate is implied.
    """
    pt = np.asarray(u, dtype=float).reshape(-1)
    total = float(pt.sum())
    if total <= 0.0:
        raise DomainError("residual requires a nonzero point")
    return (c.eval(pt) - float(lam(pt))) / total


@dataclass(frozen=True)
class RVIndexEstimate:
    """Regular-variation index estimate from the scale-doubling ratio test.

    ``degenerate`` marks nonstrict generators, whose index at 0 carries no
    information (the estimate is reported as 0).  The trace lists
    (s, index estimate at s) pairs.
    """

    value: float
    converged: bool
    degenerate: bool = False
    trace: tuple[tuple[float, float], ...] = ()


def regular_variation_index(g: "Generator", probe: LimitSchedule | None = None) -> RVIndexEstimate:
    """Estimate the regular-variation index of a generator at 0.

    Uses the ratio test phi(2s)/phi(s) -> 2^(-alpha) along the probe
    schedule.  Slowly varying corrections decay like 1/log(1/s), which no
    feasible schedule outruns in double precision, so the index sequence is
    extrapolated quadratically in the variable 1/log(1/s) through the last
    three scales.  Ratios diverging past 1e6 report alpha = inf.
    """
    if not g.strict:
        return RVIndexEstimate(value=0.0, converged=True, degenerate=True)
    sched = probe or LimitSchedule()
    if 2.0 * sched.s0 > 1.0:
        raise DomainError("probe s0 must satisfy 2 * s0 <= 1")
    s = sched.scales()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratios = np.asarray(g.phi(2.0 * s), dtype=float) / np.asarray(g.phi(s), dtype=float)
    ok = np.isfinite(ratios) & (ratios > 0.0)
    s, ratios = s[ok], ratios[ok]
    if len(s) < 3:
        raise DomainError("probe schedule left fewer than 3 usable scales")
    alpha_hat = -np.log2(ratios)
    trace = tuple(zip(s.tolist(), alpha_hat.tolist()))
    if ratios[-1] < 1e-6:
        return RVIndexEstimate(value=float("inf"), converged=True, trace=trace)
    t = 1.0 / np.log(1.0 / s)
    ex3 = float(np.polynomial.polynomial.polyfit(t[-3:], alpha_hat[-3:], deg=2)[0])
    ex2 = float(np.polynomial.polynomial.polyfit(t[-2:], alpha_hat[-2:], deg=1)[0])
    return RVIndexEstimate(
        value=max(ex3, 0.0),
        converged=abs(ex3 - ex2) <= 1e-2,
        trace=trace,
    )


@lru_cache(maxsize=None)
def _gauss_legendre_01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _integrate_panels(f: Callable, cuts: tuple[float, ...], n: int) -> float:
    """Gauss-Legendre with n nodes on each panel of [0,1] split at cuts."""
    edges = [0.0, *sorted(c for c in cuts if 0.0 < c < 1.0), 1.0]
    x, w = _gauss_legendre_01(n)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += (b - a) * float(np.dot(w, f(a + (b - a) * x)))
    return total


def _section_cuts(lam: TailDepFunction, slot: int) -> tuple[float, ...]:
    # map simplex-coordinate kinks of the section into the reduced variable
    if lam.section is None or not lam.section.breakpoints:
        return ()
    cuts = []
    for x in lam.section.breakpoints:
        if slot == 0 and 0.5 < x < 1.0:          # w = (1, t): x = 1/(1+t)
            cuts.append(1.0 / x - 1.0)
        elif slot == 1 and 0.0 < x < 0.5:        # w = (t, 1): x = t/(1+t)
            cuts.append(x / (1.0 - x))
    return tuple(cuts)


def _spearman_value(lam: TailDepFunction, d: int, n: int) -> float:
    # homogeneity reduction: (d+1) * int_[0,1]^d Lambda
    #   = sum_k int_[0,1]^(d-1) Lambda(w with w_k = 1)
    total = 0.0
    if d == 2:
        for slot in range(2):
            def f(t, slot=slot):
                pts = np.empty((t.size, 2))
                pts[:, slot] = 1.0
                pts[:, 1 - slot] = t
                return lam(pts)

            total += _integrate_panels(f, _section_cuts(lam, slot), n)
        return total
    x, w = _gauss_legendre_01(n)
    T1, T2 = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w).reshape(-1)
    for slot in range(3):
        pts = np.empty((n * n, 3))
        rest = [k for k in range(3) if k != slot]
        pts[:, slot] = 1.0
        pts[:, rest[0]] = T1.reshape(-1)
        pts[:, rest[1]] = T2.reshape(-1)
        total += float(np.dot(W, lam(pts)))
    return total


def spearman_tdf_limit(
    lam: TailDepFunction,
    dimension: int | None = None,
    nodes: int = 64,
    check_nodes: int = 96,
    agreement_tol: float = 1e-6,
) -> float:
    """Limiting Spearman-type functional (d+1) * integral of Lambda over [0,1]^d.

    By positive homogeneity the cube integral reduces exactly to integrals
    of Lambda over the faces w_k = 1, which are evaluated by fixed-node
    Gauss-Legendre rules (panels split at known section kinks).  The value
    is only reported when the ``nodes`` and ``check_nodes`` rules agree
    within ``agreement_tol``; the functional dominates the tail dependence
    coefficient of any matching copula.
    """
    d = lam.dimension if dimension is None else dimension
    if d != lam.dimension:
        raise DimensionError(f"dimension {d} does not match the function's {lam.dimension}")
    if d not in (2, 3):
        raise DomainError("quadrature is provided for d = 2 and d = 3 only (cost bound)")
    coarse = _spearman_value(lam, d, nodes)
    fine = _spearman_value(lam, d, check_nodes)
    if abs(coarse - fine) > agreement_tol:
        raise QuadratureError(
            f"quadrature disagreement {abs(coarse - fine):.3e} exceeds {agreement_tol}; "
            "the integrand is too rough for the fixed rules"
        )
    return fine
