"""Tail dependence functions: limits, closed forms, audits, and functionals.

The lower tail dependence function of a copula C in direction w is the
limit of C(s*w)/s as s decreases to 0.  A copula carries it as ``tdf`` when
its builder knows a closed form (see ``core``, which also holds the
:class:`TailDepFunction` type and the zero and min functions, re-exported
here).  This module estimates that limit along geometric schedules for the
copulas without one, ships the closed forms available for the regularly
varying Archimedean class and for the two bivariate functions of the
paper's Fig. 1, restricts bivariate functions to the unit simplex, audits
the characterizing properties, and evaluates the limiting Spearman-type
functional (d+1) * integral of the tail dependence function over the unit
cube.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .core import EXACT, ULP, CopulaError, DimensionError, DomainError, GridConfig, CheckResult, TailDepFunction
from .core import Record, ValidityReport, _row_reduce, _upper_frechet, check_points, min_tdf, zero_tdf

if TYPE_CHECKING:  # pragma: no cover
    from .core import Copula
    from .families import Generator

__all__ = [
    "LimitSchedule",
    "TDFEstimate",
    "TDFEstimates",
    "TailDepFunction",
    "QuadratureError",
    "estimate_tdf",
    "estimate_tdfs",
    "tdc",
    "estimated_tdf",
    "archimedean_tdf",
    "zero_tdf",
    "min_tdf",
    "simplex_restriction",
    "tdc_from_simplex",
    "fig1_parabola",
    "fig1_piecewise",
    "validate_tdf",
    "tail_expansion_residual",
    "RVIndexEstimate",
    "regular_variation_index",
    "spearman_tdf_limit",
    "simplex_directions",
    "simplex_size",
]


class QuadratureError(CopulaError):
    """Two-resolution quadrature values failed to agree."""


class LimitSchedule(Record):
    """Geometric scale schedule s0 * ratio^k discretizing the limit s -> 0.

    A schedule is built only when its scales stay above 1e-300 and its
    points number at most ``core.MAX_POINTS`` (10^6): ``steps`` for
    :meth:`scales`, ``steps`` times the directions or rays of
    :func:`estimate_tdfs` and ``orders.check_too``.
    """

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
        """The scales s0 * ratio^k, k < steps, built once per (s0, ratio, steps) and shared read-only."""
        self.check(self.s0)
        return _scales(self.s0, self.ratio, self.steps)

    def check(self, anchor: float, rays: int = 1):
        """Raise DomainError when the scales anchor * ratio^k, k < steps, drop below 1e-300, or when
        ``rays * steps`` points exceed ``core.MAX_POINTS``.

        The last scale is computed alone, so a step count too large to
        build is refused before anything is allocated.
        """
        if anchor * self.ratio ** (self.steps - 1) < 1e-300:
            raise DomainError("schedule underflow: scales drop below 1e-300")
        check_points(rays * self.steps, "schedule")


@lru_cache(maxsize=32)  # s0 and ratio are user floats; an entry holds steps * 8 bytes
def _scales(s0: float, ratio: float, steps: int) -> np.ndarray:
    s = s0 * ratio ** np.arange(steps)
    s.flags.writeable = False
    return s


class TDFEstimate(Record):
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


_GAP_TOL, _WINDOW = 1e-4, 5  # convergence of an estimate: its last difference and the window of differences


class TDFEstimates(NamedTuple):
    """The :class:`TDFEstimate` fields in n directions as (n,) arrays; row i's trace pairs scales with ratios[i]."""

    value: np.ndarray
    error_estimate: np.ndarray
    converged: np.ndarray
    scales: np.ndarray
    ratios: np.ndarray


def estimate_tdfs(c: "Copula", directions, schedule: LimitSchedule | None = None) -> TDFEstimates:
    """Estimate the tail dependence function of ``c`` in each row of an (n, d) array.

    Evaluates C(s*w)/s along the schedule for all n directions in one ``cdf``
    batch of n * steps points.  Each row must be nonnegative and nonzero with
    s0 * max(w) <= 1.  A row's estimate is its last iterate; ``converged``
    requires its last 5 successive absolute differences to be nonincreasing
    and the final one below 1e-4 (slow limits, e.g. Gaussian, are reported
    as non-converged rather than wrong).  The returned ``scales`` are the
    schedule's read-only :meth:`LimitSchedule.scales`, shared by every
    estimate on that schedule.
    """
    sched = schedule or LimitSchedule()
    dirs = np.asarray(directions, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != c.dimension:
        raise DimensionError(f"directions have shape {dirs.shape}, copula has dimension {c.dimension}")
    wmax = _row_reduce(np.maximum, dirs)
    if dirs.min(initial=0.0) < 0 or not wmax.all():
        raise DomainError("direction must be nonnegative and nonzero")
    if sched.s0 * (peak := float(wmax.max(initial=0.0))) > 1.0 + 1e-12:
        raise DomainError(f"s0 * max(w) = {sched.s0 * peak} exceeds 1; rescale the direction")
    sched.check(sched.s0, dirs.shape[0])  # n * steps points, refused before the batch is built
    s = sched.scales()
    ratios = np.asarray(c.cdf(s[:, None] * dirs[:, None, :])) / s
    diffs = np.abs(ratios[:, 1:] - ratios[:, :-1])
    tail = diffs[:, -_WINDOW:]
    converged = (tail[:, 1:] <= tail[:, :-1] + 1e-15).all(axis=1) & (diffs[:, -1] < _GAP_TOL)
    return TDFEstimates(ratios[:, -1], diffs[:, -1], converged, s, ratios)


def estimate_tdf(c: "Copula", w, schedule: LimitSchedule | None = None) -> TDFEstimate:
    """The estimate in one direction ``w``: :func:`estimate_tdfs` on one row, one ``cdf`` batch of steps points."""
    est = estimate_tdfs(c, np.asarray(w, dtype=float).reshape(1, -1), schedule)
    return TDFEstimate(float(est.value[0]), float(est.error_estimate[0]), bool(est.converged[0]),
                       tuple(zip(est.scales.tolist(), est.ratios[0].tolist())))


def tdc(c: "Copula") -> TDFEstimate:
    """Tail dependence coefficient: the limit of C(s, ..., s)/s, by :func:`estimate_tdf` on its default schedule."""
    return estimate_tdf(c, np.ones(c.dimension))


def estimated_tdf(c: "Copula", schedule: LimitSchedule | None = None) -> TailDepFunction:
    """Wrap limit estimation as a TailDepFunction, one ``cdf`` batch per call.

    The nonzero rows are renormalized to sup-norm 1 (harmless by positive
    homogeneity) and estimated together by :func:`estimate_tdfs`; zero rows
    give 0.  So any nonnegative direction is accepted.
    """
    sched = schedule or LimitSchedule()

    def fn(pts: np.ndarray) -> np.ndarray:
        m = _row_reduce(np.maximum, pts)
        live = m != 0.0
        out = np.zeros(pts.shape[0])
        out[live] = m[live] * estimate_tdfs(c, pts[live] / m[live, None], sched).value
        return out

    # an unmeasured stand-in pair until each estimate carries its error bar
    return TailDepFunction(fn, c.dimension, name="estimated", params={"family": c.descriptor.get("family", "?")},
                           accuracy=(0.0, 1e-6))


_TINY = 2.0**-1022  # the smallest normal double


def archimedean_tdf(alpha: float, dimension: int = 2) -> TailDepFunction:
    """Closed-form tail dependence function for regular variation index alpha.

    Zero for alpha = 0, (sum_k w_k^-alpha)^(-1/alpha) for finite positive
    alpha, and min_k w_k for alpha = inf.  A row whose sum overflows (a
    coordinate below about 10^(-308/alpha)) or is subnormal or 0 (every
    coordinate large) is recomputed in the scaled form
    m * (sum_k (w_k/m)^-alpha)^(-1/alpha) with m = min_k w_k, and is 0 where
    m = 0; every other row keeps the unscaled form, and at most two
    reductions per call tell whether any row needs the scaled one.
    """
    if not alpha >= 0:
        raise DomainError(f"alpha must lie in [0, inf], got {alpha}")
    a, breakpoints, rel = float(alpha), (), 1e-14
    if a == 0.0:
        fn = lambda pts: np.zeros(pts.shape[0])
    elif math.isinf(a):
        fn, breakpoints = _upper_frechet, (0.5,) if dimension == 2 else ()  # min_tdf's: the kink of min(t, 1 - t)
    else:
        rel = max(rel, 2 * ULP / a)  # the power -1/alpha: about ulp/alpha

        def fn(pts: np.ndarray) -> np.ndarray:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                total = _row_reduce(np.add, pts ** -a)
                out = total ** (-1.0 / a)
                # a sum of 0 or inf makes its row's product with its power 0 * inf, NaN, as does a NaN row
                if math.isfinite(np.dot(out, total)) and np.minimum.reduce(total, initial=math.inf) >= _TINY:
                    return out
                m = _row_reduce(np.minimum, pts)
                rows = np.flatnonzero(((total < _TINY) | np.isinf(total)) & (m > 0.0))  # not the rows with a 0
                if rows.size:
                    m = m[rows]
                    out[rows] = m * _row_reduce(np.add, (pts[rows] / m[:, None]) ** -a) ** (-1.0 / a)
            return np.where(np.isfinite(out), out, 0.0)

    # at least 1e-14: measured against mpmath for alpha from 0.002 to 100, near the faces and down to 1e-300
    return TailDepFunction(fn, dimension, name="clayton", params={"alpha": a}, breakpoints=breakpoints,
                           accuracy=(rel, 0.0))


def simplex_restriction(lam: TailDepFunction) -> Callable:
    """The unit-simplex section t -> Lambda(t, 1-t) of a bivariate tail dependence function."""
    if lam.dimension != 2:
        raise DimensionError("simplex restriction is defined for bivariate functions")

    def phi(t):
        t = np.asarray(t, dtype=float)
        return lam(np.stack([t, 1.0 - t], axis=-1))

    return phi


def tdc_from_simplex(section: Callable) -> float:
    """Tail dependence coefficient 2 * phi(1/2) of a simplex section phi."""
    return 2.0 * float(section(0.5))


def fig1_parabola() -> TailDepFunction:
    """w1 * w2 / (w1 + w2), 0 at w = 0: the paper's Fig. 1 section t * (1 - t) in closed form."""

    def fn(pts: np.ndarray) -> np.ndarray:
        s = pts[:, 0] + pts[:, 1]
        return pts[:, 0] * (pts[:, 1] / np.where(s > 0.0, s, 1.0))

    # three roundings, each within ulp(1)/2 relative: 3.3e-16, and no absolute term, even a hair from a face
    return TailDepFunction(fn, 2, name="fig1-parabola", accuracy=(4e-16, 0.0))


def fig1_piecewise() -> TailDepFunction:
    """min(w1 / 2, w2): the paper's Fig. 1 section min(t/2, 1 - t), with its kink at t = 2/3."""
    return TailDepFunction(lambda pts: np.minimum(0.5 * pts[:, 0], pts[:, 1]), 2, name="fig1-piecewise",
                           breakpoints=(2.0 / 3.0,), accuracy=EXACT)


def simplex_size(n: int, dimension: int = 2) -> int:
    """The comb(n + d - 2, d - 1) points of :func:`simplex_directions`, counted before any is built.

    A grid needs both ends of an edge, so n < 2 raises DomainError; a size
    above ``core.MAX_POINTS`` raises DomainError too.
    """
    if n < 2:
        raise DomainError(f"a simplex grid needs n >= 2 points per edge, got {n}")
    if dimension < 2:
        raise DimensionError(f"simplex grids need dimension >= 2, got {dimension}")
    size = math.comb(n + dimension - 2, dimension - 1)
    check_points(size, "simplex grid")
    return size


def simplex_directions(n: int, dimension: int = 2) -> np.ndarray:
    """Grid of directions on the unit simplex (sum-norm 1).

    For d = 2 returns n points (t, 1-t) with t equally spaced on [0, 1];
    for d >= 3 returns the lattice with n points per edge, the points
    (i_1, ..., i_d) / (n - 1) in lexicographic order of (i_1, ..., i_d-1).
    Its size is checked first, by :func:`simplex_size`.
    """
    simplex_size(n, dimension)
    if dimension == 2:
        t = np.linspace(0.0, 1.0, n)
        return np.stack([t, 1.0 - t], axis=1)
    # integer points (i_1, ..., i_d) summing to m = n - 1, built one coordinate at a time
    m = n - 1
    head, rest = np.zeros((1, 0), dtype=np.int64), np.array([m])
    for _ in range(dimension - 1):
        choices = rest + 1  # the next coordinate takes 0..rest
        row = np.repeat(np.arange(rest.size), choices)
        i = np.arange(row.size) - np.repeat(np.cumsum(choices) - choices, choices)
        head, rest = np.column_stack([head[row], i]), rest[row] - i
    return np.column_stack([head, rest]) / m


def validate_tdf(lam: TailDepFunction, grid: GridConfig | None = None, tol: float = 1e-9) -> ValidityReport:
    """Audit the five characterizing properties of a tail dependence function.

    Checks the bounds 0 <= Lambda(w) <= min_k w_k, d-increasingness on boxes, positive homogeneity
    of order 1, the sum-norm Lipschitz bound and midpoint concavity on resolution^2 points of a
    deterministic low-discrepancy sample, the Kronecker sequence u_k = frac(1/2 + k*alpha), k >= 1,
    in m = 4d + 1 coordinates with alpha_j = phi^-j and phi^(m+1) = phi + 1.  Each check reads its
    own block of coordinates, scaled to [0, 2] (box sides [0, 1], scales [0.05, 2]).
    """
    g = grid or GridConfig()
    d = lam.dimension
    n, m = g.resolution**2, 4 * d + 1
    phi = 2.0
    for _ in range(32):  # phi^(m+1) = phi + 1 by a contraction of ratio below 1/(m + 1)
        phi = (1.0 + phi) ** (1.0 / (m + 1))
    u = (0.5 + np.arange(1.0, n + 1.0)[:, None] * phi ** -np.arange(1.0, m + 1.0)) % 1.0
    pts, lower, sides, other = np.split(u[:, :-1] * np.repeat([2.0, 2.0, 1.0, 2.0], d), 4, axis=1)
    upper, scales = lower + sides, 0.05 + 1.95 * u[:, -1]

    vals = lam(pts)
    vols = np.zeros(n)
    for picks in np.ndindex(*([2] * d)):
        sign = -1.0 if (d - int(sum(picks))) % 2 else 1.0
        vols += sign * lam(np.where(np.asarray(picks, dtype=bool), upper, lower))
    lam_other = lam(other)
    pairs = np.hstack([pts, other])
    worst_of = CheckResult.worst_of
    return ValidityReport(checks=(
        worst_of("bounds", np.maximum(-np.minimum(vals, 0.0), vals - pts.min(axis=1)), tol, pts),
        worst_of("d_increasing", -vols, tol, np.hstack([lower, upper])),
        worst_of("homogeneity", np.abs(lam(scales[:, None] * pts) - scales * vals), tol,
                 np.column_stack([pts, scales])),
        worst_of("lipschitz", np.abs(vals - lam_other) - np.abs(pts - other).sum(axis=1), tol, pairs),
        worst_of("concavity", 0.5 * (vals + lam_other) - lam(0.5 * (pts + other)), tol, pairs),
    ))


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


class RVIndexEstimate(Record):
    """Regular-variation index estimate from the scale-doubling ratio test.

    ``degenerate`` marks nonstrict generators, whose index at 0 carries no
    information (the estimate is reported as 0).  The trace lists
    (s, index estimate at s) pairs.
    """

    value: float
    converged: bool
    degenerate: bool = False
    trace: tuple[tuple[float, float], ...] = ()


def regular_variation_index(g: "Generator") -> RVIndexEstimate:
    """Estimate the regular-variation index of a generator at 0.

    Uses the ratio test phi(2s)/phi(s) -> 2^(-alpha) along the default
    :class:`LimitSchedule`, 24 halvings from s = 1e-2.  Slowly varying
    corrections decay like 1/log(1/s), which no feasible schedule outruns in
    double precision, so the index sequence is extrapolated quadratically in
    the variable 1/log(1/s) through the last three scales.  Ratios diverging
    past 1e6 report alpha = inf.
    """
    if not g.strict:
        return RVIndexEstimate(value=0.0, converged=True, degenerate=True)
    s = LimitSchedule().scales()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratios = np.asarray(g.phi(2.0 * s), dtype=float) / np.asarray(g.phi(s), dtype=float)
    ok = np.isfinite(ratios) & (ratios > 0.0)
    s, ratios = s[ok], ratios[ok]
    if len(s) < 3:
        raise DomainError("the ratio test left fewer than 3 usable scales")
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
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False  # shared by every quadrature
    return x, w


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
    cuts = []
    for x in lam.breakpoints:
        if slot == 0 and 0.5 < x < 1.0:          # w = (1, t): x = 1/(1+t)
            cuts.append(1.0 / x - 1.0)
        elif slot == 1 and 0.0 < x < 0.5:        # w = (t, 1): x = t/(1+t)
            cuts.append(x / (1.0 - x))
    return tuple(cuts)


@lru_cache(maxsize=None)
def _spearman_faces(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The d = 3 rule's points on the six face triangles, stacked slot by slot, and their common weights."""
    # each face w_slot = 1 splits along t1 = t2, the kink of min, into two triangles, each integrated by
    # the collapsed (Duffy) rule t_hi = x, t_lo = x*y with weight x on m nodes per axis
    x, w = _gauss_legendre_01(m)
    X, Y = np.meshgrid(x, x, indexing="ij")
    hi, lo = X.reshape(-1), (X * Y).reshape(-1)
    W = np.outer(w * x, w).reshape(-1)
    pts = np.empty((3, 2, m * m, 3))
    for slot in range(3):
        rest = [k for k in range(3) if k != slot]
        for face, (a, b) in zip(pts[slot], ((hi, lo), (lo, hi))):
            face[:, slot] = 1.0
            face[:, rest[0]] = a
            face[:, rest[1]] = b
    pts = pts.reshape(-1, 3)
    pts.flags.writeable = W.flags.writeable = False
    return pts, W


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
    # m = round(n/sqrt 2) nodes per axis, so a face costs about the n^2 points of a square rule
    pts, W = _spearman_faces(round(n / 2**0.5))
    for face in lam(pts).reshape(6, -1):  # one call per rule, the faces summed in the order of the slots
        total += float(np.dot(W, face))
    return total


# Gauss-Legendre nodes of the reported rule and of its check, and the agreement they must reach
_SPEARMAN_NODES, _SPEARMAN_CHECK_NODES, _SPEARMAN_AGREEMENT = 64, 96, 1e-6


def spearman_tdf_limit(lam: TailDepFunction) -> float:
    """Limiting Spearman-type functional (d+1) * integral of Lambda over [0,1]^d.

    By positive homogeneity the cube integral reduces exactly to integrals
    of Lambda over the faces w_k = 1, which are evaluated by fixed-node
    Gauss-Legendre rules (in d = 2 panels split at known section kinks, in
    d = 3 each face split along its diagonal t1 = t2).  The value
    is only reported when the 64- and 96-node rules agree within 1e-6; the
    functional dominates the tail dependence coefficient of any matching
    copula.  In d = 3 each rule's six face grids are built once per node
    count and passed to ``lam`` in one read-only batch.
    """
    d = lam.dimension
    if d not in (2, 3):
        raise DomainError("quadrature is provided for d = 2 and d = 3 only (cost bound)")
    coarse = _spearman_value(lam, d, _SPEARMAN_NODES)
    fine = _spearman_value(lam, d, _SPEARMAN_CHECK_NODES)
    if abs(coarse - fine) > _SPEARMAN_AGREEMENT:
        raise QuadratureError(
            f"quadrature disagreement {abs(coarse - fine):.3e} exceeds {_SPEARMAN_AGREEMENT}; "
            "the integrand is too rough for the fixed rules"
        )
    return fine
