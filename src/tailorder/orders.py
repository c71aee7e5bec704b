"""Order checkers for tail dependence and local stochastic dominance.

Verdicts are certificates of sampled behaviour: a failing verdict carries
an exactly re-evaluable witness point, a holding verdict the worst signed
gap seen on the grid.  Strictness is certified only on an interior band of
the direction simplex, since strict orders quantify over the open orthant
and finite grids cannot certify open-set inequalities at the boundary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .core import Copula, DimensionError, DomainError, GridConfig
from .families import DiagonalSection, Generator, generalized_inverse
from .taildep import (
    LimitSchedule,
    TailDepFunction,
    archimedean_tdf,
    regular_variation_index,
    simplex_directions,
)

__all__ = [
    "HOLDS",
    "HOLDS_STRICTLY",
    "FAILS",
    "INDISTINGUISHABLE",
    "OrderVerdict",
    "ConeSpec",
    "check_tdo",
    "check_loc",
    "check_too",
    "check_cone_order",
    "check_diagonal_order",
    "subadditivity_check",
    "ratio_monotonicity_check",
    "EquivalenceReport",
    "archimedean_order_equivalence",
]

HOLDS = "holds"
HOLDS_STRICTLY = "holds-strictly"
FAILS = "fails"
INDISTINGUISHABLE = "indistinguishable"

Status = Literal["holds", "holds-strictly", "fails", "indistinguishable"]

_MAX_HALVINGS = 20


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of an order check on a sampled grid.

    ``margin`` is the worst signed gap (rhs - lhs); failing verdicts carry
    a witness with the point and both values.  ``epsilon`` records the
    verified or discovered radius for the localized checks.
    """

    status: Status
    margin: float
    witness: dict | None = None
    epsilon: float | None = None
    resolution: int = 0
    tau: float = 0.0
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.status in (HOLDS, HOLDS_STRICTLY)

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "margin": self.margin,
            "witness": self.witness,
            "epsilon": self.epsilon,
            "grid": self.resolution,
            "tolerance": self.tau,
            "note": self.note,
        }


@dataclass(frozen=True)
class ConeSpec:
    """Cone {w : min_k w_k >= c * ||w||_1}, closed away from the axes for c > 0."""

    c: float

    def __post_init__(self):
        if not self.c > 0.0:
            raise DomainError(f"cone parameter must be positive, got {self.c}")


def _order_grid(grid: GridConfig | None) -> GridConfig:
    g = grid or GridConfig()
    if g.resolution < 8:
        raise DomainError(f"order checks need resolution >= 8, got {g.resolution}")
    return g


def _compare(points: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, g: GridConfig,
             band: np.ndarray | None = None, epsilon: float | None = None) -> OrderVerdict:
    """Shared verdict assembly from sampled values of both sides."""
    diff = rhs - lhs
    tau = g.tau
    if float(np.abs(diff).max()) <= tau:
        return OrderVerdict(INDISTINGUISHABLE, float(diff.min()), None, epsilon, g.resolution, tau)
    i = int(np.argmin(diff))
    if diff[i] < -tau:
        witness = {"point": [float(x) for x in np.atleast_1d(points[i])],
                   "lhs": float(lhs[i]), "rhs": float(rhs[i])}
        return OrderVerdict(FAILS, float(diff[i]), witness, epsilon, g.resolution, tau)
    if band is not None and band.any():
        band_min = float(diff[band].min())
        if band_min > tau:
            return OrderVerdict(HOLDS_STRICTLY, band_min, None, epsilon, g.resolution, tau)
    return OrderVerdict(HOLDS, float(diff[i]), None, epsilon, g.resolution, tau)


def check_tdo(lam1: TailDepFunction, lam2: TailDepFunction, grid: GridConfig | None = None) -> OrderVerdict:
    """Tail dependence order: pointwise comparison of the two functions.

    Samples the unit simplex (sufficient by positive homogeneity); holds
    strictly when the gap clears tau on the interior band.
    """
    if lam1.dimension != lam2.dimension:
        raise DimensionError("tail dependence functions have different dimensions")
    g = _order_grid(grid)
    dirs = simplex_directions(g.resolution + 1, lam1.dimension)
    band = dirs.min(axis=1) > g.interior_margin
    return _compare(dirs, lam1(dirs), lam2(dirs), g, band=band)


def _ball_points(dimension: int, eps: float, resolution: int) -> np.ndarray:
    axes = np.linspace(0.0, min(eps, 1.0), resolution + 1)
    mesh = np.meshgrid(*([axes] * dimension), indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    keep = (np.linalg.norm(pts, axis=1) <= eps) & pts.any(axis=1)
    return pts[keep]


def _halving_search(check_at, g: GridConfig) -> OrderVerdict:
    """First verdict of ``check_at(2^-k)``, k <= 20, that does not fail."""
    for k in range(_MAX_HALVINGS + 1):
        verdict = check_at(2.0**-k)
        if verdict.status != FAILS:
            return verdict
    return OrderVerdict(FAILS, verdict.margin, verdict.witness, None, g.resolution, g.tau,
                        note=f"no epsilon found down to 2^-{_MAX_HALVINGS} at this resolution")


def check_loc(c1: Copula, c2: Copula, epsilon: float | None = None,
              grid: GridConfig | None = None) -> OrderVerdict:
    """Local lower orthant order: C1 <= C2 on the ball of radius epsilon.

    With ``epsilon=None`` a halving search over 2^-k, k <= 20, reports the
    first verified radius; exhausting the search yields a fails verdict
    noting that no radius was found at this resolution (the order may still
    hold at finer scales).
    """
    if c1.dimension != c2.dimension:
        raise DimensionError("copulas have different dimensions")
    g = _order_grid(grid)
    d = c1.dimension
    if epsilon is not None:
        if not 0.0 < epsilon <= float(np.sqrt(d)):
            raise DomainError(f"epsilon must lie in (0, sqrt(d)], got {epsilon}")
        pts = _ball_points(d, float(epsilon), g.resolution)
        return _compare(pts, np.asarray(c1.cdf(pts)), np.asarray(c2.cdf(pts)), g, epsilon=float(epsilon))
    return _halving_search(lambda eps: check_loc(c1, c2, eps, g), g)


def _ray_scales(w: np.ndarray, schedule: LimitSchedule) -> np.ndarray:
    # anchor at the largest s keeping s*w inside the cube, then descend
    s_max = 1.0 / float(w.max())
    return s_max * schedule.ratio ** np.arange(schedule.steps)


def check_too(c1: Copula, c2: Copula, directions: Sequence | None = None,
              schedule: LimitSchedule | None = None,
              grid: GridConfig | None = None) -> list[tuple[tuple[float, ...], OrderVerdict]]:
    """Tail orthant order: ray-wise comparison toward the origin.

    For each direction w the scan starts at the largest scale s with
    s*w in [0,1]^d and descends geometrically by the schedule's ratio for
    the schedule's step count.  Returns one verdict per direction.
    """
    if c1.dimension != c2.dimension:
        raise DimensionError("copulas have different dimensions")
    g = grid or GridConfig()
    sched = schedule or LimitSchedule()
    d = c1.dimension
    if directions is None:
        fan = simplex_directions(21 if d == 2 else 6, d)
        extra = [(0.5, 1.0), (1.0, 0.5)] if d == 2 else []
        dir_list = [tuple(float(x) for x in row) for row in fan] + extra
    else:
        dir_list = [tuple(float(x) for x in np.asarray(w, dtype=float).reshape(-1)) for w in directions]
    results = []
    for w_t in dir_list:
        w = np.asarray(w_t, dtype=float)
        if w.shape[0] != d:
            raise DimensionError(f"direction {w_t} has wrong dimension")
        if (w < 0).any() or not w.any():
            raise DomainError("directions must be nonnegative and nonzero")
        s = _ray_scales(w, sched)
        pts = s[:, None] * w[None, :]
        verdict = _compare(pts, np.asarray(c1.cdf(pts)), np.asarray(c2.cdf(pts)), g)
        results.append((w_t, verdict))
    return results


def _cone_points(dimension: int, c: float, eps: float, resolution: int) -> np.ndarray:
    dirs = simplex_directions(resolution + 1, dimension)
    dirs = dirs[dirs.min(axis=1) >= c]
    if dirs.size == 0:
        raise DomainError(f"cone with c = {c} contains no sampled directions at this resolution")
    radii = np.linspace(0.0, eps, resolution + 1)[1:]
    unit = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = (radii[:, None, None] * unit[None, :, :]).reshape(-1, dimension)
    return pts[(pts <= 1.0).all(axis=1)]


def check_cone_order(c1: Copula, c2: Copula, cone: ConeSpec, epsilon: float | None = None,
                     grid: GridConfig | None = None,
                     lam1: TailDepFunction | None = None,
                     lam2: TailDepFunction | None = None) -> OrderVerdict:
    """Pointwise order on a cone bounded away from the axes, near the origin.

    A strict tail dependence ordering guarantees some such radius exists;
    passing the tail dependence functions triggers that precondition check
    (a warning is emitted when it is not strict).  With ``epsilon=None``
    the radius is discovered by halving, as in :func:`check_loc`.
    """
    if c1.dimension != c2.dimension:
        raise DimensionError("copulas have different dimensions")
    g = _order_grid(grid)
    if lam1 is not None and lam2 is not None:
        pre = check_tdo(lam1, lam2, g)
        if pre.status != HOLDS_STRICTLY:
            warnings.warn(
                f"cone ordering expects a strictly ordered pair; tail dependence check says {pre.status}",
                RuntimeWarning,
                stacklevel=2,
            )
    d = c1.dimension
    if epsilon is not None:
        pts = _cone_points(d, cone.c, float(epsilon), g.resolution)
        return _compare(pts, np.asarray(c1.cdf(pts)), np.asarray(c2.cdf(pts)), g, epsilon=float(epsilon))
    return _halving_search(lambda eps: check_cone_order(c1, c2, cone, eps, g), g)


def check_diagonal_order(d1: DiagonalSection, d2: DiagonalSection,
                         grid: GridConfig | None = None) -> OrderVerdict:
    """Order of two diagonal sections near 0, with the largest verified prefix.

    Scans t on a grid of (0, 1] and reports the largest prefix [0, eps] on
    which delta1 <= delta2 + tau; a violation at the very first grid point
    is a failure.  eps is the last grid point before the first violation
    (1 if there is none), so where the sections cross, delta2 - delta1
    falls below -tau somewhere in [eps, eps + 1/resolution).
    """
    g = _order_grid(grid)
    t = np.linspace(0.0, 1.0, g.resolution + 1)[1:]
    v1 = np.asarray(d1(t), dtype=float)
    v2 = np.asarray(d2(t), dtype=float)
    diff = v2 - v1
    violating = np.flatnonzero(diff < -g.tau)
    if violating.size and violating[0] == 0:
        witness = {"point": [float(t[0])], "lhs": float(v1[0]), "rhs": float(v2[0])}
        return OrderVerdict(FAILS, float(diff[0]), witness, None, g.resolution, g.tau)
    stop = violating[0] if violating.size else t.size
    eps = float(t[stop - 1])
    prefix = diff[:stop]
    if float(np.abs(prefix).max()) <= g.tau:
        return OrderVerdict(INDISTINGUISHABLE, float(prefix.min()), None, eps, g.resolution, g.tau)
    return OrderVerdict(HOLDS, float(prefix.min()), None, eps, g.resolution, g.tau)


def subadditivity_check(g1: Generator, g2: Generator, M: float,
                        grid: GridConfig | None = None, span: float = 100.0) -> OrderVerdict:
    """Subadditivity of f = phi1 o phi2^[-1] on pairs from [M, M*span].

    Subadditivity of this composition at large arguments forces the local
    lower orthant order of the corresponding Archimedean copulas.
    """
    if not (g1.strict and g2.strict):
        raise DomainError("subadditivity check requires strict generators")
    if not M > 0:
        raise DomainError(f"M must be positive, got {M}")
    g = _order_grid(grid)
    x = np.geomspace(M, M * span, g.resolution + 1)
    with np.errstate(over="ignore", divide="ignore"):
        fx = np.asarray(g1.phi(generalized_inverse(g2, x)), dtype=float)
        X, Y = np.meshgrid(x, x, indexing="ij")
        fsum = np.asarray(g1.phi(generalized_inverse(g2, (X + Y).reshape(-1))), dtype=float)
    lhs = fsum
    rhs = (fx[:, None] + fx[None, :]).reshape(-1)
    pts = np.stack([X.reshape(-1), Y.reshape(-1)], axis=1)
    diff = rhs - lhs
    i = int(np.argmin(diff))
    if diff[i] < -g.tau:
        witness = {"point": [float(pts[i, 0]), float(pts[i, 1])], "lhs": float(lhs[i]), "rhs": float(rhs[i])}
        return OrderVerdict(FAILS, float(diff[i]), witness, None, g.resolution, g.tau)
    return OrderVerdict(HOLDS, float(diff[i]), None, None, g.resolution, g.tau)


def ratio_monotonicity_check(g1: Generator, g2: Generator, epsilon: float,
                             grid: GridConfig | None = None) -> OrderVerdict:
    """Monotonicity of phi1/phi2 on (0, epsilon).

    An increasing ratio near 0 is the practical criterion implying the
    subadditivity of phi1 o phi2^[-1] near infinity.
    """
    if not (g1.strict and g2.strict):
        raise DomainError("ratio monotonicity check requires strict generators")
    if not 0.0 < epsilon <= 1.0:
        raise DomainError(f"epsilon must lie in (0, 1], got {epsilon}")
    g = _order_grid(grid)
    t = np.geomspace(epsilon * 1e-9, epsilon, g.resolution + 1)
    with np.errstate(over="ignore", divide="ignore"):
        psi = np.asarray(g1.phi(t), dtype=float) / np.asarray(g2.phi(t), dtype=float)
    steps = np.diff(psi)
    i = int(np.argmin(steps))
    if steps[i] < -g.tau:
        witness = {"point": [float(t[i]), float(t[i + 1])], "lhs": float(psi[i]), "rhs": float(psi[i + 1])}
        return OrderVerdict(FAILS, float(steps[i]), witness, None, g.resolution, g.tau)
    return OrderVerdict(HOLDS, float(steps[i]), None, float(epsilon), g.resolution, g.tau)


@dataclass(frozen=True)
class EquivalenceReport:
    """The three equivalent clauses for regularly varying Archimedean pairs.

    strict tail dependence order, ordering of the tail dependence
    coefficients d^(-1/alpha), and ordering of the regular-variation
    indices; for a regularly varying pair the three booleans agree.
    """

    strict_tdo: bool
    tdc_ordered: bool
    index_ordered: bool
    alpha1: float
    alpha2: float
    tdc1: float
    tdc2: float

    @property
    def consistent(self) -> bool:
        return self.strict_tdo == self.tdc_ordered == self.index_ordered

    @property
    def disagreeing(self) -> tuple[str, ...]:
        if self.consistent:
            return ()
        votes = {"strict_tdo": self.strict_tdo, "tdc_ordered": self.tdc_ordered,
                 "index_ordered": self.index_ordered}
        majority = sum(votes.values()) >= 2
        return tuple(name for name, v in votes.items() if v != majority)

    def as_dict(self) -> dict:
        return {
            "strict_tdo": self.strict_tdo,
            "tdc_ordered": self.tdc_ordered,
            "index_ordered": self.index_ordered,
            "alpha": [self.alpha1, self.alpha2],
            "tdc": [self.tdc1, self.tdc2],
            "consistent": self.consistent,
            "disagreeing": list(self.disagreeing),
        }


def _tdc_from_alpha(alpha: float, d: int) -> float:
    if alpha == 0.0:
        return 0.0
    if np.isinf(alpha):
        return 1.0
    return float(d ** (-1.0 / alpha))


def archimedean_order_equivalence(g1: Generator, g2: Generator, dimension: int = 2,
                                  grid: GridConfig | None = None) -> EquivalenceReport:
    """Evaluate the three-way equivalence for strict regularly varying generators.

    Uses the analytic regular-variation index when the generator carries
    one, otherwise the ratio-test estimate (raising if that estimate did
    not converge).
    """
    if not (g1.strict and g2.strict):
        raise DomainError("the equivalence applies to strict generators")

    def index_of(gen: Generator) -> float:
        if gen.rv_index_at_0 is not None:
            return float(gen.rv_index_at_0)
        est = regular_variation_index(gen)
        if not est.converged:
            raise DomainError(f"regular-variation index estimation did not converge for {gen.name}")
        return est.value

    a1, a2 = index_of(g1), index_of(g2)
    lam1, lam2 = archimedean_tdf(a1, dimension), archimedean_tdf(a2, dimension)
    verdict = check_tdo(lam1, lam2, grid)
    t1, t2 = _tdc_from_alpha(a1, dimension), _tdc_from_alpha(a2, dimension)
    return EquivalenceReport(
        strict_tdo=verdict.status == HOLDS_STRICTLY,
        tdc_ordered=t1 < t2,
        index_ordered=a1 < a2,
        alpha1=a1,
        alpha2=a2,
        tdc1=t1,
        tdc2=t2,
    )
