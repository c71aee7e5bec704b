"""Order checkers for tail dependence and local stochastic dominance.

Verdicts are certificates of sampled behaviour: a failing verdict carries
an exactly re-evaluable witness point, a holding verdict the worst signed
gap in its sample, which the pointwise checks keep in ``samples``.
Strictness is certified only on an interior band of the direction simplex,
since strict orders quantify over the open orthant and finite grids cannot
certify open-set inequalities at the boundary.  The local orders
(:func:`check_loc`, :func:`check_cone_order`) share one log-polar sample
and a threshold ``KAPPA`` relative to the copula values, which are
O(||u||_1) near the origin while an ordered pair may differ by o(||u||_1);
the other orders use the absolute ``GridConfig.tau``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal, NamedTuple, Sequence

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
    "KAPPA",
    "Samples",
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

KAPPA = 1e-12  # relative violation threshold of the local orders
_RADII = 44  # local radii top * 2^(-j/2), j = 0..43
_MAX_HALVINGS = 20  # a searched epsilon is 2^-k with k <= 20
# (geometric, linear) node counts per dimension, giving 79, 397 and 1105
# directions for d = 2, 3, 4; higher dimensions take four nodes
_NODE_COUNTS = {2: (17, 23), 3: (5, 7), 4: (3, 4)}


class Samples(NamedTuple):
    """Points compared, both sides' values, and each point's radius or ray scale."""

    points: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    scale: np.ndarray | None = None


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of an order check on a sample.

    ``margin`` is the worst signed gap (rhs - lhs), or the witness's gap
    for a failing verdict; the witness holds the point and both values.
    ``epsilon`` records the verified or discovered radius for the localized
    checks.  ``samples`` keeps what was compared, outside :meth:`as_dict`.
    """

    status: Status
    margin: float
    witness: dict | None = None
    epsilon: float | None = None
    resolution: int = 0
    tau: float = 0.0
    note: str = ""
    samples: Samples | None = field(default=None, repr=False, compare=False)

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


def _witness(points: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, i: int) -> dict:
    return {"point": [float(x) for x in np.atleast_1d(points[i])], "lhs": float(lhs[i]), "rhs": float(rhs[i])}


def _compare(points: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, g: GridConfig,
             band: np.ndarray | None = None, scale: np.ndarray | None = None) -> OrderVerdict:
    """Shared verdict assembly from sampled values of both sides."""
    diff = rhs - lhs
    i = int(np.argmin(diff))
    status, margin, witness = HOLDS, float(diff[i]), None
    if float(np.abs(diff).max()) <= g.tau:
        status = INDISTINGUISHABLE
    elif diff[i] < -g.tau:
        status, witness = FAILS, _witness(points, lhs, rhs, i)
    elif band is not None and band.any() and float(diff[band].min()) > g.tau:
        status, margin = HOLDS_STRICTLY, float(diff[band].min())
    return OrderVerdict(status, margin, witness, None, g.resolution, g.tau, samples=Samples(points, lhs, rhs, scale))


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


@lru_cache(maxsize=None)
def _local_directions(d: int) -> np.ndarray:
    """Unit vectors w / ||w||_2 of the node vectors w with max w = 1."""
    n_geo, n_lin = _NODE_COUNTS.get(d, (2, 2))
    nodes = np.concatenate([np.geomspace(1e-18, 1e-2, n_geo), np.arange(1, n_lin + 1) / n_lin])
    w = np.stack(np.meshgrid(*[nodes] * d, indexing="ij"), axis=-1).reshape(-1, d)
    w = w[w.max(axis=1) == 1.0]
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w.flags.writeable = False
    return w


def _local_verdict(c1: Copula, c2: Copula, epsilon: float | None, cone: float = 0.0) -> OrderVerdict:
    """C1 <= C2 on the log-polar sample below ``epsilon``, or below a searched 2^-k."""
    if c1.dimension != c2.dimension:
        raise DimensionError("copulas have different dimensions")
    d = c1.dimension
    if epsilon is not None and not 0.0 < epsilon <= float(np.sqrt(d)):
        raise DomainError(f"epsilon must lie in (0, sqrt(d)], got {epsilon}")
    dirs = _local_directions(d)
    dirs = dirs[dirs.min(axis=1) >= cone * dirs.sum(axis=1)]
    if dirs.size == 0:
        raise DomainError(f"cone with c = {cone} contains no sampled directions")
    n, top = dirs.shape[0], 1.0 if epsilon is None else float(epsilon)
    radii = top * 2.0 ** (-0.5 * np.arange(_RADII))
    points = np.minimum(radii[:, None, None] * dirs[None, :, :], 1.0).reshape(-1, d)
    lhs, rhs = np.asarray(c1.cdf(points)), np.asarray(c2.cdf(points))
    samples = Samples(points, lhs, rhs, np.repeat(radii, n))
    gap, size = rhs - lhs, np.maximum(np.abs(lhs), np.abs(rhs))
    bad = gap < -KAPPA * size
    note = f"{_RADII} radii x {n} directions; relative threshold: C2 - C1 < -{KAPPA:g} * max(|C1|, |C2|) violates"
    violating = np.flatnonzero(bad.reshape(_RADII, n).any(axis=1))
    j = int(violating[-1]) if violating.size else -1  # the smallest violating radius
    k = j // 2 + 1  # the largest 2^-k below it, 0 without one
    if violating.size and (epsilon is not None or k > _MAX_HALVINGS):
        rows = np.arange(j * n, (j + 1) * n)[bad[j * n:(j + 1) * n]]
        i = int(rows[np.argmin(gap[rows] / size[rows])])
        why = f"no epsilon 2^-k, k <= {_MAX_HALVINGS}, lies below it" if epsilon is None else "witness at that radius"
        return OrderVerdict(FAILS, float(gap[i]), _witness(points, lhs, rhs, i), None if epsilon is None else top,
                            0, KAPPA, f"smallest violating radius {radii[j]:.6g}: {why}; {note}", samples)
    eps = top * 2.0**-k  # top is 1 for a search, and k is 0 for a given epsilon
    gap, size = gap[2 * k * n:], size[2 * k * n:]
    status = INDISTINGUISHABLE if bool((np.abs(gap) <= KAPPA * size).all()) else HOLDS
    nonzero = size > 0.0  # points where both sides are 0 say nothing
    margin = float(gap[nonzero].min()) if nonzero.any() else 0.0
    return OrderVerdict(status, margin, None, eps, 0, KAPPA, f"verified radius {eps:.6g}; {note}", samples)


def check_loc(c1: Copula, c2: Copula, epsilon: float | None = None) -> OrderVerdict:
    """Local lower orthant order: C1 <= C2 on the ball of radius epsilon.

    One ``cdf`` batch per copula at r * w / ||w||_2, for r = epsilon *
    2^(-j/2), j = 0..43, and w positive with one coordinate 1 and the others
    from geometric nodes 1e-18 ... 1e-2 (thin regions along the faces, such
    as Marshall-Olkin's) and linear nodes on (0, 1].  A point violates the
    order when C2 - C1 < -KAPPA * max(|C1|, |C2|); ``tau`` records KAPPA.
    This trusts each ``cdf`` to about KAPPA relative near the origin: a
    form that cancels there, such as ``survival``, can fail spuriously.
    With ``epsilon=None`` the radii start at 1 and epsilon is the largest
    2^-k, k <= 20, below the smallest violating radius, or the verdict
    fails.  The witness is the worst relative violation at the smallest
    violating radius, which the note names; the margin of a holding verdict
    is the worst gap on the verified radii where not both sides are 0.
    """
    return _local_verdict(c1, c2, epsilon)


def check_too(c1: Copula, c2: Copula, directions: Sequence | None = None,
              schedule: LimitSchedule | None = None,
              grid: GridConfig | None = None) -> list[tuple[tuple[float, ...], OrderVerdict]]:
    """Tail orthant order: ray-wise comparison toward the origin.

    For each direction w the scan starts at the largest scale s with
    s*w in [0,1]^d and descends geometrically by the schedule's ratio for
    the schedule's step count.  All rays go to ``cdf`` in one batch per
    copula.  Returns one verdict per direction.
    """
    if c1.dimension != c2.dimension:
        raise DimensionError("copulas have different dimensions")
    g = grid or GridConfig()
    sched = schedule or LimitSchedule()
    d, n = c1.dimension, sched.steps
    if directions is None:
        directions = [*simplex_directions(21 if d == 2 else 6, d), *([(0.5, 1.0), (1.0, 0.5)] if d == 2 else [])]
    dir_list = [tuple(float(x) for x in np.asarray(w, dtype=float).reshape(-1)) for w in directions]
    for w in dir_list:
        if len(w) != d:
            raise DimensionError(f"direction {w} has wrong dimension")
        if min(w) < 0 or not any(w):
            raise DomainError("directions must be nonnegative and nonzero")
    # anchor each ray at the largest s keeping s*w inside the cube, then descend
    W = np.array(dir_list, dtype=float).reshape(-1, d)
    S = (1.0 / W.max(axis=1))[:, None] * sched.ratio ** np.arange(n)
    P = S[:, :, None] * W[:, None, :]
    lhs, rhs = (np.asarray(c.cdf(P.reshape(-1, d))).reshape(S.shape) for c in (c1, c2))
    return [(w, _compare(P[i], lhs[i], rhs[i], g, scale=S[i])) for i, w in enumerate(dir_list)]


def check_cone_order(c1: Copula, c2: Copula, cone: ConeSpec, epsilon: float | None = None,
                     grid: GridConfig | None = None,
                     lam1: TailDepFunction | None = None,
                     lam2: TailDepFunction | None = None) -> OrderVerdict:
    """Pointwise order on a cone bounded away from the axes, near the origin.

    A strict tail dependence ordering guarantees some such radius exists;
    passing the tail dependence functions triggers that precondition check
    on ``grid`` (a warning is emitted when it is not strict).  The copulas
    are compared as in :func:`check_loc` on the directions in the cone.
    """
    g = _order_grid(grid)
    if lam1 is not None and lam2 is not None:
        pre = check_tdo(lam1, lam2, g)
        if pre.status != HOLDS_STRICTLY:
            warnings.warn(
                f"cone ordering expects a strictly ordered pair; tail dependence check says {pre.status}",
                RuntimeWarning,
                stacklevel=2,
            )
    return _local_verdict(c1, c2, epsilon, cone.c)


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
    samples = Samples(t[:, None], v1, v2)
    diff = v2 - v1
    violating = np.flatnonzero(diff < -g.tau)
    if violating.size and violating[0] == 0:
        return OrderVerdict(FAILS, float(diff[0]), _witness(t, v1, v2, 0), None, g.resolution, g.tau,
                            samples=samples)
    stop = violating[0] if violating.size else t.size
    eps = float(t[stop - 1])
    prefix = diff[:stop]
    status = INDISTINGUISHABLE if float(np.abs(prefix).max()) <= g.tau else HOLDS
    return OrderVerdict(status, float(prefix.min()), None, eps, g.resolution, g.tau, samples=samples)


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
        return OrderVerdict(FAILS, float(diff[i]), _witness(pts, lhs, rhs, i), None, g.resolution, g.tau)
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
