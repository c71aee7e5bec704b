"""Order checkers for tail dependence and local stochastic dominance.

Every order compares two sampled sides, lhs <= rhs, and one accuracy rule
turns the gaps rhs - lhs into a verdict.  Each side's evaluator carries an
accuracy pair (rel, abs) as its ``accuracy`` (see ``core``), so a point's
bound is rel1 * |lhs| + rel2 * |rhs| + abs1 + abs2 (a pair whose third
entry names a region of ``core.REGIONS`` counts its abs term only at points
in it):

- A point is undecidable when its bound is not below max(|lhs|, |rhs|)
  (both sides 0, say); it counts for neither side, and the note gives how
  many there are and the smallest scale with a decidable point.
- A decidable point violates when its gap is below -bound.  An order on a
  whole sample fails on any violation.  An order near the origin verifies
  the largest candidate radius epsilon below the smallest violating scale,
  only the points up to it count, and it fails when no candidate is that
  small.
- A verdict is indistinguishable when every counted decidable gap is within
  its bound (also when no point is decidable), and the tail dependence order
  holds strictly when every one clears it: the faces of the simplex, where
  every tail dependence function vanishes, are undecidable, so strictness
  concerns the open orthant only.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from typing import Literal, NamedTuple, Sequence

import numpy as np

from .core import (Copula, DecomposedBatch, DimensionError, DomainError, Field, GridConfig, Record, _tensor_grid, abs_at,
                   check_points)
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

_RADII = 44  # local radii top * 2^(-j/2), j = 0..43
_MAX_HALVINGS = 20  # a searched epsilon is 2^-k with k <= 20
_HALVINGS = 2.0 ** -np.arange(_MAX_HALVINGS, -1, -1)
# (geometric, linear) node counts per dimension, giving 79, 397 and 1105
# directions for d = 2, 3, 4; higher dimensions take four nodes
_NODE_COUNTS = {2: (17, 23), 3: (5, 7), 4: (3, 4)}
_GENERATOR_RESOLUTION = 64  # grid subdivisions of the two generator checks


class Samples(NamedTuple):
    """Points compared, both sides' values, and each point's radius or ray scale."""

    points: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    scale: np.ndarray | None = None


class OrderVerdict(Record):
    """Outcome of an order check on a sample.

    ``tolerance`` holds the sides' accuracy pairs ((rel1, abs1), (rel2, abs2));
    a point's bound is rel1 * |lhs| + rel2 * |rhs| + abs1 + abs2, with the abs
    of a pair whose third entry names a region only at points in it; it is
    decidable when the bound is below max(|lhs|, |rhs|), and it violates
    when decidable and rhs - lhs < -bound.  A failing verdict's ``witness``
    holds the point with the worst gap/bound at the smallest violating scale
    (over all violating points for a whole sample) and both values there,
    and ``margin`` is its gap.  A holding verdict's ``margin`` is the worst
    gap on the verified decidable points (0 when there are none).
    ``epsilon`` is the verified radius of an order near the origin, or the
    given radius it fails on.  ``samples`` keeps what was compared, outside
    :meth:`as_dict`.
    """

    status: Status
    margin: float
    witness: dict | None = None
    epsilon: float | None = None
    resolution: int = 0
    tolerance: tuple = ()
    note: str = ""
    samples: Samples | None = Field(None, compared=False)

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
            "tolerance": [list(pair) for pair in self.tolerance],
            "note": self.note,
        }


class ConeSpec(Record):
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


def _verdict(points: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, tolerance: tuple, resolution: int = 0, *,
             scale: np.ndarray | None = None, candidates: np.ndarray | None = None,
             epsilon: float | None = None, strict: bool = False, note: str = "") -> OrderVerdict:
    """The module's verdict rule, with ``tolerance`` the accuracy pairs of lhs and rhs.
    ``candidates`` ascend; ``epsilon`` is reported when none fits.  A ``note`` is prefixed with
    the verified or smallest violating radius; undecidable points are counted after it."""
    samples, gap, size1, size2 = Samples(points, lhs, rhs, scale), rhs - lhs, np.abs(lhs), np.abs(rhs)
    pair1, pair2 = tolerance
    bound = (pair1[0] * size1 + abs_at(pair1, points)) + (pair2[0] * size2 + abs_at(pair2, points))
    decidable = bound < np.maximum(size1, size2)
    bad = decidable & (gap < -bound)
    n_decidable = np.count_nonzero(decidable)
    undecidable = "" if n_decidable == gap.size else f"{gap.size - n_decidable} of {gap.size} points undecidable" + (
        f", smallest decidable scale {scale[decidable].min():.6g}" if scale is not None and n_decidable else "")
    counted, fails = decidable, bad.any()
    if candidates is not None:
        low = scale[bad].min() if fails else np.inf
        fits = candidates[candidates < low]
        if fits.size:  # the verified radius lies below every violating scale
            epsilon = float(fits[-1])
            counted, fails = decidable & (scale <= epsilon), False
        else:
            bad &= scale == low  # the witness comes from the smallest violating scale
    if fails:
        idx = np.flatnonzero(bad)
        with np.errstate(divide="ignore"):  # exact sides have bound 0: their violations rank first
            ratio = gap[idx] / bound[idx]
        idx = idx[ratio <= ratio.min() * (1.0 - 1e-9)]  # the worst gap/bound, up to rounding,
        i = int(idx[np.argmin(gap[idx])])  # and of those the largest violation
        if note:
            why = (f"no epsilon 2^-k, k <= {_MAX_HALVINGS}, lies below it" if epsilon is None
                   else "witness at that radius")
            note = f"smallest violating radius {low:.6g}: {why}; {note}"
        return OrderVerdict(FAILS, float(gap[i]), _witness(points, lhs, rhs, i), epsilon, resolution, tolerance,
                            "; ".join(filter(None, (note, undecidable))), samples)
    gap, bound = gap[counted], bound[counted]
    status, margin = HOLDS, float(gap.min()) if gap.size else 0.0
    if (np.abs(gap) <= bound).all():
        status = INDISTINGUISHABLE
    elif strict and (gap > bound).all():
        status = HOLDS_STRICTLY
    note = f"verified radius {epsilon:.6g}; {note}" if note else note
    return OrderVerdict(status, margin, None, epsilon, resolution, tolerance,
                        "; ".join(filter(None, (note, undecidable))), samples)


@lru_cache(maxsize=8)
def _tdo_grid(n: int, d: int) -> np.ndarray:
    """The simplex grid of :func:`check_tdo`, read-only."""
    dirs = simplex_directions(n, d)
    dirs.flags.writeable = False
    return dirs


def check_tdo(lam1: TailDepFunction, lam2: TailDepFunction, grid: GridConfig | None = None) -> OrderVerdict:
    """Tail dependence order: pointwise comparison on the unit simplex, which
    suffices by positive homogeneity.

    The simplex grid is built once per (resolution, dimension), unless its points exceed
    ``core.MAX_POINTS`` (the default grid at d >= 6), and handed to both functions read-only, so a
    Lambda function must not write into its input: numpy raises instead of letting the write corrupt
    later verdicts.
    """
    if lam1.dimension != lam2.dimension:
        raise DimensionError("tail dependence functions have different dimensions")
    g = _order_grid(grid)
    dirs = _tdo_grid(g.resolution + 1, lam1.dimension)
    return _verdict(dirs, lam1(dirs), lam2(dirs), (lam1.accuracy, lam2.accuracy), g.resolution, strict=True)


@lru_cache(maxsize=None)
def _local_directions(d: int) -> np.ndarray:
    """Unit vectors w / ||w||_2 of the node vectors w with max w = 1."""
    n_geo, n_lin = _NODE_COUNTS.get(d, (2, 2))
    # a local sample takes _RADII radii of the n^d - (n - 1)^d vectors with max w = 1, before a cone selects some
    check_points(_RADII * ((n_geo + n_lin) ** d - (n_geo + n_lin - 1) ** d), "local sample")
    nodes = np.concatenate([np.geomspace(1e-18, 1e-2, n_geo), np.arange(1, n_lin + 1) / n_lin])
    w = _tensor_grid(nodes, d)
    w = w[w.max(axis=1) == 1.0]
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w.flags.writeable = False
    return w


# an entry holds 44 * n * (d + 1) doubles, its points and radii: 1.9 MB at d = 4, 8.3 MB at d = 6, 40 MB at d = 7;
# a sample with zero or margin rows (d = 2 from radius 1) adds at most as many again, its compacted inner rows
_CACHED_DIMENSIONS = 4


@lru_cache(maxsize=8)  # top and cone are user floats; samples above _CACHED_DIMENSIONS are built per verdict
def _local_sample(d: int, top: float, cone: float) -> tuple[DecomposedBatch, np.ndarray, int]:
    """The local points min(r * w, 1) as a read-only decomposed batch, each point's radius r = top * 2^(-j/2) as a
    read-only array, and the number of directions w in the cone."""
    dirs = _local_directions(d)
    dirs = dirs[dirs.min(axis=1) >= cone * dirs.sum(axis=1)]
    if dirs.size == 0:
        raise DomainError(f"cone with c = {cone} contains no sampled directions")
    radii = top * 2.0 ** (-0.5 * np.arange(_RADII))
    points = np.minimum(radii[:, None, None] * dirs[None, :, :], 1.0).reshape(-1, d)
    scale = np.repeat(radii, len(dirs))
    points.flags.writeable = scale.flags.writeable = False
    return DecomposedBatch(points), scale, len(dirs)


def _local_verdict(c1: Copula, c2: Copula, epsilon: float | None, cone: float = 0.0) -> OrderVerdict:
    if c1.dimension != c2.dimension:
        raise DimensionError("copulas have different dimensions")
    d = c1.dimension
    if epsilon is not None and not 0.0 < (epsilon := float(epsilon)) <= float(np.sqrt(d)):
        raise DomainError(f"epsilon must lie in (0, sqrt(d)], got {epsilon}")
    build = _local_sample if d <= _CACHED_DIMENSIONS else _local_sample.__wrapped__
    batch, scale, n_dirs = build(d, 1.0 if epsilon is None else epsilon, cone)
    return _verdict(batch.points, c1.cdf(batch), c2.cdf(batch), (c1.accuracy, c2.accuracy), scale=scale,
                    candidates=_HALVINGS if epsilon is None else np.array([epsilon]),
                    epsilon=epsilon, note=f"{_RADII} radii x {n_dirs} directions")


def check_loc(c1: Copula, c2: Copula, epsilon: float | None = None) -> OrderVerdict:
    """Local lower orthant order: C1 <= C2 on the ball of radius epsilon.

    One ``cdf`` batch per copula at r * w / ||w||_2, for r = epsilon *
    2^(-j/2), j = 0..43, and w positive with one coordinate 1 and the others
    from geometric nodes 1e-18 ... 1e-2 (thin regions along the faces, such
    as Marshall-Olkin's) and linear nodes on (0, 1].  With ``epsilon=None``
    the radii start at 1 and the candidate radii are 2^-k, k <= 20.  A sample of more than
    ``core.MAX_POINTS`` points (d >= 8) is refused before it is built.  It is built and prepared
    (``core._prepared``: checked and split by the boundary rule) once per (dimension, first radius), or
    per verdict above d = 4, and handed to both copulas as one read-only ``core.DecomposedBatch``,
    which each evaluates by ``Copula._evaluate`` alone, so a formula must not write into its
    input: numpy raises instead of letting the write corrupt later verdicts.  The verdict's
    ``samples.points`` and ``scale`` are that shared read-only sample.
    """
    return _local_verdict(c1, c2, epsilon)


def check_too(c1: Copula, c2: Copula, directions: Sequence | None = None,
              schedule: LimitSchedule | None = None) -> list[tuple[tuple[float, ...], OrderVerdict]]:
    """Tail orthant order: ray-wise comparison toward the origin.

    For each direction w the scan starts at the largest scale s with
    s*w in [0,1]^d and descends geometrically by the schedule's ratio for
    the schedule's step count; the schedule's s0 is not read.  A schedule
    whose scales drop below 1e-300 on some ray, or whose rays hold more than
    ``core.MAX_POINTS`` (10^6) points in all, is refused before the rays
    are built.  All rays go to ``cdf`` in one batch per copula.  Returns one
    verdict per direction.
    """
    if c1.dimension != c2.dimension:
        raise DimensionError("copulas have different dimensions")
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
    anchors = 1.0 / W.max(axis=1)
    if anchors.size:
        sched.check(float(anchors.min()), anchors.size)
    S = anchors[:, None] * sched.ratio ** np.arange(n)
    P = S[:, :, None] * W[:, None, :]
    lhs, rhs = (np.asarray(c.cdf(P.reshape(-1, d))).reshape(S.shape) for c in (c1, c2))
    sides = c1.accuracy, c2.accuracy
    return [(w, _verdict(P[i], lhs[i], rhs[i], sides, scale=S[i])) for i, w in enumerate(dir_list)]


def check_cone_order(c1: Copula, c2: Copula, cone: ConeSpec, epsilon: float | None = None) -> OrderVerdict:
    """Pointwise order on a cone bounded away from the axes, near the origin.

    A strict tail dependence ordering guarantees some such radius exists:
    when both copulas carry a closed-form tail dependence function (their
    ``tdf``), that precondition is checked on the default grid (refused at d >= 6,
    see :func:`check_tdo`) and a warning is emitted when it is not strict.  The copulas are sampled as in
    :func:`check_loc` on the directions in the cone: the sample is built
    and decomposed once per (dimension, first radius, c), or per verdict above d = 4, and
    handed to both copulas read-only, so a formula must not write into its input (see
    :func:`check_loc`).
    """
    if c1.dimension != c2.dimension:  # before the precondition, which would name the tail dependence functions
        raise DimensionError("copulas have different dimensions")
    if c1.tdf is not None and c2.tdf is not None:
        pre = check_tdo(c1.tdf, c2.tdf)
        if pre.status != HOLDS_STRICTLY:
            warnings.warn(f"cone ordering expects a strictly ordered pair; tail dependence check says {pre.status}",
                          RuntimeWarning, stacklevel=2)
    return _local_verdict(c1, c2, epsilon, cone.c)


def check_diagonal_order(d1: DiagonalSection, d2: DiagonalSection,
                         grid: GridConfig | None = None) -> OrderVerdict:
    """Order of two diagonal sections near 0 on the grid of (0, 1].

    Every grid point t is a candidate epsilon, so where the sections cross,
    delta2 - delta1 violates somewhere in [eps, eps + 1/resolution).
    """
    if d1.dimension != d2.dimension:
        raise DimensionError("diagonal sections have different dimensions")
    g = _order_grid(grid)
    check_points(g.resolution, "diagonal grid")
    t = np.linspace(0.0, 1.0, g.resolution + 1)[1:]
    v1, v2 = np.asarray(d1(t), dtype=float), np.asarray(d2(t), dtype=float)
    return _verdict(t[:, None], v1, v2, (d1.accuracy, d2.accuracy), g.resolution, scale=t, candidates=t)


def _generator_sides(g1: Generator, g2: Generator, what: str) -> tuple:
    if not (g1.strict and g2.strict):
        raise DomainError(f"{what} requires strict generators")
    pair = tuple(map(sum, zip(g1.accuracy, g2.accuracy)))  # each side combines both generators
    return pair, pair


def subadditivity_check(g1: Generator, g2: Generator, M: float) -> OrderVerdict:
    """Subadditivity of f = phi1 o phi2^[-1] on pairs from [M, 100 M]: f(x + y) <= f(x) + f(y).

    Subadditivity of this composition at large arguments forces the local
    lower orthant order of the corresponding Archimedean copulas.
    """
    sides = _generator_sides(g1, g2, "subadditivity check")
    if not M > 0:
        raise DomainError(f"M must be positive, got {M}")
    x = np.geomspace(M, 100.0 * M, _GENERATOR_RESOLUTION + 1)
    with np.errstate(over="ignore", divide="ignore"):
        fx = np.asarray(g1.phi(generalized_inverse(g2, x)), dtype=float)
        X, Y = np.meshgrid(x, x, indexing="ij")
        fsum = np.asarray(g1.phi(generalized_inverse(g2, (X + Y).reshape(-1))), dtype=float)
    pts = np.stack([X.reshape(-1), Y.reshape(-1)], axis=1)
    return _verdict(pts, fsum, (fx[:, None] + fx[None, :]).reshape(-1), sides, _GENERATOR_RESOLUTION)


def ratio_monotonicity_check(g1: Generator, g2: Generator, epsilon: float) -> OrderVerdict:
    """Monotonicity of psi = phi1/phi2 on (0, epsilon): psi(t_i) <= psi(t_i+1) on a geometric grid.

    An increasing ratio near 0 is the practical criterion implying the
    subadditivity of phi1 o phi2^[-1] near infinity.
    """
    sides = _generator_sides(g1, g2, "ratio monotonicity check")
    if not 0.0 < epsilon <= 1.0:
        raise DomainError(f"epsilon must lie in (0, 1], got {epsilon}")
    t = np.geomspace(epsilon * 1e-9, epsilon, _GENERATOR_RESOLUTION + 1)
    with np.errstate(over="ignore", divide="ignore"):
        psi = np.asarray(g1.phi(t), dtype=float) / np.asarray(g2.phi(t), dtype=float)
    return _verdict(np.column_stack([t[:-1], t[1:]]), psi[:-1], psi[1:], sides, _GENERATOR_RESOLUTION,
                    epsilon=float(epsilon))


class EquivalenceReport(Record):
    """The three equivalent clauses for regularly varying Archimedean pairs.

    strict tail dependence order, ordering of the tail dependence
    coefficients 2^(-1/alpha), and ordering of the regular-variation
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

    def as_dict(self) -> dict:
        return {
            "strict_tdo": self.strict_tdo,
            "tdc_ordered": self.tdc_ordered,
            "index_ordered": self.index_ordered,
            "alpha": [self.alpha1, self.alpha2],
            "tdc": [self.tdc1, self.tdc2],
            "consistent": self.consistent,
        }


def archimedean_order_equivalence(g1: Generator, g2: Generator) -> EquivalenceReport:
    """Evaluate the three-way equivalence for strict regularly varying generators, in d = 2.

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
    lam1, lam2 = archimedean_tdf(a1), archimedean_tdf(a2)
    verdict = check_tdo(lam1, lam2)
    t1, t2 = lam1(np.ones(2)), lam2(np.ones(2))  # the coefficients Lambda(1, 1)
    return EquivalenceReport(strict_tdo=verdict.status == HOLDS_STRICTLY, tdc_ordered=t1 < t2,
                             index_ordered=a1 < a2, alpha1=a1, alpha2=a2, tdc1=t1, tdc2=t2)
