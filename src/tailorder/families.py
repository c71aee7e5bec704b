"""Concrete copula families and their generating objects.

Archimedean generators with exact or bisected inverses, the Marshall-Olkin
and Gaussian families, diagonal-driven constructions (Fredricks-Nelsen,
Bertino, semilinear), and extreme value copulas driven by a tail dependence
function.  Each builder sets the copula's closed-form tail dependence
function (see ``core``).  The hierarchical Archimedean nesting sits beside
the Archimedean builder, whose generator descriptors its Clayton rule reads.
"""

from __future__ import annotations

import contextvars
import os
import warnings
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .core import (
    CUSTOM,
    EXACT,
    LOWER_BOUND,
    PRODUCT,
    ULP,
    CheckResult,
    Copula,
    DimensionError,
    DomainError,
    Field,
    GridConfig,
    Record,
    TailDepFunction,
    ValidityReport,
    _ROW_BLOCK,
    _lower_frechet,
    _product,
    _row_blocks,
    _row_reduce,
    _upper_frechet,
    min_tdf,
    validate_copula,
    zero_tdf,
)
from .taildep import _gauss_legendre_01, archimedean_tdf, validate_tdf

__all__ = [
    "Generator",
    "clayton_generator",
    "gumbel_generator",
    "joe_generator",
    "nonstrict_linear_generator",
    "generalized_inverse",
    "archimedean",
    "hierarchical",
    "marshall_olkin",
    "DiagonalSection",
    "power_diagonal",
    "diagonal_of",
    "validate_diagonal",
    "validate_semilinear_diagonal",
    "fredricks_nelsen",
    "bertino",
    "semilinear",
    "GAUSS_RHO_CUTOFF",
    "bivariate_normal_cdf",
    "gaussian",
    "ev_copula",
    "lower_ev_copula",
]


class Generator(Record):
    """Archimedean generator: continuous, strictly decreasing, phi(1) = 0.

    ``inverse`` is the exact inverse on [0, phi(0)) when a closed form
    exists; otherwise the generalized inverse falls back to bisection.
    ``strict`` marks phi(0+) = inf, and ``rv_index_at_0`` records the
    regular-variation index alpha when known analytically.  ``accuracy`` is
    its pair: :func:`archimedean` extends it where phi overflows, and the
    generator checks add it to the other generator's.
    """

    phi: Callable
    inverse: Callable | None
    strict: bool
    rv_index_at_0: float | None
    name: str = "custom"
    params: dict = Field(factory=dict)
    accuracy: tuple = CUSTOM

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            out = np.asarray(self.phi(t_arr), dtype=float)
        return float(out) if t_arr.ndim == 0 else out

    def phi_at_zero(self) -> float:
        if self.strict:
            return float("inf")
        return float(self.phi(np.asarray(0.0)))


def clayton_generator(theta: float) -> Generator:
    """Clayton generator phi(t) = (t^-theta - 1)/theta; strict, alpha = theta."""
    if not 0 < theta < np.inf:
        raise DomainError(f"Clayton theta must be positive and finite, got {theta}")
    th = float(theta)
    return Generator(
        phi=lambda t: (t ** -th - 1.0) / th,
        inverse=lambda x: (1.0 + th * x) ** (-1.0 / th),
        strict=True,
        rv_index_at_0=th,
        name="clayton",
        params={"theta": th},
        accuracy=(max(1e-14, 2 * ULP / th), 0.0),  # measured on [0.5, 6]; t^-theta - 1 cancels as theta -> 0
    )


def gumbel_generator(theta: float) -> Generator:
    """Gumbel generator phi(t) = (-log t)^theta; strict, slowly varying (alpha = 0)."""
    if not 1 <= theta < np.inf:
        raise DomainError(f"Gumbel theta must be finite and >= 1, got {theta}")
    th = float(theta)
    return Generator(
        phi=lambda t: (-np.log(t)) ** th,
        inverse=lambda x: np.exp(-(x ** (1.0 / th))),
        strict=True,
        rv_index_at_0=0.0,
        name="gumbel",
        params={"theta": th},
        accuracy=(1e-13, 0.0),
    )


def joe_generator(theta: float) -> Generator:
    """Joe generator phi(t) = -log(1 - (1-t)^theta); strict, slowly varying."""
    if not 1 <= theta < np.inf:
        raise DomainError(f"Joe theta must be finite and >= 1, got {theta}")
    th = float(theta)
    return Generator(
        phi=lambda t: -np.log(-np.expm1(th * np.log1p(-t))),
        inverse=lambda x: -np.expm1(np.log(-np.expm1(-x)) / th),
        strict=True,
        rv_index_at_0=0.0,
        name="joe",
        params={"theta": th},
        accuracy=(0.0, 5e-16),  # the inverse rounds 1 - exp(-x) to 1, so values below about 1e-16 come out 0
    )


def nonstrict_linear_generator() -> Generator:
    """Nonstrict generator phi(t) = 1 - t; its copula vanishes near the origin."""
    return Generator(
        phi=lambda t: 1.0 - t,
        inverse=lambda x: 1.0 - x,
        strict=False,
        rv_index_at_0=0.0,
        name="nonstrict-linear",
        params={},
        accuracy=LOWER_BOUND,
    )


def generalized_inverse(g: Generator, x) -> np.ndarray | float:
    """Generalized inverse inf{t in [0,1] : phi(t) <= x}.

    Coincides with the exact inverse for strict generators; for nonstrict
    ones it returns 0 whenever x >= phi(0).  The value is :func:`_inverse`'s
    rule, clipped into [0, 1].
    """
    x_arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.clip(_inverse(g, x_arr, g.phi_at_zero()), 0.0, 1.0)
    return float(out) if x_arr.ndim == 0 else out


def _inverse(g: Generator, x: np.ndarray, phi0: float) -> np.ndarray:
    """The one inverse rule of :func:`generalized_inverse` and :func:`archimedean`, without a clip.

    A closed-form inverse is evaluated on every row, x >= phi(0) and NaN
    included, so it must accept any x >= 0; a row keeps its value only where
    x < phi(0) and the value is finite, and gets 0 otherwise.  Without a
    closed form the inverse is the smallest double t in [0, 1] with
    phi(t) <= x, found by bisection (safe because phi is monotone), so it is
    accurate relative to t down to the smallest doubles.  The caller sets
    ``np.errstate`` for the rows it drops.
    """
    if np.fmin.reduce(x, axis=None, initial=0.0) < 0:  # one reduction that skips NaNs, which get 0 below
        raise DomainError("generalized inverse requires x >= 0")
    if g.inverse is not None:
        vals = np.asarray(g.inverse(x), dtype=float)
        keep = np.isfinite(vals)
        keep &= x < phi0
        return np.where(keep, vals, 0.0)
    out = np.zeros(x.shape)
    live = x < phi0
    out[live] = _bisect_inverse(g, x[live])
    return out


_ONE_BITS = np.float64(1.0).view(np.int64)


def _bisect_inverse(g: Generator, xs: np.ndarray) -> np.ndarray:
    # the doubles in [0, 1] ascend with their bit patterns: bisecting those down to adjacent doubles brackets
    # each row to a relative width of ulp at every scale, whatever rows it is batched with
    lo = np.zeros(xs.shape, dtype=np.int64)
    hi = np.full(xs.shape, _ONE_BITS)
    with np.errstate(divide="ignore", over="ignore"):
        while (hi - lo > 1).any():
            mid = lo + (hi - lo) // 2
            # phi decreasing: phi(mid) <= x means the inverse lies left of mid
            go_left = np.asarray(g.phi(mid.view(np.float64)), dtype=float) <= xs
            hi = np.where(go_left, mid, hi)
            lo = np.where(go_left, lo, mid)
        out = hi.view(np.float64)
        # phi(out) <= x once the bracket moved; a relative excess means no t in [0, 1] reached x
        resid = np.asarray(g.phi(out), dtype=float) - xs
    if (resid > 1e-6 * xs).any():
        raise DomainError("bisection failed to bracket the inverse; is phi strictly decreasing?")
    return out


_DECADES, _TENTHS = 10.0 ** np.arange(-300.0, 1.0), 10.0 ** (np.arange(-10.0, 1.0) / 10.0)


def archimedean(g: Generator, dimension: int = 2) -> Copula:
    """Archimedean copula C(u) = phi^[-1](phi(u_1) + ... + phi(u_d)).

    Its accuracy pair is the generator's plus an abs term where phi
    overflows near 0 (t^-theta for a large Clayton theta, (-log t)^theta
    for Gumbel) and values come out 0 that are not: the computed C(u) grows
    with each coordinate, so a 0 needs min(u) below the first t where
    C(t, ..., t) comes out positive, found to a tenth of a decade, and
    C(u) <= min(u).  Its tail dependence function is the closed form of
    the generator's regular-variation index, or None when that is unknown.
    The formula sums phi and inverts the sum by :func:`_inverse`'s rule
    inside one ``np.errstate``, leaving the clip into [0, 1] to ``Copula``.
    """
    if dimension < 2:
        raise DimensionError(f"dimension must be >= 2, got {dimension}")

    phi0 = g.phi_at_zero()

    def formula(pts: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return _inverse(g, _row_reduce(np.add, np.asarray(g.phi(pts), dtype=float)), phi0)

    def first_positive(ts: np.ndarray) -> float:  # the first of ascending t where C(t, ..., t) comes out positive
        return float(ts[np.argmax(formula(np.repeat(ts[:, None], dimension, axis=1)) > 0.0)])

    floor = 0.0
    if g.strict and not np.isfinite(g(np.full(dimension, 1e-300)).sum()):
        floor = first_positive(first_positive(_DECADES) * _TENTHS)
    desc = {
        "family": "archimedean",
        "params": {"generator": {"name": g.name, **g.params}, "d": dimension},
    }
    rel, abs_, *region = g.accuracy
    tdf = None if g.rv_index_at_0 is None else archimedean_tdf(g.rv_index_at_0, dimension)
    return Copula(dimension, formula, desc, (rel, abs_ + floor, *region), tdf)


def hierarchical(outer: Copula, inner: Copula) -> Copula:
    """Hierarchical Archimedean 3-copula (u1, u2, u3) -> outer(u1, inner(u2, u3)).

    Both nodes must be bivariate Archimedean.  For Clayton/Clayton nesting
    the sufficient condition theta_outer <= theta_inner is enforced
    analytically; any other combination is audited numerically, on a grid of
    resolution 16, and rejected if the result fails the copula axioms.  The
    tail dependence function is Lambda_outer(w1, Lambda_inner(w2, w3)) when
    both nodes carry one.
    """
    for node, label in ((outer, "outer"), (inner, "inner")):
        if node.descriptor.get("family") != "archimedean" or node.dimension != 2:
            raise DomainError(f"{label} node must be a bivariate Archimedean copula")

    # the inner node gets its two columns as one contiguous (n, 2) array: a ufunc over the strided view pts[:, 1:]
    # runs one 2-wide loop per row; its values are a temporary, freed before the outer node runs: held in a local
    # name until the return, they slowed the 17,468-row d = 3 local sample by about 30% (2-CPU Linux, numpy 2.4)
    def formula(pts: np.ndarray) -> np.ndarray:
        return outer.cdf(np.stack([pts[:, 0], inner.cdf(np.ascontiguousarray(pts[:, 1:]))], axis=1))

    # Lambda_outer is increasing and 1-Lipschitz, so inner's relative and absolute errors pass through
    tdf = None if outer.tdf is None or inner.tdf is None else TailDepFunction(
        lambda pts: outer.tdf.fn(np.stack([pts[:, 0], inner.tdf.fn(np.ascontiguousarray(pts[:, 1:]))], axis=1)), 3,
        accuracy=tuple(map(sum, zip(outer.tdf.accuracy, inner.tdf.accuracy))))
    desc = {"family": "hierarchical", "outer": outer.descriptor, "inner": inner.descriptor}
    c = Copula(3, formula, desc, tuple(map(sum, zip(outer.accuracy, inner.accuracy))), tdf)

    og, ig = (node.descriptor["params"]["generator"] for node in (outer, inner))
    if og.get("name") != "clayton" or ig.get("name") != "clayton":
        validate_copula(c, GridConfig(resolution=16)).require("invalid hierarchical nesting")
    elif og["theta"] > ig["theta"]:
        raise DomainError(f"Clayton nesting requires outer theta <= inner theta, got {og['theta']} > {ig['theta']}")
    return c


def marshall_olkin(alpha: float) -> Copula:
    """Marshall-Olkin copula min(u1^(1-alpha) * u2, u1), alpha in (0, 1).

    The singular component sits on the curve (t, t^alpha), which bends
    around every cone near the origin.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"Marshall-Olkin alpha must lie in (0, 1), got {alpha}")
    a = float(alpha)
    return Copula(
        2,
        lambda pts: np.minimum(pts[:, 0] ** (1.0 - a) * pts[:, 1], pts[:, 0]),
        {"family": "marshall_olkin", "params": {"alpha": a}},
        PRODUCT,
        zero_tdf(),
    )


class DiagonalSection(Record):
    """Diagonal t -> C(t, ..., t) of a d-copula, as a standalone object.

    ``convex`` records that delta is convex on [0, 1], a mathematical fact
    like ``Generator.strict``; :func:`bertino` then takes its inner minimum
    at an interval endpoint.  A claim the second differences on the
    :func:`validate_diagonal` grid contradict is rejected here.
    ``accuracy`` is the evaluator's accuracy pair (see ``core``).
    """

    delta: Callable
    dimension: int = 2
    name: str = "custom"
    params: dict = Field(factory=dict)
    convex: bool = False
    accuracy: tuple = CUSTOM

    def __post_init__(self):
        if self.convex:
            second = np.diff(np.asarray(self.delta(np.linspace(0.0, 1.0, _DIAGONAL_INTERVALS + 1)), dtype=float), 2)
            if second.min() < -1e-12:
                raise DomainError(f"diagonal {self.name!r} is marked convex but is not")

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.asarray(self.delta(t_arr), dtype=float)
        return float(out) if t_arr.ndim == 0 else out


def _power(t, p: float):
    return t ** p


def power_diagonal(p: float) -> DiagonalSection:
    """Power diagonal t^p of a 2-copula, valid when 1 <= p <= 2."""
    if not 1.0 <= p <= 2.0:
        raise DomainError(f"power diagonal needs 1 <= p <= 2, got {p}")
    return DiagonalSection(partial(_power, p=float(p)), 2, name="power", params={"p": float(p)},
                           convex=True, accuracy=(5e-16, 0.0))


def diagonal_of(c: Copula) -> DiagonalSection:
    """Diagonal section of a copula as a DiagonalSection object; ``params`` keeps the copula's descriptor,
    and ``accuracy`` is the copula's pair."""
    return DiagonalSection(c.diagonal, c.dimension, name="diagonal", params={"copula": c.descriptor},
                           accuracy=c.accuracy)


_DIAGONAL_INTERVALS = 4096  # subintervals of [0, 1] in the diagonal audits


def validate_diagonal(delta: DiagonalSection) -> ValidityReport:
    """Audit the four diagonal properties on a grid of 4,096 intervals.

    Endpoints delta(0) = 0 and delta(1) = 1, domination delta(t) <= t,
    monotonicity, and the d-Lipschitz bound.
    """
    t = np.linspace(0.0, 1.0, _DIAGONAL_INTERVALS + 1)
    v = delta(t)
    left = t[:-1, None]  # a difference's witness is its left point
    worst_of = CheckResult.worst_of
    return ValidityReport(checks=(
        worst_of("endpoints", [abs(v[0]), abs(v[-1] - 1.0)], 1e-12, [(0.0,), (1.0,)]),
        worst_of("dominated", v - t, 1e-12, t[:, None]),
        worst_of("increasing", -np.diff(v), 1e-12, left),
        worst_of("lipschitz", np.abs(np.diff(v)) - delta.dimension * np.diff(t), 1e-12, left),
    ))


def validate_semilinear_diagonal(delta: DiagonalSection) -> ValidityReport:
    """Diagonal audit plus the two semilinear ratio conditions.

    Checks (weakly) that delta(t)/t is increasing and delta(t)/t^2 is
    decreasing on (0, 1], on a grid of its own that starts at 1/4096.
    """
    t = np.linspace(1.0 / _DIAGONAL_INTERVALS, 1.0, _DIAGONAL_INTERVALS)
    v = delta(t)
    left = t[:-1, None]
    return ValidityReport(checks=validate_diagonal(delta).checks + (
        CheckResult.worst_of("ratio_increasing", -np.diff(v / t), 1e-9, left),
        CheckResult.worst_of("ratio_sq_decreasing", np.diff(v / t**2), 1e-9, left),
    ))


def _power_diagonal_tdf(delta: DiagonalSection) -> TailDepFunction | None:
    # Fredricks-Nelsen, Bertino and semilinear lie between 0 and min(u, v, (u^p + v^p)/2) for the diagonal t^p,
    # so C(s*w)/s is min(w) when p = 1 and O(s^(p-1)) -> 0 when p > 1; no other diagonal has a closed form here
    fn = delta.delta  # a section power_diagonal built is known by its function, not by its name
    if not (isinstance(fn, partial) and fn.func is _power):
        return None
    return min_tdf() if fn.keywords["p"] == 1.0 else zero_tdf()


def fredricks_nelsen(delta: DiagonalSection) -> Copula:
    """Pointwise maximal symmetric copula with the prescribed diagonal.

    C(u, v) = min(u, v, (delta(u) + delta(v)) / 2).
    """
    validate_diagonal(delta).require("invalid diagonal section")

    def formula(pts: np.ndarray) -> np.ndarray:
        dv = delta(pts)
        return np.minimum(_upper_frechet(pts), 0.5 * _row_reduce(np.add, dv))

    desc = {"family": "fredricks_nelsen", "params": {"diagonal": {"name": delta.name, **delta.params}}}
    rel, *rest = delta.accuracy  # the diagonal's pair plus a rounding
    return Copula(2, formula, desc, (rel + ULP, *rest), _power_diagonal_tdf(delta))


def bertino(delta: DiagonalSection) -> Copula:
    """Pointwise minimal copula with the prescribed diagonal.

    C(u, v) = min(u, v) - min over t in [min, max] of (t - delta(t)).  For a
    diagonal marked ``convex`` t - delta(t) is concave, so the inner minimum
    is the smaller of its two endpoint values.  Otherwise it is located by a
    dense scan refined by golden-section search (t - delta(t) need not be
    unimodal).  Where the minimum is at t = min the value is delta(min),
    evaluated directly rather than by subtraction, so it keeps the relative
    accuracy of delta near the origin and equals the diagonal exactly on it.
    """
    validate_diagonal(delta).require("invalid diagonal section")

    def formula(pts: np.ndarray) -> np.ndarray:
        lo = _upper_frechet(pts)
        hi = _row_reduce(np.maximum, pts)
        d_lo = delta(lo)
        # a convex diagonal's inner minimum is at an endpoint: compare t = max with t = min
        gap = hi - delta(hi) if delta.convex else _interval_min_gap(delta, lo, hi)
        out = lo - gap
        np.copyto(out, d_lo, where=gap >= lo - d_lo)  # the minimum is at t = min
        return out

    # where the inner minimum is at t = min the value is delta(min) itself, with the diagonal's pair; elsewhere
    # min(u, v) - gap cancels, so the diagonal's relative error and a rounding of order 1 turn absolute, and a
    # power diagonal gets there only where max(u, v) > 1/e
    rel, abs_ = delta.accuracy[:2]
    tdf = _power_diagonal_tdf(delta)
    region = ("max(u) > 1/e",) if tdf is not None else ()  # a power diagonal
    desc = {"family": "bertino", "params": {"diagonal": {"name": delta.name, **delta.params}}}
    return Copula(2, formula, desc, (rel, abs_ + rel + ULP, *region), tdf)


_BERTINO_SCAN = 1024
# rows scanned at once by _interval_min_gap, whose golden-section loop stops on a whole block; core._ROW_BLOCK is a
# multiple, so under core._row_blocks a blocked batch is scanned in the same blocks as a whole one
_BERTINO_BLOCK = 4096
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _interval_min_gap(delta: DiagonalSection, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized min of t - delta(t) over [lo_i, hi_i], to about 1e-12."""
    out = np.empty_like(lo)
    for start, stop in _row_blocks(lo.size, _BERTINO_BLOCK):
        out[start:stop] = _interval_min_gap_block(delta, lo[start:stop], hi[start:stop])
    return out


def _interval_min_gap_block(delta: DiagonalSection, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    def f(t):
        return t - delta(t)

    span = hi - lo
    frac = np.linspace(0.0, 1.0, _BERTINO_SCAN)
    t = lo[:, None] + span[:, None] * frac[None, :]
    gap = f(t)
    best = np.argmin(gap, axis=1)
    scanned = gap[np.arange(lo.size), best]
    step = span / (_BERTINO_SCAN - 1)
    a = np.maximum(lo, lo + (best - 1) * step)
    b = np.minimum(hi, lo + (best + 1) * step)
    # golden-section refinement around the best scanned point
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(64):
        pick1 = f1 <= f2
        a_new = np.where(pick1, a, x1)
        b_new = np.where(pick1, x2, b)
        width = b_new - a_new
        cand_lo = b_new - _GOLDEN * width
        cand_hi = a_new + _GOLDEN * width
        fc_lo, fc_hi = f(cand_lo), f(cand_hi)
        x1, f1, x2, f2 = (
            np.where(pick1, cand_lo, x2),
            np.where(pick1, fc_lo, f2),
            np.where(pick1, x1, cand_hi),
            np.where(pick1, f1, fc_hi),
        )
        a, b = a_new, b_new
        if float(width.max(initial=0.0)) < 1e-12:
            break
    mid = 0.5 * (a + b)
    return np.stack([f1, f2, f(mid), scanned]).min(axis=0)


def semilinear(delta: DiagonalSection) -> Copula:
    """Semilinear copula min(u, v) * delta(max(u, v)) / max(u, v).

    Requires delta(t)/t increasing and delta(t)/t^2 decreasing on (0, 1]
    (checked weakly); the diagonal of the result is delta exactly.
    """
    validate_semilinear_diagonal(delta).require("invalid diagonal section")

    def formula(pts: np.ndarray) -> np.ndarray:
        hi = _row_reduce(np.maximum, pts)  # positive: a row with a 0 never reaches the formula (see ``core``)
        return _upper_frechet(pts) * delta(hi) / hi

    desc = {"family": "semilinear", "params": {"diagonal": {"name": delta.name, **delta.params}}}
    rel, *rest = delta.accuracy  # the diagonal's pair plus a rounding
    return Copula(2, formula, desc, (rel + ULP, *rest), _power_diagonal_tdf(delta))


# beyond |rho| = GAUSS_RHO_CUTOFF gaussian() builds the comonotone or countermonotone copula
GAUSS_RHO_CUTOFF = 0.999


# rows of the quadrature evaluated at once: a (block, nodes) buffer of 512 KB stays in cache; the Gaussian copula
# splits a block of core._ROW_BLOCK rows or more in two halves at a multiple of it (gaussian), so each row stays in
# the quadrature block, and the BLAS product, it has in one unsplit call
_NORMAL_BLOCK = 1024
# Gauss-Legendre nodes of the quadrature, fixed: with 16, 24 or 32 the tail loses the relative accuracy of
# the copula's pair, and order gaussian:0.9 gaussian:0.99 --loc fails
_NORMAL_NODES = 64


@lru_cache(maxsize=32)  # rho is a user float; an entry holds 4 * _NORMAL_NODES doubles
def _normal_nodes(rho: float) -> tuple[np.ndarray, np.ndarray]:
    """The node rows -1/(2 cos^2 t), -1/(1 + sin t), -1/(1 - sin t) and the weights of I for rho, read-only."""
    x, w = _gauss_legendre_01(_NORMAL_NODES)
    t, wt = np.arcsin(rho) * x, np.arcsin(rho) * w
    sin_t = np.sin(t)
    node_rows = -1.0 / np.stack([2.0 * np.cos(t) ** 2, 1.0 + sin_t, 1.0 - sin_t])
    node_rows.flags.writeable = wt.flags.writeable = False
    return node_rows, wt


def _normal_integral(a: np.ndarray, b: np.ndarray, rho: float) -> np.ndarray:
    """The integral I of :func:`bivariate_normal_cdf` at each row of the flat arrays a and b, for rho != 0."""
    node_rows, wt = _normal_nodes(float(rho))
    n = a.size
    sums, cols, buf = np.empty(n), np.empty((n, 3)), np.empty((min(n, _NORMAL_BLOCK + 1), _NORMAL_NODES))
    with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 on rows with an infinite argument
        # each column from n-wide 1-D passes: a ufunc over the (n, 2) view cols[:, 1:] runs one 2-wide loop per row
        ab = np.multiply(a, b)
        diff = np.abs(a)
        np.square(np.subtract(diff, np.abs(b), out=diff), out=cols[:, 0])
        np.maximum(ab, 0.0, out=cols[:, 1])
        np.maximum(np.negative(ab, out=ab), 0.0, out=cols[:, 2])
        for start, stop in _row_blocks(n, _NORMAL_BLOCK):
            blk = buf[: stop - start]
            np.exp(np.matmul(cols[start:stop], node_rows, out=blk), out=blk)
            np.matmul(blk, wt, out=sums[start:stop])
    sums[np.isnan(sums)] = 0.0  # only from an infinite argument (integral 0) or a NaN one (Phi(a)Phi(b) keeps it)
    sums /= 2.0 * np.pi
    return sums


def bivariate_normal_cdf(a, b, rho: float) -> np.ndarray | float:
    """Standard bivariate normal CDF by deterministic Gauss-Legendre quadrature.

    Uses the angular form of the single-integral reduction, Phi2(a, b; rho) = Phi(a)Phi(b) + I with
    I = (1/2pi) * int_0^asin(rho) exp(-(a^2 - 2ab sin t + b^2)/(2 cos^2 t)) dt,
    whose integrand is analytic up to |rho| = 1.  As 2 cos^2 t = 2(1 - sin t)(1 + sin t), the exponent is
    -(|a| - |b|)^2/(2 cos^2 t) - |ab|/(1 +- sin t), with + where ab >= 0 and - where ab < 0: two terms that
    are never positive, so nothing cancels in it.  I fills the columns ((|a| - |b|)^2, max(ab, 0),
    max(-ab, 0)) of one (n, 3) array, each by n-wide 1-D passes (ab, then |a| - |b|, then one maximum per
    column), and, per ``_NORMAL_BLOCK`` rows, takes one matrix product with three node rows, one exp and one
    product with the weights.  The node rows and weights are built once per rho and shared read-only.  This
    function runs on the caller's thread.  The Gaussian copula adds the same I to
    u1*u2, which is Phi(a)Phi(b) at a = Phi^-1(u1), b = Phi^-1(u2), and splits a block of ``core._ROW_BLOCK``
    rows or more in two on a ``_NORMAL_BLOCK`` boundary, one half on an executor (see :func:`gaussian`).
    The rule has a fixed 64 nodes (``_NORMAL_NODES``).  Accuracy, measured on the Gaussian copula against mpmath with the interval cut
    near asin(rho): for rho > 0 both terms are positive and the error is relative, at most 1.8e-14 at s*w
    for s down to 1e-14 and rho in [0.3, 0.999].  For rho < 0 the two terms cancel
    where a and b are both far below 0, so the error is only absolute, at most 5.6e-17 on the same
    points: the Gaussian(-0.7) copula gives 1.9e-30 at (1e-8, 1e-8), where the value is 1.6e-49.  An
    infinite argument gives the limit Phi(a)Phi(b).  ``scipy.special`` is imported on the first call, so
    code that never evaluates a normal CDF does not load scipy.
    """
    from scipy.special import ndtr

    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"rho must lie in [-1, 1], got {rho}")
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = ndtr(a_arr) * ndtr(b_arr)
    if rho != 0.0:
        out = out + _normal_integral(a_arr.reshape(-1), b_arr.reshape(-1), rho).reshape(out.shape)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if np.isscalar(a) and np.isscalar(b) else out


@lru_cache(maxsize=1)
def _helper():
    """The one-worker executor that runs the second half of a Gaussian block (see gaussian), built on first use."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="tailorder-gaussian")


if hasattr(os, "register_at_fork"):  # a forked child inherits no worker thread, so it builds its own executor
    os.register_at_fork(after_in_child=_helper.cache_clear)


def _on_helper(fn, *args) -> Callable[[], None]:
    """Start fn(*args) on the helper in a copy of the caller's context (so ``np.errstate`` holds there); return a
    call that waits for fn to finish and raises its error."""
    try:
        return _helper().submit(contextvars.copy_context().run, fn, *args).result
    except RuntimeError:  # interpreter shutdown has begun and the executor takes no job: fn runs when waited for
        return partial(fn, *args)


def gaussian(rho: float) -> Copula:
    """Bivariate Gaussian copula with correlation rho.

    rho = 0, 1, -1 route to the product, comonotone, and countermonotone
    closed forms; |rho| in (0.999, 1) is also routed to the closed forms
    with a warning, since the quadrature guarantee stops at 0.999.  scipy is
    imported on the first evaluation of a quadrature copula, not when it is
    built.

    The quadrature formula splits a block of at least ``core._ROW_BLOCK``
    (8,192) rows into two halves at a multiple of ``_NORMAL_BLOCK`` (1,024)
    rows; each half runs ``ndtri``, the product and the integral, and the
    second runs in a copy of the caller's context (so ``np.errstate`` holds
    there too) on a one-worker ``concurrent.futures`` executor, started at
    the first such block and again in a forked child; once interpreter
    shutdown has begun, it runs on the caller's thread.  Every row stays in
    the quadrature block it has in one unsplit call, so the values are
    bit-identical to one thread's.  Shorter blocks, such as the orders'
    local samples, stay on the caller's thread.
    """
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"rho must lie in [-1, 1], got {rho}")
    r = float(rho)
    desc = {"family": "gaussian", "params": {"rho": r}}
    if abs(r) > GAUSS_RHO_CUTOFF:
        if abs(r) != 1.0:
            warnings.warn(
                f"|rho| = {abs(r)} exceeds {GAUSS_RHO_CUTOFF}; using the "
                "comonotone/countermonotone closed form instead of quadrature",
                RuntimeWarning,
                stacklevel=2,
            )
        bound, pair, tdf = (_upper_frechet, EXACT, min_tdf()) if r > 0 else (_lower_frechet, LOWER_BOUND, zero_tdf())
        return Copula(2, bound, desc, pair, tdf)
    if r == 0.0:
        return Copula(2, _product, desc, PRODUCT, zero_tdf())

    def rows(pts: np.ndarray, out: np.ndarray) -> None:
        from scipy.special import ndtri

        q = ndtri(pts)  # finite on every positive double below 1, the only rows the boundary rule hands over
        np.add(pts[:, 0] * pts[:, 1], _normal_integral(q[:, 0], q[:, 1], r), out=out)

    def formula(pts: np.ndarray) -> np.ndarray:
        n = pts.shape[0]
        out = np.empty(n)
        if n < _ROW_BLOCK:
            rows(pts, out)
            return out
        # two halves split on a quadrature block boundary, the second on the helper's worker
        mid = n // 2 // _NORMAL_BLOCK * _NORMAL_BLOCK
        second = _on_helper(rows, pts[mid:], out[mid:])
        rows(pts[:mid], out[:mid])
        second()
        return out

    # C(u) = Phi2(a, b; rho) = u1*u2 + I (bivariate_normal_cdf): the two terms add for rho > 0 and cancel in the
    # tail for rho < 0; the tail limit vanishes for |rho| < 1, though too slowly to estimate
    return Copula(2, formula, desc, (1e-13, 0.0) if r > 0 else (0.0, 4e-16), zero_tdf())


def ev_copula(lam: TailDepFunction) -> Copula:
    """Extreme value copula exp(log u1 + log u2 + Lambda(-log u1, -log u2)).

    ``lam`` must be a valid bivariate tail dependence function, and is
    audited; the boundary value 0 at u_k = 0 is taken as the limit.  C(s*w)
    is of order s^(2 - Lambda(1, 1)), so the copula's tail dependence
    function is zero unless Lambda(1, 1) = 1, where Lambda and it are min.
    """
    _require_valid_ev_tdf(lam)

    def formula(pts: np.ndarray) -> np.ndarray:
        logs = np.log(pts)
        return np.exp(_row_reduce(np.add, logs) + lam(-logs))

    desc = {"family": "extreme_value", "params": {"tdf": {"name": lam.name, **lam.params}}}
    return Copula(2, formula, desc, (5e-14, 0.0), min_tdf() if lam((1.0, 1.0)) == 1.0 else zero_tdf())


def lower_ev_copula(lam: TailDepFunction) -> Copula:
    """Survival copula of the extreme value copula; its tail dependence function is Lambda.

    The survival form u + v - 1 + C(1-u, 1-v) cancels near the origin, so
    the same copula is evaluated as
    uv + (1-u)(1-v) expm1(Lambda(-log1p(-u), -log1p(-v))), which keeps full
    relative precision in the tail.
    """
    _require_valid_ev_tdf(lam)

    def formula(pts: np.ndarray) -> np.ndarray:
        comp = 1.0 - pts
        return _product(pts) + _product(comp) * np.expm1(lam(-np.log1p(-pts)))

    # uv + (1-u)(1-v) expm1(Lambda(x, y)): Lambda's pair, plus a rounding
    rel, *rest = lam.accuracy
    desc = {"family": "lower_extreme_value", "params": {"tdf": {"name": lam.name, **lam.params}}}
    return Copula(2, formula, desc, (rel + 1e-15, *rest), lam)


def _require_valid_ev_tdf(lam: TailDepFunction):
    if lam.dimension != 2:
        raise DimensionError("extreme value construction is bivariate")
    validate_tdf(lam, GridConfig(resolution=16)).require("invalid tail dependence function")
