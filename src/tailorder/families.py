"""Concrete copula families and their generating objects.

Archimedean generators with exact or bisected inverses, the Marshall-Olkin
and Gaussian families, diagonal-driven constructions (Fredricks-Nelsen,
Bertino, semilinear), extreme value copulas driven by a tail dependence
function, and the three-variable hierarchical Archimedean nesting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    CheckResult,
    Copula,
    DimensionError,
    DomainError,
    GridConfig,
    ValidityReport,
    copula_from_formula,
    validate_copula,
)
from .taildep import TailDepFunction, _gauss_legendre_01, validate_tdf

__all__ = [
    "Generator",
    "clayton_generator",
    "gumbel_generator",
    "joe_generator",
    "nonstrict_linear_generator",
    "generalized_inverse",
    "archimedean",
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
    "hierarchical",
]


@dataclass(frozen=True)
class Generator:
    """Archimedean generator: continuous, strictly decreasing, phi(1) = 0.

    ``inverse`` is the exact inverse on [0, phi(0)) when a closed form
    exists; otherwise the generalized inverse falls back to bisection.
    ``strict`` marks phi(0+) = inf, and ``rv_index_at_0`` records the
    regular-variation index alpha when known analytically.
    """

    phi: Callable
    inverse: Callable | None
    strict: bool
    rv_index_at_0: float | None
    name: str = "custom"
    params: dict = field(default_factory=dict)

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
    if not theta > 0:
        raise DomainError(f"Clayton theta must be positive, got {theta}")
    th = float(theta)
    return Generator(
        phi=lambda t: (t ** -th - 1.0) / th,
        inverse=lambda x: (1.0 + th * x) ** (-1.0 / th),
        strict=True,
        rv_index_at_0=th,
        name="clayton",
        params={"theta": th},
    )


def gumbel_generator(theta: float) -> Generator:
    """Gumbel generator phi(t) = (-log t)^theta; strict, slowly varying (alpha = 0)."""
    if not theta >= 1:
        raise DomainError(f"Gumbel theta must be >= 1, got {theta}")
    th = float(theta)
    return Generator(
        phi=lambda t: (-np.log(t)) ** th,
        inverse=lambda x: np.exp(-(x ** (1.0 / th))),
        strict=True,
        rv_index_at_0=0.0,
        name="gumbel",
        params={"theta": th},
    )


def joe_generator(theta: float) -> Generator:
    """Joe generator phi(t) = -log(1 - (1-t)^theta); strict, slowly varying."""
    if not theta >= 1:
        raise DomainError(f"Joe theta must be >= 1, got {theta}")
    th = float(theta)
    return Generator(
        phi=lambda t: -np.log(-np.expm1(th * np.log1p(-t))),
        inverse=lambda x: -np.expm1(np.log(-np.expm1(-x)) / th),
        strict=True,
        rv_index_at_0=0.0,
        name="joe",
        params={"theta": th},
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
    )


def generalized_inverse(g: Generator, x) -> np.ndarray | float:
    """Generalized inverse inf{t in [0,1] : phi(t) <= x}.

    Coincides with the exact inverse for strict generators; for nonstrict
    ones it returns 0 whenever x >= phi(0).  Without a closed form the
    inverse is bracketed on [0, 1] by bisection (200 iterations or interval
    width below 1e-14; safe because phi is monotone).
    """
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    xs = np.atleast_1d(x_arr).astype(float)
    if (xs < 0).any():
        raise DomainError("generalized inverse requires x >= 0")
    out = np.empty_like(xs)
    phi0 = g.phi_at_zero()
    saturated = xs >= phi0
    out[saturated] = 0.0
    live = ~saturated
    if live.any():
        if g.inverse is not None:
            with np.errstate(over="ignore", divide="ignore"):
                vals = np.asarray(g.inverse(xs[live]), dtype=float)
            out[live] = np.clip(np.where(np.isfinite(vals), vals, 0.0), 0.0, 1.0)
        else:
            out[live] = _bisect_inverse(g, xs[live])
    return float(out[0]) if scalar else out.reshape(x_arr.shape)


def _bisect_inverse(g: Generator, xs: np.ndarray) -> np.ndarray:
    lo = np.zeros_like(xs)
    hi = np.ones_like(xs)
    with np.errstate(divide="ignore", over="ignore"):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            f_mid = np.asarray(g.phi(mid), dtype=float)
            # phi decreasing: phi(mid) <= x means the inverse lies left of mid
            go_left = f_mid <= xs
            hi = np.where(go_left, mid, hi)
            lo = np.where(go_left, lo, mid)
            if float((hi - lo).max()) < 1e-14:
                break
        out = 0.5 * (lo + hi)
        # a grossly inconsistent residual signals a non-monotone phi
        resid = np.abs(np.asarray(g.phi(np.maximum(out, 1e-300)), dtype=float) - xs)
    bad = (out > 1e-12) & (resid > 1e-6 * np.maximum(1.0, xs))
    if bad.any():
        raise DomainError("bisection failed to bracket the inverse; is phi strictly decreasing?")
    return out


def archimedean(g: Generator, dimension: int = 2) -> Copula:
    """Archimedean copula C(u) = phi^[-1](phi(u_1) + ... + phi(u_d))."""
    if dimension < 2:
        raise DimensionError(f"dimension must be >= 2, got {dimension}")

    def formula(pts: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore"):
            total = np.asarray(g.phi(pts), dtype=float).sum(axis=1)
        return np.asarray(generalized_inverse(g, total), dtype=float)

    desc = {
        "family": "archimedean",
        "params": {"generator": {"name": g.name, **g.params}, "d": dimension},
    }
    return copula_from_formula(dimension, formula, desc)


def marshall_olkin(alpha: float) -> Copula:
    """Marshall-Olkin copula min(u1^(1-alpha) * u2, u1), alpha in (0, 1).

    The singular component sits on the curve (t, t^alpha), which bends
    around every cone near the origin.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"Marshall-Olkin alpha must lie in (0, 1), got {alpha}")
    a = float(alpha)
    return copula_from_formula(
        2,
        lambda pts: np.minimum(pts[:, 0] ** (1.0 - a) * pts[:, 1], pts[:, 0]),
        {"family": "marshall_olkin", "params": {"alpha": a}},
    )


@dataclass(frozen=True)
class DiagonalSection:
    """Diagonal t -> C(t, ..., t) of a d-copula, as a standalone object.

    ``convex`` records that delta is convex on [0, 1], a mathematical fact
    like ``Generator.strict``; :func:`bertino` then takes its inner minimum
    at an interval endpoint.  A claim the second differences on the
    :func:`validate_diagonal` grid contradict is rejected here.
    """

    delta: Callable
    dimension: int = 2
    name: str = "custom"
    params: dict = field(default_factory=dict)
    convex: bool = False

    def __post_init__(self):
        if self.convex:
            second = np.diff(np.asarray(self.delta(_diagonal_grid()), dtype=float), 2)
            if second.min() < -1e-12:
                raise DomainError(f"diagonal {self.name!r} is marked convex but is not")

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.asarray(self.delta(t_arr), dtype=float)
        return float(out) if t_arr.ndim == 0 else out


def power_diagonal(p: float, dimension: int = 2) -> DiagonalSection:
    """Power diagonal t^p, valid for a 2-copula when 1 <= p <= 2."""
    if not 1.0 <= p <= float(dimension):
        raise DomainError(f"power diagonal needs 1 <= p <= d = {dimension}, got {p}")
    return DiagonalSection(lambda t: t ** float(p), dimension, name="power", params={"p": float(p)}, convex=True)


def diagonal_of(c: Copula) -> DiagonalSection:
    """Diagonal section of a copula as a DiagonalSection object."""
    return DiagonalSection(
        lambda t: np.asarray(c.diagonal(t), dtype=float),
        c.dimension,
        name="diagonal",
        params={"family": c.descriptor.get("family", "?")},
    )


def _diagonal_grid(grid: GridConfig | None = None) -> np.ndarray:
    g = grid or GridConfig()
    return np.linspace(0.0, 1.0, max(g.resolution**2, 256) + 1)


def validate_diagonal(delta: DiagonalSection, grid: GridConfig | None = None) -> ValidityReport:
    """Audit the four diagonal properties on a dense grid.

    Endpoints delta(0) = 0 and delta(1) = 1, domination delta(t) <= t,
    monotonicity, and the d-Lipschitz bound.
    """
    t = _diagonal_grid(grid)
    v = np.asarray(delta(t), dtype=float)

    end_dev = max(abs(float(v[0])), abs(float(v[-1]) - 1.0))
    endpoints = CheckResult("endpoints", end_dev <= 1e-12, end_dev, (0.0, 1.0))

    exc = v - t
    i = int(np.argmax(exc))
    dominated = CheckResult("dominated", float(exc[i]) <= 1e-12, max(0.0, float(exc[i])), (float(t[i]),))

    dec = -np.diff(v)
    i = int(np.argmax(dec))
    increasing = CheckResult("increasing", float(dec[i]) <= 1e-12, max(0.0, float(dec[i])), (float(t[i]),))

    lip = np.abs(np.diff(v)) - delta.dimension * np.diff(t)
    i = int(np.argmax(lip))
    lipschitz = CheckResult("lipschitz", float(lip[i]) <= 1e-12, max(0.0, float(lip[i])), (float(t[i]),))

    return ValidityReport(checks=(endpoints, dominated, increasing, lipschitz))


def validate_semilinear_diagonal(delta: DiagonalSection, grid: GridConfig | None = None) -> ValidityReport:
    """Diagonal audit plus the two semilinear ratio conditions.

    Checks (weakly) that delta(t)/t is increasing and delta(t)/t^2 is
    decreasing on (0, 1].
    """
    base = validate_diagonal(delta, grid)
    g = grid or GridConfig()
    n = max(g.resolution**2, 256)
    t = np.linspace(1.0 / n, 1.0, n)
    v = np.asarray(delta(t), dtype=float)

    r1 = v / t
    dec = -np.diff(r1)
    i = int(np.argmax(dec))
    ratio_inc = CheckResult("ratio_increasing", float(dec[i]) <= 1e-9, max(0.0, float(dec[i])), (float(t[i]),))

    r2 = v / t**2
    inc = np.diff(r2)
    i = int(np.argmax(inc))
    ratio2_dec = CheckResult("ratio_sq_decreasing", float(inc[i]) <= 1e-9, max(0.0, float(inc[i])), (float(t[i]),))

    return ValidityReport(checks=base.checks + (ratio_inc, ratio2_dec))


def _require_valid_diagonal(delta: DiagonalSection, semilinear_conditions: bool = False):
    report = (
        validate_semilinear_diagonal(delta) if semilinear_conditions else validate_diagonal(delta)
    )
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise DomainError(f"invalid diagonal section: failed {failed}")


def fredricks_nelsen(delta: DiagonalSection) -> Copula:
    """Pointwise maximal symmetric copula with the prescribed diagonal.

    C(u, v) = min(u, v, (delta(u) + delta(v)) / 2).
    """
    _require_valid_diagonal(delta)

    def formula(pts: np.ndarray) -> np.ndarray:
        dv = np.asarray(delta(pts), dtype=float)
        return np.minimum(pts.min(axis=1), 0.5 * dv.sum(axis=1))

    desc = {"family": "fredricks_nelsen", "params": {"diagonal": {"name": delta.name, **delta.params}}}
    return copula_from_formula(2, formula, desc)


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
    _require_valid_diagonal(delta)

    def formula(pts: np.ndarray) -> np.ndarray:
        # two-column minimum and maximum: much faster than reductions along axis 1
        lo = np.minimum(pts[:, 0], pts[:, 1])
        hi = np.maximum(pts[:, 0], pts[:, 1])
        d_lo = np.asarray(delta(lo), dtype=float)
        # a convex diagonal's inner minimum is at an endpoint: compare t = max with t = min
        gap = hi - delta(hi) if delta.convex else _interval_min_gap(delta, lo, hi)
        out = lo - gap
        np.copyto(out, d_lo, where=gap >= lo - d_lo)  # the minimum is at t = min
        return out

    desc = {"family": "bertino", "params": {"diagonal": {"name": delta.name, **delta.params}}}
    return copula_from_formula(2, formula, desc)


_BERTINO_SCAN = 1024
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _interval_min_gap(delta: DiagonalSection, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized min of t - delta(t) over [lo_i, hi_i], to about 1e-12."""
    out = np.empty_like(lo)
    for start in range(0, lo.size, 4096):
        sl = slice(start, min(start + 4096, lo.size))
        out[sl] = _interval_min_gap_block(delta, lo[sl], hi[sl])
    return out


def _interval_min_gap_block(delta: DiagonalSection, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    def f(t):
        return t - np.asarray(delta(t), dtype=float)

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
    _require_valid_diagonal(delta, semilinear_conditions=True)

    def formula(pts: np.ndarray) -> np.ndarray:
        hi = pts.max(axis=1)
        safe = np.where(hi > 0.0, hi, 1.0)
        return np.where(hi > 0.0, pts.min(axis=1) * np.asarray(delta(safe), dtype=float) / safe, 0.0)

    desc = {"family": "semilinear", "params": {"diagonal": {"name": delta.name, **delta.params}}}
    return copula_from_formula(2, formula, desc)


# beyond |rho| = GAUSS_RHO_CUTOFF gaussian() builds the comonotone or countermonotone copula
GAUSS_RHO_CUTOFF = 0.999


def bivariate_normal_cdf(a, b, rho: float, nodes: int = 64) -> np.ndarray | float:
    """Standard bivariate normal CDF by deterministic Gauss-Legendre quadrature.

    Uses the angular form of the single-integral reduction,
    Phi2(a, b; rho) = Phi(a)Phi(b)
        + (1/2pi) * int_0^asin(rho) exp(-(a^2 - 2ab sin t + b^2)/(2 cos^2 t)) dt,
    whose integrand is analytic up to |rho| = 1.  Absolute error is below
    1e-10 for |rho| <= 0.999 at 64 nodes.  ``scipy.special`` is imported
    on the first call, so code that never evaluates a normal CDF does not
    load scipy.
    """
    from scipy.special import ndtr

    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"rho must lie in [-1, 1], got {rho}")
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    base = ndtr(a_arr) * ndtr(b_arr)
    if rho == 0.0:
        out = base
    else:
        x, w = _gauss_legendre_01(nodes)
        t = np.arcsin(rho) * x
        wt = np.arcsin(rho) * w
        sin_t = np.sin(t)
        cos2 = np.cos(t) ** 2
        aa = a_arr[..., None]
        bb = b_arr[..., None]
        integrand = np.exp(-(aa**2 - 2.0 * aa * bb * sin_t + bb**2) / (2.0 * cos2))
        out = base + (integrand * wt).sum(axis=-1) / (2.0 * np.pi)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if np.isscalar(a) and np.isscalar(b) else out


def gaussian(rho: float, nodes: int = 64) -> Copula:
    """Bivariate Gaussian copula with correlation rho.

    rho = 0, 1, -1 route to the product, comonotone, and countermonotone
    closed forms; |rho| in (0.999, 1) is also routed to the closed forms
    with a warning, since the quadrature guarantee stops at 0.999.  scipy is
    imported on the first evaluation of a quadrature copula, not when it is
    built.
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
        if r > 0:
            return copula_from_formula(2, lambda pts: pts.min(axis=1), desc)
        return copula_from_formula(2, lambda pts: np.maximum(pts.sum(axis=1) - 1.0, 0.0), desc)
    if r == 0.0:
        return copula_from_formula(2, lambda pts: pts.prod(axis=1), desc)

    def formula(pts: np.ndarray) -> np.ndarray:
        from scipy.special import ndtri

        q = ndtri(np.clip(pts, 1e-300, 1.0 - 1e-16))
        return np.asarray(bivariate_normal_cdf(q[:, 0], q[:, 1], r, nodes=nodes), dtype=float)

    return copula_from_formula(2, formula, desc)


def ev_copula(lam: TailDepFunction, validate: bool = True) -> Copula:
    """Extreme value copula exp(log u1 + log u2 + Lambda(-log u1, -log u2)).

    ``lam`` must be a valid bivariate tail dependence function (audited
    unless ``validate=False``); the boundary value 0 at u_k = 0 is taken as
    the limit.
    """
    _require_valid_ev_tdf(lam, validate)

    def formula(pts: np.ndarray) -> np.ndarray:
        logs = np.log(pts)
        return np.exp(logs.sum(axis=1) + lam(-logs))

    desc = {"family": "extreme_value", "params": {"tdf": {"name": lam.name, **lam.params}}}
    return copula_from_formula(2, formula, desc)


def lower_ev_copula(lam: TailDepFunction, validate: bool = True) -> Copula:
    """Survival copula of the extreme value copula; its tail dependence function is Lambda.

    The survival form u + v - 1 + C(1-u, 1-v) cancels near the origin, so
    the same copula is evaluated as
    uv + (1-u)(1-v) expm1(Lambda(-log1p(-u), -log1p(-v))), which keeps full
    relative precision in the tail.
    """
    _require_valid_ev_tdf(lam, validate)

    def formula(pts: np.ndarray) -> np.ndarray:
        comp = 1.0 - pts
        return pts.prod(axis=1) + comp.prod(axis=1) * np.expm1(lam(-np.log1p(-pts)))

    desc = {"family": "lower_extreme_value", "params": {"tdf": {"name": lam.name, **lam.params}}}
    return copula_from_formula(2, formula, desc)


def _require_valid_ev_tdf(lam: TailDepFunction, validate: bool):
    if lam.dimension != 2:
        raise DimensionError("extreme value construction is bivariate")
    if validate:
        report = validate_tdf(lam, GridConfig(resolution=16))
        if not report.passed:
            failed = [c.name for c in report.checks if not c.passed]
            raise DomainError(f"invalid tail dependence function: failed {failed}")


def hierarchical(outer: Copula, inner: Copula, audit_resolution: int = 16) -> Copula:
    """Hierarchical Archimedean 3-copula (u1, u2, u3) -> outer(u1, inner(u2, u3)).

    Both nodes must be bivariate Archimedean.  For Clayton/Clayton nesting
    the sufficient condition theta_outer <= theta_inner is enforced
    analytically; any other combination is audited numerically and rejected
    if the result fails the copula axioms.
    """
    for node, label in ((outer, "outer"), (inner, "inner")):
        if node.descriptor.get("family") != "archimedean" or node.dimension != 2:
            raise DomainError(f"{label} node must be a bivariate Archimedean copula")

    def gen_info(c: Copula) -> dict:
        return c.descriptor["params"]["generator"]

    def formula(pts: np.ndarray) -> np.ndarray:
        inner_vals = inner._evaluator(pts[:, 1:])
        outer_pts = np.stack([pts[:, 0], inner_vals], axis=1)
        return outer._evaluator(outer_pts)

    desc = {"family": "hierarchical", "outer": outer.descriptor, "inner": inner.descriptor}
    c = copula_from_formula(3, formula, desc)

    og, ig = gen_info(outer), gen_info(inner)
    if og.get("name") == "clayton" and ig.get("name") == "clayton":
        if og["theta"] > ig["theta"]:
            raise DomainError(
                f"Clayton nesting requires outer theta <= inner theta, got {og['theta']} > {ig['theta']}"
            )
    else:
        report = validate_copula(c, GridConfig(resolution=audit_resolution))
        if not report.passed:
            failed = [chk.name for chk in report.checks if not chk.passed]
            raise DomainError(f"hierarchical nesting failed the validity audit: {failed}")
    return c
