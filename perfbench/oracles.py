"""Reference values for the ``surface`` workload, independent of ``tailorder``.

Three kinds of check, each with its tolerance stated next to it:

* Frechet bounds W <= C <= M on every point, for every copula;
* closed forms for independence, Clayton, Marshall-Olkin, Fredricks-Nelsen,
  semilinear and Bertino with the convex power diagonal t^p;
* an ``mpmath`` reference for the Gaussian copula on a fixed subsample of
  the batch, half of it from the log-uniform tail half.
"""

from __future__ import annotations

import numpy as np

# Frechet bounds: relative slack for rounding in the formulas, plus a few ulp
# of 1 because survival constructions (lev) form u + v - 1 + C(1-u, 1-v) from
# terms of order 1 and so carry that absolute error even deep in the tail.
FRECHET_RTOL = 1e-12
FRECHET_ATOL = 1e-15

# Closed forms are recomputed in a different arithmetic order, so they agree
# to rounding rather than bit for bit.  Bertino's inner minimum is found by a
# scan and golden-section search that stops at interval width 1e-12, and the
# subtraction min(u, v) - gap loses all relative accuracy in the tail, so its
# tolerance is absolute.
CLOSED_FORM_RTOL = {
    "independence": 1e-14,
    "mo-0.5": 1e-14,
    "clayton-2": 1e-12,
    "clayton-2-d3": 1e-12,
    "fn-1.5": 1e-14,
    "semilinear-1.5": 1e-14,
}
BERTINO_ATOL = 1e-12

# The subsample's smallest values are near 1e-13, so the Gaussian check is
# relative; the seed's quadrature is within 1e-14 of the reference.
GAUSSIAN_RHO = 0.5
GAUSSIAN_RTOL = 1e-9
GAUSSIAN_SUBSAMPLE = 16  # points from each half of the batch


def frechet_violation(pts: np.ndarray, vals: np.ndarray) -> float:
    """Largest excursion of C outside [W, M] as a multiple of the allowed slack.

    At most 1 means every point lies within the bounds up to
    FRECHET_RTOL * M + FRECHET_ATOL.
    """
    d = pts.shape[1]
    upper = pts.min(axis=1)
    lower = np.maximum(pts.sum(axis=1) - (d - 1), 0.0)
    slack = FRECHET_RTOL * upper + FRECHET_ATOL
    excess = np.maximum(vals - upper, lower - vals) / slack
    return float(max(excess.max(initial=0.0), 0.0))


def _clayton(pts: np.ndarray, theta: float) -> np.ndarray:
    return ((pts ** -theta).sum(axis=1) - (pts.shape[1] - 1)) ** (-1.0 / theta)


def closed_form(label: str, pts: np.ndarray) -> np.ndarray | None:
    """Closed-form C(u) for the labels that have one, else None."""
    u = pts[:, 0]
    v = pts[:, 1] if pts.shape[1] > 1 else None
    if label == "independence":
        return u * v
    if label in ("clayton-2", "clayton-2-d3"):
        return _clayton(pts, 2.0)
    if label == "mo-0.5":
        return np.minimum(u ** 0.5 * v, u)
    if label == "fn-1.5":
        return np.minimum(np.minimum(u, v), 0.5 * (u ** 1.5 + v ** 1.5))
    if label == "semilinear-1.5":
        return np.minimum(u, v) * np.maximum(u, v) ** 0.5
    if label == "bertino-1.5":
        return bertino_power(pts, 1.5)
    return None


def bertino_power(pts: np.ndarray, p: float) -> np.ndarray:
    """Bertino copula of the diagonal t^p, 1 <= p <= 2.

    t^p is convex, so t - t^p is concave and its minimum over [lo, hi] sits
    at an endpoint.
    """
    lo, hi = pts.min(axis=1), pts.max(axis=1)
    return lo - np.minimum(lo - lo ** p, hi - hi ** p)


def closed_form_error(label: str, pts: np.ndarray, vals: np.ndarray) -> tuple[float, float] | None:
    """(error, tolerance) against the closed form, or None without one."""
    ref = closed_form(label, pts)
    if ref is None:
        return None
    if label == "bertino-1.5":
        return float(np.abs(vals - ref).max()), BERTINO_ATOL
    rel = np.abs(vals - ref) / np.maximum(np.abs(ref), np.finfo(float).tiny)
    return float(rel.max()), CLOSED_FORM_RTOL[label]


def subsample_indices(n: int, per_half: int = GAUSSIAN_SUBSAMPLE) -> np.ndarray:
    """Evenly spaced indices from both halves of an n-point batch."""
    half = n // 2
    first = np.linspace(0, half - 1, per_half).astype(int)
    return np.concatenate([first, half + first])


def gaussian_reference(u: float, v: float, rho: float = GAUSSIAN_RHO, dps: int = 40) -> float:
    """Gaussian copula C(u, v) by Plackett's identity, in mpmath at ``dps`` digits.

    Phi2(a, b; rho) = Phi(a) Phi(b) + int_0^rho phi2(a, b; r) dr, with
    a = Phi^-1(u), b = Phi^-1(v) and phi2 the bivariate normal density.
    """
    import mpmath

    with mpmath.workdps(dps):
        a = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(u) - 1)
        b = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(v) - 1)

        def density(r):
            one = 1 - r * r
            return mpmath.exp(-(a * a - 2 * r * a * b + b * b) / (2 * one)) / (2 * mpmath.pi * mpmath.sqrt(one))

        value = mpmath.ncdf(a) * mpmath.ncdf(b) + mpmath.quad(density, [0, rho])
        return float(value)


def gaussian_error(pts: np.ndarray, vals: np.ndarray) -> float:
    """Worst relative error against mpmath on the subsample."""
    worst = 0.0
    for i in subsample_indices(pts.shape[0]):
        ref = gaussian_reference(float(pts[i, 0]), float(pts[i, 1]))
        worst = max(worst, abs(float(vals[i]) - ref) / ref)
    return worst


def check_surface(label: str, pts: np.ndarray, vals: np.ndarray) -> list[str]:
    """All oracle checks for one batch; returns failure messages (empty when it passes)."""
    problems = []
    if vals.shape != (pts.shape[0],) or not np.isfinite(vals).all():
        return [f"{label}: expected {pts.shape[0]} finite values"]
    viol = frechet_violation(pts, vals)
    if viol > 1.0:
        problems.append(f"{label}: outside the Frechet bounds by {viol:.3g}x the slack")
    err = closed_form_error(label, pts, vals)
    if err is not None and not err[0] <= err[1]:
        problems.append(f"{label}: closed-form error {err[0]:.3e} exceeds {err[1]:.1e}")
    if label == "gaussian-0.5":
        rel = gaussian_error(pts, vals)
        if not rel <= GAUSSIAN_RTOL:
            problems.append(f"{label}: relative error {rel:.3e} against mpmath exceeds {GAUSSIAN_RTOL:.0e}")
    return problems
