import numpy as np
import pytest

import oracles
import workloads


def test_surface_batch_is_interior_and_seeded():
    a = workloads.surface_batch(7, 3, 2, n=4096)
    assert a.shape == (4096, 2)
    assert (a > 0.0).all() and (a < 1.0).all()
    tail = a[2048:]
    assert (tail >= workloads.TAIL_LOW).all() and (tail <= workloads.TAIL_HIGH).all()
    assert np.array_equal(a, workloads.surface_batch(7, 3, 2, n=4096))
    assert not np.array_equal(a, workloads.surface_batch(8, 3, 2, n=4096))


def test_frechet_bounds_accept_w_pi_m_and_reject_excursions():
    pts = workloads.surface_batch(1, 0, 2, n=2048)
    m = pts.min(axis=1)
    w = np.maximum(pts.sum(axis=1) - 1.0, 0.0)
    for vals in (m, w, pts.prod(axis=1)):
        assert oracles.frechet_violation(pts, vals) <= 1.0
    assert oracles.frechet_violation(pts, m * (1 + 1e-9)) > 1.0
    assert oracles.frechet_violation(pts, w - 1e-9) > 1.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_bertino_endpoint_minimum_matches_dense_scan(p):
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 1.0, size=(200, 2))
    lo, hi = pts.min(axis=1), pts.max(axis=1)
    t = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 4001)[None, :]
    scanned = lo - (t - t ** p).min(axis=1)
    assert np.abs(oracles.bertino_power(pts, p) - scanned).max() <= 1e-15


def test_closed_forms_against_their_definitions():
    pts = workloads.surface_batch(2, 0, 2, n=1024)
    u, v = pts[:, 0], pts[:, 1]
    clayton = (u ** -2.0 + v ** -2.0 - 1.0) ** -0.5
    assert np.allclose(oracles.closed_form("clayton-2", pts), clayton, rtol=1e-15, atol=0.0)
    assert np.array_equal(oracles.closed_form("independence", pts), u * v)
    # semilinear with delta(t) = t^1.5 is min * delta(max) / max
    semi = np.minimum(u, v) * np.maximum(u, v) ** 1.5 / np.maximum(u, v)
    assert np.allclose(oracles.closed_form("semilinear-1.5", pts), semi, rtol=1e-14, atol=0.0)
    assert oracles.closed_form("gumbel-2", pts) is None


def test_gaussian_reference_known_values():
    # Phi2(0, 0; rho) = 1/4 + asin(rho) / (2 pi): 1/3 at rho = 1/2
    assert oracles.gaussian_reference(0.5, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert oracles.gaussian_reference(0.2, 0.7, rho=0.0) == pytest.approx(0.14, rel=1e-14)
    # tail: C(u, u) ~ u^(2/(1+rho)) up to a slowly varying factor, so far below u
    tiny = oracles.gaussian_reference(1e-10, 1e-10)
    assert 0.0 < tiny < 1e-12


def test_check_surface_flags_wrong_values():
    pts = workloads.surface_batch(3, 0, 2, n=256)
    good = pts.prod(axis=1)
    assert oracles.check_surface("independence", pts, good) == []
    bad = good.copy()
    bad[5] *= 1.0 + 1e-10
    assert oracles.check_surface("independence", pts, bad)
    assert oracles.check_surface("independence", pts, good[:-1])


def test_subsample_takes_both_halves():
    idx = oracles.subsample_indices(65_536)
    assert len(idx) == 2 * oracles.GAUSSIAN_SUBSAMPLE
    assert (idx < 32_768).sum() == (idx >= 32_768).sum()
