import math

import numpy as np
import pytest
from scipy.integrate import dblquad

import tailorder as to
from tailorder.families import bivariate_normal_cdf


def bvn_oracle(a, b, rho):
    """Independent 2-D quadrature of the bivariate normal density."""
    det = 1.0 - rho * rho
    norm = 1.0 / (2.0 * math.pi * math.sqrt(det))

    def density(y, x):
        return norm * math.exp(-(x * x - 2 * rho * x * y + y * y) / (2.0 * det))

    val, err = dblquad(density, -8.5, a, -8.5, b, epsabs=1e-12)
    return val


class TestBivariateNormal:
    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.99, 0.999, -0.5, -0.999])
    @pytest.mark.parametrize("ab", [(0.0, 0.0), (1.0, -1.0), (-2.0, -2.0), (0.5, 2.0)])
    def test_against_quadrature_oracle(self, rho, ab):
        a, b = ab
        assert bivariate_normal_cdf(a, b, rho) == pytest.approx(bvn_oracle(a, b, rho), abs=1e-9)

    def test_two_node_counts_agree(self):
        for rho in (0.3, 0.8, -0.6, 0.999):
            v64 = bivariate_normal_cdf(-0.7, 1.2, rho, nodes=64)
            v96 = bivariate_normal_cdf(-0.7, 1.2, rho, nodes=96)
            assert abs(v64 - v96) < 1e-13

    def test_orthant_identity(self):
        for rho in (-0.9, -0.5, 0.0, 0.25, 0.5, 0.9):
            want = 0.25 + math.asin(rho) / (2.0 * math.pi)
            assert bivariate_normal_cdf(0.0, 0.0, rho) == pytest.approx(want, abs=1e-12)


class TestGaussianCopula:
    def test_independence(self):
        assert to.gaussian(0.0).eval((0.5, 0.5)) == 0.25

    def test_comonotone_limit(self):
        assert to.gaussian(1.0).eval((0.3, 0.7)) == pytest.approx(0.3, abs=0)

    def test_countermonotone_limit(self):
        c = to.gaussian(-1.0)
        assert c.eval((0.3, 0.6)) == 0.0
        assert c.eval((0.7, 0.6)) == pytest.approx(0.3, abs=1e-15)

    def test_half_correlation_orthant_value(self):
        want = 0.25 + math.asin(0.5) / (2.0 * math.pi)
        assert to.gaussian(0.5).eval((0.5, 0.5)) == pytest.approx(want, abs=1e-10)

    def test_near_unit_rho_warns_and_routes(self):
        with pytest.warns(RuntimeWarning):
            c = to.gaussian(0.9995)
        assert c.eval((0.3, 0.7)) == 0.3

    def test_domain(self):
        with pytest.raises(to.DomainError):
            to.gaussian(1.5)

    def test_valid_copula(self):
        assert to.validate_copula(to.gaussian(0.5), to.GridConfig(resolution=64)).passed
        assert to.validate_copula(to.gaussian(-0.7), to.GridConfig(resolution=48)).passed


def copula_reference(u, v, rho, dps=40):
    """Gaussian copula C(u, v) in mpmath, integrating the angular form from -pi/2.

    Phi2(a, b; rho) = max(u + v - 1, 0) + (1/2pi) int_{-pi/2}^{asin rho} exp(...) dt
    with a = Phi^-1(u), b = Phi^-1(v); below the anti-diagonal only the
    integral is left, so nothing cancels for rho < 0 either.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        u, v = mpmath.mpf(u), mpmath.mpf(v)
        a, b = (mpmath.sqrt(2) * mpmath.erfinv(2 * x - 1) for x in (u, v))

        def integrand(t):
            return mpmath.exp(-(a * a - 2 * a * b * mpmath.sin(t) + b * b) / (2 * mpmath.cos(t) ** 2))

        integral = mpmath.quad(integrand, [-mpmath.pi / 2, mpmath.asin(mpmath.mpf(rho))])
        return float(max(u + v - 1, 0) + integral / (2 * mpmath.pi))


# s * w near the origin, and points at radius 1, which the local orders' sample reaches
TAIL_POINTS = [(s * w1, s * w2) for s in (1e-2, 1e-8, 1e-14) for w1, w2 in ((1, 1), (1, 0.5), (0.2, 1), (1, 1e-3))]
TAIL_POINTS += [(0.7071067811865476, 0.7071067811865476), (0.24253562503633297, 0.9701425001453319)]


class TestTailAccuracy:
    """The quadrature's accuracy pairs in the family table, which set the orders' thresholds."""

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_relative_error_for_positive_rho(self, rho):
        c = to.gaussian(rho)
        assert c.accuracy == (1e-13, 0.0)
        for u in TAIL_POINTS:
            want = copula_reference(*u, rho)
            assert abs(c.cdf(u) - want) <= 1e-13 * want, u

    @pytest.mark.parametrize("rho", [-0.3, -0.7])
    def test_only_absolute_error_for_negative_rho(self, rho):
        # Phi(a)Phi(b) and the negative integral cancel, so tail values are accurate only in absolute terms
        c = to.gaussian(rho)
        assert c.accuracy == (0.0, 4e-16)
        for u in TAIL_POINTS:
            assert abs(c.cdf(u) - copula_reference(*u, rho)) <= 4e-16, u
