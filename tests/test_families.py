import numpy as np
import pytest

import tailorder as to
from tailorder.families import _interval_min_gap


def grid_points(n=32):
    g = np.linspace(0.0, 1.0, n + 1)
    return np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)


class TestGenerators:
    def test_clayton_value(self):
        g = to.clayton_generator(1.0)
        assert g(0.5) == pytest.approx(1.0)
        assert g.strict and g.rv_index_at_0 == 1.0

    def test_nonstrict_flag(self):
        g = to.nonstrict_linear_generator()
        assert not g.strict
        assert g.phi_at_zero() == 1.0

    def test_joe_slowly_varying_ratio(self):
        # brute-force ratio test phi(ts)/phi(s) -> 1 at tiny scales
        g = to.joe_generator(2.0)
        for s in (1e-6, 1e-8):
            assert float(g(2 * s)) / float(g(s)) == pytest.approx(1.0, abs=2e-1)
        assert g.rv_index_at_0 == 0.0

    def test_gumbel_domain(self):
        with pytest.raises(to.DomainError):
            to.gumbel_generator(0.5)
        with pytest.raises(to.DomainError):
            to.clayton_generator(0.0)
        with pytest.raises(to.DomainError):
            to.joe_generator(0.9)

    def test_generators_decreasing_with_phi1_zero(self):
        t = np.linspace(1e-9, 1.0, 2001)
        for g in (to.clayton_generator(2.0), to.gumbel_generator(2.0),
                  to.joe_generator(2.0), to.nonstrict_linear_generator()):
            v = g(t)
            assert np.all(np.diff(v) < 0)
            assert abs(float(g(1.0))) < 1e-12


class TestGeneralizedInverse:
    def test_nonstrict_saturates(self):
        g = to.nonstrict_linear_generator()
        assert to.generalized_inverse(g, 2.0) == 0.0
        assert to.generalized_inverse(g, 1.0) == 0.0
        assert to.generalized_inverse(g, 0.25) == pytest.approx(0.75)

    def test_clayton_exact(self):
        assert to.generalized_inverse(to.clayton_generator(1.0), 1.0) == pytest.approx(0.5)
        # closed form (theta*x + 1)^(-1/theta)
        assert to.generalized_inverse(to.clayton_generator(2.0), 3.5) == pytest.approx(8.0**-0.5)

    def test_bisection_matches_closed_form(self):
        exact = to.clayton_generator(2.0)
        blind = to.Generator(phi=exact.phi, inverse=None, strict=True, rv_index_at_0=2.0)
        xs = np.geomspace(1e-6, 1e6, 50)
        a = to.generalized_inverse(exact, xs)
        b = to.generalized_inverse(blind, xs)
        assert np.abs(a - b).max() < 1e-12

    def test_bisection_rejects_nonmonotone(self):
        # no crossing exists: min phi = 0.2, so bisection cannot bracket x = 0.1
        bad = to.Generator(phi=lambda t: np.abs(t - 0.5) + 0.2, inverse=None, strict=False, rv_index_at_0=None)
        with pytest.raises(to.DomainError):
            to.generalized_inverse(bad, 0.1)

    def test_roundtrip_all_families(self):
        # x capped where the inverse stays representable in double precision
        x = np.geomspace(1e-8, 20.0, 200)
        for g in (to.clayton_generator(0.5), to.clayton_generator(4.0),
                  to.gumbel_generator(3.0), to.joe_generator(2.0)):
            t = to.generalized_inverse(g, x)
            resid = np.abs(np.asarray(g(t)) - x) / np.maximum(1.0, x)
            assert resid.max() < 5e-9, g.name


class TestArchimedean:
    def test_nonstrict_is_lower_frechet(self):
        c = to.archimedean(to.nonstrict_linear_generator())
        assert c.eval((0.3, 0.4)) == 0.0
        pts = grid_points(32)
        want = np.maximum(pts.sum(axis=1) - 1.0, 0.0)
        assert np.abs(np.asarray(c.cdf(pts)) - want).max() < 1e-15

    def test_clayton2_value(self):
        c = to.archimedean(to.clayton_generator(2.0))
        assert c.eval((0.5, 0.5)) == pytest.approx(7.0**-0.5, abs=1e-15)

    def test_trivariate_margins(self):
        c = to.archimedean(to.clayton_generator(1.0), 3)
        assert c.eval((1.0, 1.0, 0.7)) == 0.7

    def test_gumbel_one_is_product(self):
        c = to.archimedean(to.gumbel_generator(1.0))
        pts = grid_points(16)
        assert np.abs(np.asarray(c.cdf(pts)) - pts.prod(axis=1)).max() < 1e-14


class TestMarshallOlkin:
    def test_on_singular_curve(self):
        m = to.marshall_olkin(0.5)
        t = 0.04
        assert m.eval((t, t**0.5)) == pytest.approx(t, abs=1e-16)

    def test_margin(self):
        assert to.marshall_olkin(0.5).eval((0.25, 1.0)) == 0.25

    def test_formula(self):
        assert to.marshall_olkin(0.5).eval((0.25, 0.25)) == pytest.approx(0.125)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(to.DomainError):
                to.marshall_olkin(bad)


class TestDiagonals:
    def test_identity_passes(self):
        assert to.validate_diagonal(to.power_diagonal(1.0)).passed

    def test_sqrt_fails_domination(self):
        bad = to.DiagonalSection(lambda t: np.sqrt(t))
        report = to.validate_diagonal(bad)
        assert not report.passed
        assert not report.check("dominated").passed

    def test_square_passes_with_lipschitz(self):
        report = to.validate_diagonal(to.power_diagonal(2.0))
        assert report.passed
        assert report.check("lipschitz").passed

    def test_semilinear_conditions(self):
        assert to.validate_semilinear_diagonal(to.power_diagonal(1.5)).passed
        # the lower-Frechet diagonal is valid but delta(t)/t^2 increases on (1/2, 1)
        hockey = to.DiagonalSection(lambda t: np.maximum(0.0, 2.0 * t - 1.0))
        assert to.validate_diagonal(hockey).passed
        report = to.validate_semilinear_diagonal(hockey)
        assert not report.check("ratio_sq_decreasing").passed
        with pytest.raises(to.DomainError):
            to.semilinear(hockey)


class TestDiagonalConstructions:
    def test_fredricks_nelsen_identity_diagonal(self):
        c = to.fredricks_nelsen(to.power_diagonal(1.0))
        pts = grid_points(32)
        assert np.abs(np.asarray(c.cdf(pts)) - pts.min(axis=1)).max() < 1e-15

    def test_bertino_square_value(self):
        c = to.bertino(to.power_diagonal(2.0))
        # minimize t - t^2 over [0.3, 0.4]: endpoint minimum 0.21 at t = 0.3
        scan = np.linspace(0.3, 0.4, 100_001)
        inner = float((scan - scan**2).min())
        assert inner == pytest.approx(0.21, abs=1e-9)
        assert c.eval((0.3, 0.4)) == pytest.approx(0.3 - inner, abs=1e-11)

    def test_semilinear_square_is_product(self):
        c = to.semilinear(to.power_diagonal(2.0))
        pts = grid_points(32)
        assert np.abs(np.asarray(c.cdf(pts)) - pts.prod(axis=1)).max() < 1e-15

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_diagonals_reproduced(self, p):
        delta = to.power_diagonal(p)
        t = np.linspace(0.0, 1.0, 257)
        for c in (to.fredricks_nelsen(delta), to.bertino(delta)):
            assert np.abs(np.asarray(c.diagonal(t)) - delta(t)).max() < 1e-9
        sl = to.semilinear(delta)
        # exact by construction up to one rounding of t * (delta(t)/t)
        assert np.abs(np.asarray(sl.diagonal(t)) - delta(t)).max() <= 1e-15

    def test_fn_dominates_bertino(self):
        delta = to.power_diagonal(1.5)
        fn = to.fredricks_nelsen(delta)
        bert = to.bertino(delta)
        pts = grid_points(64)
        assert float((np.asarray(bert.cdf(pts)) - np.asarray(fn.cdf(pts))).max()) <= 1e-9

    def test_invalid_diagonal_rejected(self):
        bad = to.DiagonalSection(lambda t: np.sqrt(t))
        for make in (to.fredricks_nelsen, to.bertino, to.semilinear):
            with pytest.raises(to.DomainError):
                make(bad)


def seeded_batches(seed=20221013, n=2048):
    """Uniform interior rows, log-uniform tail rows, and rows on the boundary."""
    rng = np.random.default_rng(seed)
    return {
        "interior": rng.uniform(0.0, 1.0, size=(n, 2)),
        "tail": np.exp(rng.uniform(np.log(1e-10), np.log(1e-1), size=(n, 2))),
        "boundary": np.concatenate([
            np.stack([np.zeros(256), rng.uniform(size=256)], axis=1),
            np.stack([rng.uniform(size=256), np.ones(256)], axis=1),
            rng.choice([0.0, 0.25, 0.5, 1.0], size=(256, 2)),
        ]),
    }


# valid but not convex: t - delta(t) dips to 0 on [0.2, 0.5], inside the interval
ZIGZAG = ([0.0, 0.1, 0.2, 0.5, 0.75, 1.0], [0.0, 0.0, 0.2, 0.5, 0.5, 1.0])


class TestBertinoEndpoint:
    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 1.75, 2.0])
    @pytest.mark.parametrize("batch", ["interior", "tail", "boundary"])
    def test_endpoint_matches_scan_bit_for_bit(self, p, batch):
        delta = to.power_diagonal(p)
        assert delta.convex
        pts = seeded_batches()[batch]
        lo, hi = pts.min(axis=1), pts.max(axis=1)
        scanned = lo - _interval_min_gap(delta, lo, hi)
        np.testing.assert_array_equal(lo - np.minimum(lo - delta(lo), hi - delta(hi)), scanned)
        # the same diagonal without the convex mark takes the scan
        unmarked = to.DiagonalSection(delta.delta, name="power", params={"p": p})
        np.testing.assert_array_equal(to.bertino(delta).cdf(pts), to.bertino(unmarked).cdf(pts))

    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 1.75, 2.0])
    def test_minimum_at_the_lower_end_is_the_diagonal_itself(self, p):
        delta = to.power_diagonal(p)
        unmarked = to.DiagonalSection(delta.delta, name="power", params={"p": p})
        t = np.geomspace(1e-12, 0.5, 200)
        for c in (to.bertino(delta), to.bertino(unmarked)):
            # on the diagonal, and near the origin where t - delta(t) increases
            assert np.array_equal(c.cdf(np.stack([t, t], axis=1)), delta(t))
            assert np.array_equal(c.cdf(np.stack([t, 1.5 * t], axis=1))[t < 1e-3], delta(t)[t < 1e-3])

    def test_nonconvex_diagonal_uses_the_scan(self):
        delta = to.DiagonalSection(lambda t: np.interp(t, *ZIGZAG))
        assert not delta.convex and to.validate_diagonal(delta).passed
        lo, hi = 0.15, 0.6
        assert lo - min(lo - delta(lo), hi - delta(hi)) == pytest.approx(0.10, abs=1e-15)
        assert to.bertino(delta).eval((lo, hi)) == pytest.approx(0.15, abs=1e-12)

    @pytest.mark.parametrize("delta", [lambda t: np.interp(t, *ZIGZAG), np.sqrt])
    def test_false_convex_claim_is_rejected(self, delta):
        with pytest.raises(to.DomainError, match="convex"):
            to.DiagonalSection(delta, convex=True)


class TestExtremeValue:
    def test_zero_gives_product(self):
        c = to.ev_copula(to.zero_tdf())
        pts = grid_points(32)
        assert np.abs(np.asarray(c.cdf(pts)) - pts.prod(axis=1)).max() < 1e-12

    def test_min_gives_comonotone(self):
        c = to.ev_copula(to.min_tdf())
        pts = grid_points(32)
        assert np.abs(np.asarray(c.cdf(pts)) - pts.min(axis=1)).max() < 1e-12

    def test_clayton_type_value(self):
        c = to.ev_copula(to.archimedean_tdf(2.0))
        want = 2.0 ** (-2.0 + 2.0**-0.5)
        assert c.eval((0.5, 0.5)) == pytest.approx(want, abs=1e-14)

    def test_invalid_tdf_rejected(self):
        broken = to.TailDepFunction(lambda pts: pts.min(axis=1) ** 2, 2, name="broken")
        with pytest.raises(to.DomainError):
            to.ev_copula(broken)

    def test_lower_is_survival_of_upper(self):
        # lower_ev_copula evaluates the survival copula in a form that does not
        # cancel near the origin, so the two agree to rounding, not bit for bit
        lam = to.lift(to.parabola_section())
        lev = to.lower_ev_copula(lam)
        ref = to.survival(to.ev_copula(lam))
        pts = grid_points(32)
        assert np.abs(np.asarray(lev.cdf(pts)) - np.asarray(ref.cdf(pts))).max() < 1e-15

    @pytest.mark.parametrize("theta", [1.0, 2.0])
    @pytest.mark.parametrize("u", [1e-10, 1e-8, 1e-6])
    def test_lower_keeps_relative_precision_in_the_tail(self, u, theta):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        lev = to.lower_ev_copula(to.archimedean_tdf(theta))
        for v in (u, 2.0 * u, 3.0 * u):
            a, b = mpmath.mpf(u), mpmath.mpf(v)
            x, y = -mpmath.log1p(-a), -mpmath.log1p(-b)
            lam = (x**-theta + y**-theta) ** (-1 / mpmath.mpf(theta))
            want = a + b - 1 + (1 - a) * (1 - b) * mpmath.exp(lam)
            assert lev.eval((u, v)) == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_lower_keeps_the_tdf_audit(self):
        broken = to.TailDepFunction(lambda pts: pts.min(axis=1) ** 2, 2, name="broken")
        with pytest.raises(to.DomainError):
            to.lower_ev_copula(broken)
        to.lower_ev_copula(broken, validate=False)
        with pytest.raises(to.DimensionError):
            to.lower_ev_copula(to.archimedean_tdf(2.0, dimension=3))


class TestHierarchical:
    def test_product_nodes_give_trivariate_product(self):
        pi2 = to.archimedean(to.gumbel_generator(1.0))
        h = to.hierarchical(pi2, pi2)
        g = np.linspace(0.0, 1.0, 9)
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        assert np.abs(np.asarray(h.cdf(pts)) - pts.prod(axis=1)).max() < 1e-14

    def test_margins(self):
        h = to.hierarchical(
            to.archimedean(to.clayton_generator(1.0)),
            to.archimedean(to.clayton_generator(2.0)),
        )
        assert h.eval((1.0, 1.0, 0.4)) == 0.4

    def test_nested_composition(self):
        outer = to.archimedean(to.clayton_generator(1.0))
        inner = to.archimedean(to.clayton_generator(2.0))
        h = to.hierarchical(outer, inner)
        want = outer.eval((0.5, inner.eval((0.5, 0.5))))
        assert h.eval((0.5, 0.5, 0.5)) == pytest.approx(want, abs=1e-15)

    def test_nesting_condition(self):
        with pytest.raises(to.DomainError):
            to.hierarchical(
                to.archimedean(to.clayton_generator(2.0)),
                to.archimedean(to.clayton_generator(1.0)),
            )

    def test_non_archimedean_rejected(self):
        with pytest.raises(to.DomainError):
            to.hierarchical(to.independence(), to.independence())

    def test_valid_at_64(self):
        h = to.hierarchical(
            to.archimedean(to.clayton_generator(1.0)),
            to.archimedean(to.clayton_generator(2.0)),
        )
        assert to.validate_copula(h, to.GridConfig(resolution=64)).passed
