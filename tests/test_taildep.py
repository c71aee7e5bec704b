import numpy as np
import pytest

import tailorder as to
from tailorder.taildep import LimitSchedule


class TestLimitSchedule:
    def test_defaults(self):
        s = LimitSchedule()
        scales = s.scales()
        assert scales[0] == 0.01 and len(scales) == 24
        assert np.all(np.diff(scales) < 0)

    def test_invariants(self):
        with pytest.raises(to.DomainError):
            LimitSchedule(s0=1.5)
        with pytest.raises(to.DomainError):
            LimitSchedule(ratio=1.0)
        with pytest.raises(to.DomainError):
            LimitSchedule(steps=2)

    def test_underflow_guard(self):
        with pytest.raises(to.DomainError):
            LimitSchedule(s0=1e-2, ratio=0.01, steps=200).scales()


class TestEstimateTDF:
    def test_product_goes_to_zero(self):
        est = to.estimate_tdf(to.independence(), (1.0, 1.0))
        assert est.converged
        assert est.value == pytest.approx(0.0, abs=1e-8)

    def test_comonotone_exact_along_trace(self):
        est = to.estimate_tdf(to.comonotone(), (0.3, 0.7))
        assert est.converged and est.error_estimate == 0.0
        assert all(r == pytest.approx(0.3, abs=1e-15) for _, r in est.trace)

    def test_clayton_limit(self):
        # trace is 1/(2 - s) -> 1/2; the closed form is the oracle
        est = to.estimate_tdf(to.archimedean(to.clayton_generator(1.0)), (1.0, 1.0))
        for s, r in est.trace:
            assert r == pytest.approx(1.0 / (2.0 - s), abs=1e-12)
        assert est.value == pytest.approx(0.5, abs=1e-4)
        assert est.converged

    def test_trace_ordered_by_decreasing_s(self):
        est = to.estimate_tdf(to.marshall_olkin(0.5), (1.0, 1.0))
        s_vals = [s for s, _ in est.trace]
        assert all(b < a for a, b in zip(s_vals, s_vals[1:]))

    def test_preconditions(self):
        c = to.independence()
        with pytest.raises(to.DomainError):
            to.estimate_tdf(c, (0.0, 0.0))
        with pytest.raises(to.DomainError):
            to.estimate_tdf(c, (-1.0, 1.0))
        with pytest.raises(to.DomainError):
            to.estimate_tdf(c, (200.0, 1.0))  # s0 * max(w) > 1
        with pytest.raises(to.DimensionError):
            to.estimate_tdf(c, (1.0, 1.0, 1.0))

    def test_gaussian_flagged_nonconverged(self):
        est = to.tdc(to.gaussian(0.5))
        assert not est.converged


class TestTDC:
    def test_comonotone_is_one(self):
        assert to.tdc(to.comonotone()).value == 1.0

    def test_marshall_olkin_vanishes(self):
        est = to.tdc(to.marshall_olkin(0.5))
        # trace follows s^(1-alpha)
        for s, r in est.trace:
            assert r == pytest.approx(s**0.5, abs=1e-12)
        assert est.value < 1e-4

    def test_clayton2_limit(self):
        est = to.tdc(to.archimedean(to.clayton_generator(2.0)))
        assert est.value == pytest.approx(2.0**-0.5, abs=1e-4)


class TestArchimedeanTDF:
    def test_zero_case(self):
        lam = to.archimedean_tdf(0.0)
        assert lam((0.3, 1.7)) == 0.0

    def test_infinite_case(self):
        lam = to.archimedean_tdf(float("inf"))
        assert lam((0.2, 0.9)) == pytest.approx(0.2)

    def test_finite_case(self):
        lam = to.archimedean_tdf(2.0)
        assert lam((1.0, 1.0)) == pytest.approx(2.0**-0.5)

    def test_axis_values_vanish(self):
        lam = to.archimedean_tdf(1.0)
        assert lam((0.0, 1.0)) == 0.0
        assert lam((0.0, 0.0)) == 0.0


class TestSimplexOps:
    def test_restriction_of_min(self):
        sec = to.simplex_restriction(to.min_tdf())
        t = np.linspace(0.0, 1.0, 101)
        assert np.abs(sec(t) - np.minimum(t, 1.0 - t)).max() < 1e-15

    def test_lift_parabola_value(self):
        lam = to.lift(to.parabola_section())
        assert lam((2.0, 2.0)) == pytest.approx(1.0)

    def test_lift_restriction_roundtrip(self):
        lam = to.archimedean_tdf(2.0)
        lifted = to.lift(to.simplex_restriction(lam))
        rng = np.random.default_rng(3)
        w = rng.uniform(0.0, 3.0, size=(500, 2))
        assert np.abs(lifted(w) - lam(w)).max() < 1e-12

    def test_tdc_from_simplex(self):
        assert to.tdc_from_simplex(to.min_section()) == pytest.approx(1.0)
        assert to.tdc_from_simplex(to.parabola_section()) == pytest.approx(0.5)
        assert to.tdc_from_simplex(to.capped_slope_section()) == pytest.approx(0.5)

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_simplex_directions_need_two_points_per_edge(self, dimension):
        assert to.simplex_directions(2, dimension).shape == (dimension, dimension)
        for n in (1, 0, -3):
            with pytest.raises(to.DomainError, match="n >= 2"):
                to.simplex_directions(n, dimension)

    def test_fig1_sections_agree_at_half_but_not_pointwise(self):
        parab, piece = to.parabola_section(), to.capped_slope_section()
        assert parab(0.5) == pytest.approx(piece(0.5))
        assert parab(0.2) > piece(0.2)   # 0.16 > 0.10
        assert parab(0.6) < piece(0.6)   # 0.24 < 0.30


class TestValidateTDF:
    def test_zero_passes(self):
        assert to.validate_tdf(to.zero_tdf()).passed

    def test_clayton_type_passes(self):
        assert to.validate_tdf(to.archimedean_tdf(2.0)).passed

    def test_min_and_lifts_pass(self):
        for lam in (to.min_tdf(), to.lift(to.parabola_section()), to.lift(to.capped_slope_section())):
            assert to.validate_tdf(lam).passed

    def test_non_homogeneous_fails_with_witness(self):
        broken = to.TailDepFunction(lambda pts: pts.min(axis=1) ** 2, 2, name="broken")
        report = to.validate_tdf(broken)
        assert not report.passed
        check = report.check("homogeneity")
        assert not check.passed and check.witness is not None

    def test_estimated_tdf_passes_up_to_estimator_error(self):
        lam = to.estimated_tdf(to.archimedean(to.clayton_generator(2.0)))
        assert lam.provenance == "estimated"
        assert to.validate_tdf(lam, to.GridConfig(resolution=16), tol=1e-2).passed


class TestExpansionResidual:
    def test_comonotone_exact(self):
        r = to.tail_expansion_residual(to.comonotone(), to.min_tdf(), (0.3, 0.7))
        assert r == 0.0

    def test_clayton_closed_form(self):
        c = to.archimedean(to.clayton_generator(1.0))
        lam = to.archimedean_tdf(1.0)
        s = 0.1
        r = to.tail_expansion_residual(c, lam, (s, s))
        assert r == pytest.approx(s / (4.0 * (2.0 - s)), abs=1e-12)
        assert r == pytest.approx(0.013157894736842105, abs=1e-9)

    def test_product_residual(self):
        r = to.tail_expansion_residual(to.independence(), to.zero_tdf(), (0.1, 0.1))
        assert r == pytest.approx(0.05)

    def test_zero_point_rejected(self):
        with pytest.raises(to.DomainError):
            to.tail_expansion_residual(to.independence(), to.zero_tdf(), (0.0, 0.0))


class TestRegularVariationIndex:
    def test_clayton(self):
        est = to.regular_variation_index(to.clayton_generator(2.0))
        assert est.converged and not est.degenerate
        assert est.value == pytest.approx(2.0, abs=1e-3)

    def test_gumbel_slowly_varying(self):
        est = to.regular_variation_index(to.gumbel_generator(2.0))
        assert est.value == pytest.approx(0.0, abs=1e-3)

    def test_joe_slowly_varying(self):
        est = to.regular_variation_index(to.joe_generator(2.0))
        assert est.value == pytest.approx(0.0, abs=1e-3)

    def test_nonstrict_degenerate(self):
        est = to.regular_variation_index(to.nonstrict_linear_generator())
        assert est.degenerate and est.value == 0.0

    def test_rapid_variation_reports_infinity(self):
        steep = to.Generator(
            phi=lambda t: np.exp(1.0 / t) - np.e, inverse=None, strict=True, rv_index_at_0=None
        )
        est = to.regular_variation_index(steep)
        assert np.isinf(est.value)


class TestSpearmanLimit:
    def test_zero(self):
        assert to.spearman_tdf_limit(to.zero_tdf()) == 0.0

    def test_min_equals_one(self):
        # brute-force oracle for the square integral of min
        g = (np.arange(2000) + 0.5) / 2000
        riemann = np.minimum.outer(g, g).mean()
        assert riemann == pytest.approx(1.0 / 3.0, abs=1e-4)
        assert to.spearman_tdf_limit(to.min_tdf()) == pytest.approx(1.0, abs=1e-9)

    def test_clayton_bound_dominates_tdc(self):
        lam = to.archimedean_tdf(1.0)
        val = to.spearman_tdf_limit(lam)
        # two-resolution agreement against a brute-force Riemann oracle
        g = (np.arange(4000) + 0.5) / 4000
        W = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        riemann = 3.0 * lam(W).mean()
        assert val == pytest.approx(riemann, abs=1e-3)
        assert val >= 0.5  # dominates lambda = 2^(-1/1)

    def test_dimension_guard(self):
        with pytest.raises(to.DomainError):
            to.spearman_tdf_limit(to.archimedean_tdf(1.0, 4))

    def test_d3_min_trips_agreement_gate(self):
        # the kinked face integrand cannot pass the 64-vs-96 gate in d = 3
        with pytest.raises(to.QuadratureError):
            to.spearman_tdf_limit(to.min_tdf(3))

    def test_d3_clayton(self):
        lam = to.archimedean_tdf(2.0, 3)
        val = to.spearman_tdf_limit(lam)
        assert val >= 3.0 ** (-1.0 / 2.0)  # dominates the d=3 coefficient


class TestEstimatedTDFWrapper:
    def test_matches_closed_form_on_rays(self):
        lam_hat = to.estimated_tdf(to.archimedean(to.clayton_generator(2.0)))
        lam = to.archimedean_tdf(2.0)
        for w in ((1.0, 1.0), (0.25, 0.75), (2.0, 3.0)):
            assert float(lam_hat(w)) == pytest.approx(float(lam(w)), abs=5e-3)
