from itertools import product

import numpy as np
import pytest

import tailorder as to
from tailorder import core, taildep
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
        for _ in range(2):  # an underflowing schedule is never cached
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

    def test_the_cap_counts_directions_times_steps(self):
        # a product copula that records the rows its formula sees: a refused batch never reaches it
        seen = []
        c = to.Copula(2, lambda p: seen.append(p.shape[0]) or p[:, 0] * p[:, 1], {"family": "spy", "params": {}})
        sched = LimitSchedule(0.01, 0.5, 100)
        n = core.MAX_POINTS // sched.steps
        to.estimate_tdfs(c, np.full((n, 2), 0.5), sched)
        assert sum(seen) == core.MAX_POINTS
        seen.clear()
        with pytest.raises(to.DomainError, match="schedule too large"):
            to.estimate_tdfs(c, np.full((n + 1, 2), 0.5), sched)
        assert seen == []

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

    @staticmethod
    def scaled_everywhere(pts, a):
        """Clayton's Lambda with the row minimum taken over every row, and the scaled form on every finite row
        whose sum is infinite or below the normal range: the bits archimedean_tdf must keep."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            total = (pts ** -a).sum(axis=1)
            out = total ** (-1.0 / a)
            m = pts.min(axis=1)
            rows = ((total < np.finfo(float).tiny) | np.isinf(total)) & (m > 0.0)
            out[rows] = m[rows] * ((pts[rows] / m[rows, None]) ** -a).sum(axis=1) ** (-1.0 / a)
        return np.where(np.isfinite(out), out, 0.0)

    @pytest.mark.parametrize("alpha", [0.002, 0.01, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 100.0])
    def test_values_are_those_of_the_scaled_form_on_every_row(self, alpha):
        # the check_tdo grids (face points included), the 1e-300 rows of tests/test_accuracy.py and an empty batch;
        # at alpha = 2 the sum at (1e160, 1e160) is subnormal
        faces = np.array([[0.0, 1.0], [1e-320, 1.0], [np.nan, 0.5], [1e300, 1e300], [1e160, 1e160], [0.0, 0.0]])
        d16 = 10.0 ** np.random.default_rng([31, int(alpha)]).uniform(-300.0, 0.0, size=(400, 2))
        for pts in (taildep.simplex_directions(65, 2), taildep.simplex_directions(65, 3), d16, faces, faces[:0]):
            got = to.archimedean_tdf(alpha, pts.shape[1]).fn(pts)
            assert np.array_equal(got.view(np.int64), self.scaled_everywhere(pts, alpha).view(np.int64))

    @pytest.mark.parametrize("d", [2, 3])
    def test_pairs_and_breakpoints(self, d):
        for alpha in (0.0, 1e-3, 0.01, 0.5, 2.0, float("inf")):
            lam = to.archimedean_tdf(alpha, d)
            rel = 1e-14 if alpha in (0.0, float("inf")) else max(1e-14, 2 * core.ULP / alpha)
            assert lam.accuracy == (rel, 0.0) and lam.name == "clayton" and lam.params == {"alpha": alpha}
            assert lam.breakpoints == ((0.5,) if alpha == float("inf") and d == 2 else ())


class TestSimplexOps:
    def test_restriction_of_min(self):
        sec = to.simplex_restriction(to.min_tdf())
        t = np.linspace(0.0, 1.0, 101)
        assert np.abs(sec(t) - np.minimum(t, 1.0 - t)).max() < 1e-15

    def test_fig1_closed_forms(self):
        w = np.array([[2.0, 2.0], [3.0, 1.0], [0.0, 0.0], [0.0, 5.0], [5.0, 0.0], [1.2, 0.4]])
        np.testing.assert_array_equal(to.fig1_parabola()(w), [1.0, 0.75, 0.0, 0.0, 0.0, 0.3])
        np.testing.assert_array_equal(to.fig1_piecewise()(w), [1.0, 1.0, 0.0, 0.0, 0.0, 0.4])
        assert to.fig1_piecewise().breakpoints == (2.0 / 3.0,)

    def test_tdc_from_simplex(self):
        for lam, tdc in ((to.min_tdf(), 1.0), (to.fig1_parabola(), 0.5), (to.fig1_piecewise(), 0.5)):
            assert to.tdc_from_simplex(to.simplex_restriction(lam)) == tdc

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_simplex_directions_need_two_points_per_edge(self, dimension):
        assert to.simplex_directions(2, dimension).shape == (dimension, dimension)
        assert to.simplex_size(2, dimension) == dimension
        for n in (1, 0, -3):
            for build in (to.simplex_directions, to.simplex_size):
                with pytest.raises(to.DomainError, match="n >= 2"):
                    build(n, dimension)

    def test_fig1_sections_agree_at_half_but_not_pointwise(self):
        parab, piece = map(to.simplex_restriction, (to.fig1_parabola(), to.fig1_piecewise()))
        assert parab(0.5) == pytest.approx(piece(0.5))
        assert parab(0.2) > piece(0.2)   # 0.16 > 0.10
        assert parab(0.6) < piece(0.6)   # 0.24 < 0.30


class TestValidateTDF:
    REGISTRY = [pytest.param(to.archimedean_tdf(a, d), id=f"clayton-{a}-d{d}")
                for a in (0.5, 2.0, 10.0) for d in (2, 3)]
    REGISTRY += [pytest.param(lam, id=lam.name) for lam in (
        to.min_tdf(), to.zero_tdf(), to.fig1_parabola(), to.fig1_piecewise())]

    # one function per check that breaks it; other checks may fail too
    BROKEN = {
        "bounds": lambda p: 2.0 * p.min(axis=1),
        "d_increasing": lambda p: p.min(axis=1) - p[:, 0] * p[:, 1] / np.maximum(p.sum(axis=1), 1e-300),
        "homogeneity": lambda p: np.minimum(p.min(axis=1), 1.0),
        "lipschitz": lambda p: np.minimum(p.min(axis=1), np.maximum(0.0, 3.0 * (p.min(axis=1) - 1.0))),
        "concavity": lambda p: p.min(axis=1) ** 2 / 4.0,
    }

    @pytest.mark.parametrize("resolution", [16, 64])
    @pytest.mark.parametrize("lam", REGISTRY)
    def test_registry_passes(self, lam, resolution):
        assert to.validate_tdf(lam, to.GridConfig(resolution=resolution)).passed

    @pytest.mark.parametrize("resolution", [16, 64])
    @pytest.mark.parametrize("check", sorted(BROKEN))
    def test_each_check_catches_a_violation(self, check, resolution):
        broken = to.TailDepFunction(self.BROKEN[check], 2, name=f"breaks-{check}")
        report = to.validate_tdf(broken, to.GridConfig(resolution=resolution))
        assert not report.check(check).passed and report.check(check).worst > 1e-9
        assert report.check(check).witness is not None
        with pytest.raises(to.DomainError, match=check):
            report.require("invalid tail dependence function")

    @pytest.mark.parametrize("check", sorted(BROKEN))
    def test_builders_reject_each_violation(self, check):
        broken = to.TailDepFunction(self.BROKEN[check], 2, name=f"breaks-{check}")
        for build in (to.ev_copula, to.lower_ev_copula):  # each audits at resolution 16
            with pytest.raises(to.DomainError, match=check):
                build(broken)

    def test_non_homogeneous_fails_with_witness(self):
        broken = to.TailDepFunction(lambda pts: pts.min(axis=1) ** 2, 2, name="broken")
        report = to.validate_tdf(broken)
        assert not report.passed
        check = report.check("homogeneity")
        assert not check.passed and check.witness is not None

    def test_sample_is_deterministic(self):
        for lam in (to.fig1_piecewise(), to.TailDepFunction(self.BROKEN["lipschitz"], 2)):
            assert to.validate_tdf(lam) == to.validate_tdf(lam)

    def test_estimated_tdf_passes_up_to_estimator_error(self):
        lam = to.estimated_tdf(to.archimedean(to.clayton_generator(2.0)))
        assert lam.name == "estimated"
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

    @pytest.mark.parametrize("axis", [1, 2])
    def test_glued_min_keeps_its_kink(self, axis):
        # M glued at 1/2 has the tail min(w1, w2/2) or min(w1/2, w2), kinked at t = 1/3 or 2/3 of the simplex,
        # and 3 * integral of min(x, y/2) over the square is 3 * (1/4 - 1/24) = 5/8
        lam = to.glue(to.comonotone(), to.independence(), axis, 0.5).tdf
        assert lam.breakpoints == pytest.approx([(1.0 / 3.0, 2.0 / 3.0)[axis - 1]], abs=1e-15)
        assert to.spearman_tdf_limit(lam) == pytest.approx(0.625, abs=1e-12)

    @pytest.mark.parametrize("lam", [to.min_tdf(3), to.archimedean_tdf(float("inf"), 3)], ids=["min", "alpha-inf"])
    def test_d3_min_equals_one(self, lam):
        # (d+1) * integral of min over the cube is 1; each face is cut along its kink t1 = t2
        assert to.spearman_tdf_limit(lam) == pytest.approx(1.0, abs=1e-12)

    def test_d3_rough_face_trips_agreement_gate(self):
        # min(2 w1, w2, w3) kinks along 2 w1 = w3 on the face w2 = 1, a line no rule cuts
        lam = to.TailDepFunction(lambda p: np.minimum(2.0 * p[:, 0], p[:, 1:].min(axis=1)), 3)
        with pytest.raises(to.QuadratureError):
            to.spearman_tdf_limit(lam)

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


class TestSimplexLattice:
    @pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (65, 3), (2, 4), (6, 4), (4, 5)])
    def test_matches_the_loop_in_lexicographic_order(self, n, d):
        m = n - 1
        expected = [(*(i / m for i in head), (m - sum(head)) / m)
                    for head in product(range(n), repeat=d - 1) if sum(head) <= m]
        assert [tuple(x) for x in to.simplex_directions(n, d)] == expected
        assert to.simplex_size(n, d) == len(expected)

    def test_dimension_below_two_rejected(self):
        with pytest.raises(to.DimensionError):
            to.simplex_directions(3, 1)


def _spearman_per_face(lam, n):
    """The d = 3 collapsed rule with one call of lam per face triangle, in the order of the slots."""
    m = round(n / 2**0.5)
    x, w = taildep._gauss_legendre_01(m)
    X, Y = np.meshgrid(x, x, indexing="ij")
    hi, lo = X.reshape(-1), (X * Y).reshape(-1)
    W = np.outer(w * x, w).reshape(-1)
    total = 0.0
    for slot in range(3):
        rest = [k for k in range(3) if k != slot]
        for a, b in ((hi, lo), (lo, hi)):
            pts = np.empty((m * m, 3))
            pts[:, slot], pts[:, rest[0]], pts[:, rest[1]] = 1.0, a, b
            total += float(np.dot(W, lam(pts)))
    return total


class TestCachedGrids:
    """Schedules and quadrature grids are built once per key and shared read-only, with every value unchanged."""

    def test_schedule_scales_are_cached_per_key(self):
        scales = LimitSchedule().scales()
        assert LimitSchedule(1e-2, 0.5, 24).scales() is scales and not scales.flags.writeable
        assert scales.tobytes() == (1e-2 * 0.5 ** np.arange(24)).tobytes()
        assert LimitSchedule(1e-2, 0.5, 25).scales() is not scales

    def test_warm_estimates_equal_cold(self):
        c, dirs = to.archimedean(to.clayton_generator(2.0)), to.simplex_directions(11)[1:-1]
        warm = to.estimate_tdfs(c, dirs)
        taildep._scales.cache_clear()
        cold = to.estimate_tdfs(c, dirs)
        assert cold.scales is not warm.scales
        for a, b in zip(warm, cold):
            assert a.tobytes() == b.tobytes()
        # the last successive difference, taken by slicing, is np.diff's
        assert cold.error_estimate.tobytes() == np.abs(np.diff(cold.ratios, axis=1))[:, -1].tobytes()

    @pytest.mark.parametrize("lam", [
        to.archimedean_tdf(0.5, 3), to.archimedean_tdf(2.0, 3), to.archimedean_tdf(10.0, 3), to.min_tdf(3),
        to.estimated_tdf(to.archimedean(to.clayton_generator(2.0), 3), LimitSchedule(1e-2, 0.5, 8)),
        # no symmetry, so each face contributes its own value and the order of the sum shows
        to.TailDepFunction(lambda p: p[:, 0] * p[:, 1] ** 2 * np.sqrt(p[:, 2]) + 1e-3 * p[:, 2], 3),
    ], ids=["clayton-alpha0.5", "clayton-alpha2", "clayton-alpha10", "min", "estimated", "asymmetric"])
    def test_d3_faces_in_one_call_match_one_call_per_face(self, lam):
        for n in (64, 96):
            assert taildep._spearman_value(lam, 3, n) == _spearman_per_face(lam, n)

    def test_d3_one_lam_call_per_rule(self):
        calls = []
        lam = to.archimedean_tdf(2.0, 3)
        counted = to.TailDepFunction(lambda p: calls.append(p.shape) or lam.fn(p), 3)
        assert to.spearman_tdf_limit(counted) == to.spearman_tdf_limit(lam)
        assert calls == [(6 * 45**2, 3), (6 * 68**2, 3)]

    def test_spearman_faces_are_cached(self):
        pts, W = taildep._spearman_faces(45)
        assert taildep._spearman_faces(45)[0] is pts and not pts.flags.writeable and not W.flags.writeable
        warm = to.spearman_tdf_limit(to.archimedean_tdf(2.0, 3))
        taildep._spearman_faces.cache_clear()
        assert to.spearman_tdf_limit(to.archimedean_tdf(2.0, 3)) == warm
