import time

import numpy as np
import pytest

import tailorder as to
from tailorder import orders


def clayton(theta, d=2):
    return to.archimedean(to.clayton_generator(theta), d)


@pytest.fixture
def cdf_calls(monkeypatch):
    """Ids of the copulas whose ``cdf`` is called, one entry per call."""
    calls = []
    original = to.Copula.cdf

    def counting(self, u):
        calls.append(id(self))
        return original(self, u)

    monkeypatch.setattr(to.Copula, "cdf", counting)
    return calls


class TestCheckTDO:
    def test_zero_strictly_below_min(self):
        v = to.check_tdo(to.zero_tdf(), to.min_tdf())
        assert v.status == to.HOLDS_STRICTLY
        assert v.margin > 1e-6

    def test_clayton_indices_strictly_ordered(self):
        v = to.check_tdo(to.archimedean_tdf(1.0), to.archimedean_tdf(2.0))
        assert v.status == to.HOLDS_STRICTLY

    def test_fig1_pair_not_ordered(self):
        # the two sections cross: 0.16 > 0.10 at t=0.2 and 0.24 < 0.30 at t=0.6
        v = to.check_tdo(to.lift(to.parabola_section()), to.lift(to.capped_slope_section()))
        assert v.status == to.FAILS and v.witness is not None
        rev = to.check_tdo(to.lift(to.capped_slope_section()), to.lift(to.parabola_section()))
        assert rev.status == to.FAILS

    def test_equal_functions_indistinguishable(self):
        v = to.check_tdo(to.archimedean_tdf(2.0), to.archimedean_tdf(2.0))
        assert v.status == to.INDISTINGUISHABLE

    def test_dimension_guard(self):
        with pytest.raises(to.DimensionError):
            to.check_tdo(to.zero_tdf(2), to.min_tdf(3))

    def test_resolution_floor(self):
        with pytest.raises(to.DomainError):
            to.check_tdo(to.zero_tdf(), to.min_tdf(), to.GridConfig(resolution=4))


class TestCheckLoc:
    def test_product_below_comonotone(self):
        assert to.check_loc(to.independence(), to.comonotone(), 0.5).status == to.HOLDS

    def test_marshall_olkin_fails_with_curve_witness(self):
        mo = to.marshall_olkin(0.5)
        v = to.check_loc(mo, clayton(1.0), 0.1)
        assert v.status == to.FAILS
        u1, u2 = v.witness["point"]
        # the violation sits above the singular curve u2 = sqrt(u1)
        assert u2 >= np.sqrt(u1) - 1e-9
        assert v.witness["lhs"] > v.witness["rhs"]

    def test_clayton_pair_ordered(self):
        assert to.check_loc(clayton(1.0), clayton(2.0), 0.2).status == to.HOLDS

    def test_self_comparison_indistinguishable(self):
        assert to.check_loc(clayton(1.0), clayton(1.0), 0.2).status == to.INDISTINGUISHABLE

    def test_halving_search_discovers_epsilon(self):
        v = to.check_loc(clayton(1.0), clayton(2.0))
        assert v.holds and v.epsilon == 1.0  # global order, first radius verifies

    def test_epsilon_domain(self):
        with pytest.raises(to.DomainError):
            to.check_loc(to.independence(), to.comonotone(), 3.0)


class TestLocalSampler:
    """The log-polar sample of the local orders on the paper's own examples."""

    def test_marshall_olkin_fails_at_every_searched_radius(self):
        mo, c1 = to.marshall_olkin(0.5), clayton(1.0)
        v = to.check_loc(mo, c1)
        assert v.status == to.FAILS and v.epsilon is None
        # the witness sits at the smallest sampled radius, above the curve u2 = sqrt(u1)
        u1, u2 = v.witness["point"]
        smallest = 2.0**-21.5
        assert np.hypot(u1, u2) == pytest.approx(smallest, rel=1e-12)
        assert f"{smallest:.6g}" in v.note
        assert u2 >= np.sqrt(u1) and v.witness["lhs"] > v.witness["rhs"]
        for k in range(21):
            assert to.check_loc(mo, c1, 2.0**-k).status == to.FAILS, k

    @pytest.mark.parametrize("c1, c2", [
        (to.comonotone(), to.independence()),
        (clayton(2.0), clayton(1.0)),
        (to.lower_ev_copula(to.lift(to.parabola_section())), to.lower_ev_copula(to.lift(to.capped_slope_section()))),
        (to.lower_ev_copula(to.lift(to.capped_slope_section())), to.lower_ev_copula(to.lift(to.parabola_section()))),
    ], ids=["comonotone-independence", "clayton2-clayton1", "fig1-parabola-piecewise", "fig1-piecewise-parabola"])
    def test_reversed_and_crossing_pairs_fail(self, c1, c2):
        v = to.check_loc(c1, c2)
        assert v.status == to.FAILS and v.witness["lhs"] > v.witness["rhs"]

    @pytest.mark.parametrize("d, budget", [(3, 18_000), (4, 50_000)])
    def test_clayton_pairs_in_higher_dimension(self, d, budget):
        lo, hi = clayton(1.0, d), clayton(2.0, d)
        start = time.perf_counter()
        up, down = to.check_loc(lo, hi), to.check_loc(hi, lo)
        assert time.perf_counter() - start < 5.0  # loose: the point budget is what keeps it fast
        assert up.status == to.HOLDS and up.epsilon == 1.0
        assert down.status == to.FAILS
        assert len(up.samples.points) == len(down.samples.points) <= budget

    @pytest.mark.parametrize("p", [1.25, 1.5, 1.75, 2.0])
    @pytest.mark.parametrize("epsilon", [None, 0.5])
    def test_bertino_below_fredricks_nelsen(self, p, epsilon):
        # the two share the diagonal, where the sample has exact points u1 = u2
        delta = to.power_diagonal(p)
        v = to.check_loc(to.bertino(delta), to.fredricks_nelsen(delta), epsilon)
        assert v.status == to.HOLDS and v.epsilon == (epsilon or 1.0)

    def test_threshold_is_relative(self):
        v = to.check_loc(clayton(1.0), clayton(2.0))
        assert v.tau == orders.KAPPA == 1e-12 and "relative" in v.note

    @pytest.mark.parametrize("check", [
        lambda c1, c2: to.check_loc(c1, c2),
        lambda c1, c2: to.check_loc(c1, c2, 0.2),
        lambda c1, c2: to.check_cone_order(c1, c2, to.ConeSpec(0.2)),
        lambda c1, c2: to.check_cone_order(c1, c2, to.ConeSpec(0.001), 0.05),
    ], ids=["loc-searched", "loc-eps", "cone-searched", "cone-eps"])
    def test_one_cdf_batch_per_copula(self, cdf_calls, check):
        c1, c2 = to.marshall_olkin(0.5), clayton(1.0)
        v = check(c1, c2)
        assert sorted(cdf_calls) == sorted([id(c1), id(c2)])
        assert len(v.samples.points) == len(v.samples.lhs) == len(v.samples.scale) <= 3500

    def test_margin_uses_the_verified_radii_only(self):
        # Gumbel exceeds Clayton(1) far from the origin, so the search stops below that
        v = to.check_loc(to.archimedean(to.gumbel_generator(2.0)), clayton(1.0))
        assert v.status == to.HOLDS and v.epsilon == 0.25
        s = v.samples
        on_ball = s.scale <= v.epsilon
        assert not on_ball.all()
        assert v.margin == float((s.rhs - s.lhs)[on_ball].min()) > 0.0

    def test_margin_leaves_out_points_where_both_sides_vanish(self):
        # both sides are 0 on the simplex corner ||u||_1 < 0.1 and ordered elsewhere
        def scaled_min(k):
            return to.copula_from_formula(
                2, lambda p: np.where(p.sum(axis=1) < 0.1, 0.0, k * p.min(axis=1)), {"family": "test"})

        v = to.check_loc(scaled_min(0.5), scaled_min(1.0), 0.5)
        assert v.status == to.HOLDS and v.margin > 0.0
        assert ((v.samples.lhs == 0.0) & (v.samples.rhs == 0.0)).any()

    def test_direction_table_is_cached_per_dimension(self):
        assert orders._local_directions(2) is orders._local_directions(2)
        dirs = orders._local_directions(3)
        assert dirs.shape == (397, 3) and not dirs.flags.writeable
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0) and (dirs > 0).all()


class TestCheckToo:
    def test_product_below_comonotone(self):
        results = to.check_too(to.independence(), to.comonotone(), directions=[(1.0, 1.0)])
        assert results[0][1].status == to.HOLDS

    def test_glued_joe_conversely_ordered(self):
        joe = to.archimedean(to.joe_generator(2.0))
        c1 = to.glue(joe, to.comonotone(), 1, 0.5)
        c2 = to.glue(joe, to.comonotone(), 2, 0.5)
        forward = dict.fromkeys(["a", "b"])
        [(w1, va), (w2, vb)] = to.check_too(c1, c2, directions=[(0.5, 1.0), (1.0, 0.5)])
        assert va.status == to.FAILS     # C1 > C2 along (1/2, 1)
        assert vb.status == to.HOLDS     # C1 < C2 along (1, 1/2)
        [(w1, ra), (w2, rb)] = to.check_too(c2, c1, directions=[(0.5, 1.0), (1.0, 0.5)])
        assert ra.status == to.HOLDS
        assert rb.status == to.FAILS

    def test_clayton_ray(self):
        results = to.check_too(clayton(1.0), clayton(2.0), directions=[(1.0, 2.0)])
        v = results[0][1]
        assert v.status == to.HOLDS
        # oracle: closed forms along the ray from the anchored largest scale
        s = 0.5 * 0.5 ** np.arange(24)
        c1 = (1.0 / s + 1.0 / (2 * s) - 1.0) ** -1.0
        c2 = ((s) ** -2.0 + (2 * s) ** -2.0 - 1.0) ** -0.5
        assert np.all(c1 <= c2 + 1e-6)

    def test_default_direction_fan(self):
        results = to.check_too(to.independence(), to.comonotone())
        assert len(results) == 23  # 21-point fan plus the two published directions
        assert all(v.status in (to.HOLDS, to.INDISTINGUISHABLE) for _, v in results)

    def test_one_cdf_batch_per_copula(self, cdf_calls):
        c1, c2 = clayton(1.0), clayton(2.0)
        results = to.check_too(c1, c2)
        assert len(results) == 23 and len(cdf_calls) == 2

    def test_batch_matches_ray_by_ray_evaluation(self):
        joe = to.archimedean(to.joe_generator(2.0))
        pairs = [(clayton(1.0), clayton(2.0)),
                 (to.glue(joe, to.comonotone(), 1, 0.5), to.glue(joe, to.comonotone(), 2, 0.5))]
        sched = to.LimitSchedule()
        for c1, c2 in pairs:
            for w, v in to.check_too(c1, c2):
                s = 1.0 / max(w) * sched.ratio ** np.arange(sched.steps)
                pts = s[:, None] * np.asarray(w)[None, :]
                alone = to.check_too(c1, c2, directions=[w])[0][1]
                assert v == alone
                for got, want in ((v.samples.scale, s), (v.samples.points, pts),
                                  (v.samples.lhs, c1.cdf(pts)), (v.samples.rhs, c2.cdf(pts))):
                    assert np.array_equal(got, want)

    def test_no_directions(self):
        assert to.check_too(clayton(1.0), clayton(2.0), directions=[]) == []


class TestConeOrder:
    def test_mo_clayton_discovers_epsilon(self):
        v = to.check_cone_order(to.marshall_olkin(0.5), clayton(1.0), to.ConeSpec(0.2))
        assert v.holds
        assert v.epsilon is not None and v.epsilon >= 2.0**-20

    def test_degenerate_cone_catches_curve(self):
        v = to.check_cone_order(to.marshall_olkin(0.5), clayton(1.0), to.ConeSpec(0.001), 0.05)
        assert v.status == to.FAILS

    def test_trivial_pair_holds(self):
        v = to.check_cone_order(to.independence(), to.comonotone(), to.ConeSpec(0.3), 0.3)
        assert v.status == to.HOLDS

    def test_warns_when_not_strictly_ordered(self):
        with pytest.warns(RuntimeWarning):
            to.check_cone_order(
                to.comonotone(), to.independence(), to.ConeSpec(0.2), 0.1,
                lam1=to.min_tdf(), lam2=to.zero_tdf(),
            )

    def test_empty_cone_rejected(self):
        with pytest.raises(to.DomainError):
            to.check_cone_order(to.independence(), to.comonotone(), to.ConeSpec(0.7), 0.1)

    def test_samples_stay_in_the_cone(self):
        v = to.check_cone_order(to.marshall_olkin(0.5), clayton(1.0), to.ConeSpec(0.2))
        pts = v.samples.points
        assert (pts.min(axis=1) >= 0.2 * pts.sum(axis=1) * (1.0 - 1e-12)).all()
        assert v.tau == orders.KAPPA and v.epsilon == 0.125

    def test_epsilon_domain(self):
        with pytest.raises(to.DomainError):
            to.check_cone_order(to.independence(), to.comonotone(), to.ConeSpec(0.2), 0.0)


class TestDiagonalOrder:
    def test_clayton_diagonals_ordered_everywhere(self):
        d1 = to.diagonal_of(clayton(1.0))
        d2 = to.diagonal_of(clayton(2.0))
        v = to.check_diagonal_order(d1, d2)
        assert v.status == to.HOLDS and v.epsilon == 1.0
        # oracle: s/(2-s) <= s/sqrt(2-s^2) near 0
        s = np.linspace(1e-4, 0.2, 100)
        assert np.all(s / (2.0 - s) <= s / np.sqrt(2.0 - s**2) + 1e-12)

    def test_square_below_identity(self):
        v = to.check_diagonal_order(to.power_diagonal(2.0), to.power_diagonal(1.0))
        assert v.status == to.HOLDS and v.epsilon == 1.0

    def test_identity_above_square_fails_immediately(self):
        v = to.check_diagonal_order(to.power_diagonal(1.0), to.power_diagonal(2.0))
        assert v.status == to.FAILS and v.witness is not None

    def test_partial_prefix(self):
        # delta2 = max(0, (1 + c) t - c) is the chord of t^2 through (c, c^2) and (1, 1);
        # where it is positive, t^2 - delta2 = (t - c)(t - 1), so delta2 <= t^2 on [0, c]
        # and delta2 > t^2 on (c, 1): the two diagonals cross at t = c
        c = 0.6
        d2 = to.DiagonalSection(lambda t: np.maximum(0.0, (1.0 + c) * t - c))
        assert to.validate_diagonal(d2).passed
        v = to.check_diagonal_order(to.power_diagonal(2.0), d2)
        assert v.status == to.FAILS
        rev = to.check_diagonal_order(d2, to.power_diagonal(2.0))
        assert rev.holds and 0.5 < rev.epsilon < 0.65
        # the verified prefix ends at the last grid point before the crossing
        for resolution in (64, 257):
            rev = to.check_diagonal_order(d2, to.power_diagonal(2.0), to.GridConfig(resolution=resolution))
            assert rev.holds and c - 1.0 / resolution < rev.epsilon <= c

    def test_lower_frechet_below_square_everywhere(self):
        # t^2 - max(0, 2t - 1) >= (t - 1)^2 >= 0: W touches t^2 only at t = 1 and never crosses it
        w = to.DiagonalSection(lambda t: np.maximum(0.0, 2.0 * t - 1.0))
        assert to.validate_diagonal(w).passed
        v = to.check_diagonal_order(to.power_diagonal(2.0), w)
        assert v.status == to.FAILS and v.witness["point"] == [1.0 / 64]
        rev = to.check_diagonal_order(w, to.power_diagonal(2.0))
        assert rev.status == to.HOLDS and rev.epsilon == 1.0


class TestSubadditivity:
    def test_identity_composition_holds(self):
        g = to.clayton_generator(1.0)
        assert to.subadditivity_check(g, g, 10.0).status == to.HOLDS

    def test_clayton_pair_holds(self):
        # f(x) = sqrt(2x + 1) - 1 is concave with f(0) = 0, hence subadditive
        v = to.subadditivity_check(to.clayton_generator(1.0), to.clayton_generator(2.0), 10.0)
        assert v.status == to.HOLDS

    def test_reversed_pair_fails(self):
        # f(x) = ((x+1)^2 - 1)/2 is superadditive: f(x+y) - f(x) - f(y) = xy
        v = to.subadditivity_check(to.clayton_generator(2.0), to.clayton_generator(1.0), 10.0)
        assert v.status == to.FAILS
        x, y = v.witness["point"]
        assert v.witness["lhs"] - v.witness["rhs"] == pytest.approx(x * y, rel=1e-9)

    def test_nonstrict_rejected(self):
        with pytest.raises(to.DomainError):
            to.subadditivity_check(to.nonstrict_linear_generator(), to.clayton_generator(1.0), 10.0)


class TestRatioMonotonicity:
    def test_identical_generators_hold(self):
        g = to.clayton_generator(2.0)
        assert to.ratio_monotonicity_check(g, g, 0.5).status == to.HOLDS

    def test_clayton_pair_holds(self):
        # psi(t) = 2t/(1+t) is increasing
        v = to.ratio_monotonicity_check(to.clayton_generator(1.0), to.clayton_generator(2.0), 0.5)
        assert v.status == to.HOLDS

    def test_reversed_fails(self):
        v = to.ratio_monotonicity_check(to.clayton_generator(2.0), to.clayton_generator(1.0), 0.5)
        assert v.status == to.FAILS


class TestEquivalence:
    def test_clayton_pair_all_true(self):
        rep = to.archimedean_order_equivalence(to.clayton_generator(1.0), to.clayton_generator(2.0))
        assert rep.strict_tdo and rep.tdc_ordered and rep.index_ordered and rep.consistent
        assert rep.tdc1 == pytest.approx(0.5) and rep.tdc2 == pytest.approx(2.0**-0.5)

    def test_gumbel_below_clayton(self):
        rep = to.archimedean_order_equivalence(to.gumbel_generator(2.0), to.clayton_generator(1.0))
        assert rep.strict_tdo and rep.tdc_ordered and rep.index_ordered

    def test_equality_all_false(self):
        rep = to.archimedean_order_equivalence(to.clayton_generator(2.0), to.clayton_generator(2.0))
        assert not (rep.strict_tdo or rep.tdc_ordered or rep.index_ordered)
        assert rep.consistent

    def test_estimated_index_path(self):
        # strip the analytic index to force the ratio-test estimate
        base = to.clayton_generator(2.0)
        blind = to.Generator(phi=base.phi, inverse=base.inverse, strict=True,
                             rv_index_at_0=None, name="clayton", params={"theta": 2.0})
        rep = to.archimedean_order_equivalence(to.clayton_generator(1.0), blind)
        assert rep.consistent and rep.alpha2 == pytest.approx(2.0, abs=1e-3)

    def test_nonstrict_rejected(self):
        with pytest.raises(to.DomainError):
            to.archimedean_order_equivalence(to.nonstrict_linear_generator(), to.clayton_generator(1.0))


class TestTheoremChains:
    """Cross-checker implications asserted on the shipped fixtures."""

    def test_loc_implies_tdo_on_estimates(self):
        c1, c2 = clayton(1.0), clayton(2.0)
        assert to.check_loc(c1, c2, 0.2).holds
        lam1, lam2 = to.estimated_tdf(c1), to.estimated_tdf(c2)
        g = to.GridConfig(resolution=16, tau=1e-3)
        assert to.check_tdo(lam1, lam2, g).status in (to.HOLDS, to.HOLDS_STRICTLY)

    def test_too_implies_tdo(self):
        c1, c2 = to.independence(), clayton(1.0)
        results = to.check_too(c1, c2)
        assert all(v.status in (to.HOLDS, to.INDISTINGUISHABLE) for _, v in results)
        assert to.check_tdo(to.zero_tdf(), to.archimedean_tdf(1.0)).holds

    def test_cone_epsilon_exists_for_strict_pairs(self):
        pairs = [
            (to.marshall_olkin(0.5), clayton(1.0), to.zero_tdf(), to.archimedean_tdf(1.0)),
            (clayton(1.0), clayton(2.0), to.archimedean_tdf(1.0), to.archimedean_tdf(2.0)),
            (to.independence(), to.comonotone(), to.zero_tdf(), to.min_tdf()),
        ]
        for c1, c2, lam1, lam2 in pairs:
            assert to.check_tdo(lam1, lam2).status == to.HOLDS_STRICTLY
            v = to.check_cone_order(c1, c2, to.ConeSpec(0.2))
            assert v.holds and v.epsilon >= 2.0**-20

    def test_archimedean_three_step_pipeline(self):
        for t1, t2 in ((1.0, 2.0), (1.0, 4.0), (2.0, 4.0)):
            g1, g2 = to.clayton_generator(t1), to.clayton_generator(t2)
            assert to.ratio_monotonicity_check(g1, g2, 0.5).holds
            assert to.subadditivity_check(g1, g2, 10.0).holds
            assert to.check_loc(clayton(t1), clayton(t2), 0.2).holds

    def test_nonstrict_below_everything(self):
        ns = to.archimedean(to.nonstrict_linear_generator())
        others = [to.independence(), to.comonotone(), clayton(1.0),
                  to.marshall_olkin(0.5), to.gaussian(0.5)]
        for c in others:
            assert to.check_loc(ns, c, 0.5).status == to.HOLDS

    def test_lev_pairs_globally_ordered(self):
        lam_lo, lam_hi = to.archimedean_tdf(1.0), to.archimedean_tdf(2.0)
        lev_lo, lev_hi = to.lower_ev_copula(lam_lo), to.lower_ev_copula(lam_hi)
        g = np.linspace(0.0, 1.0, 65)
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        gap = np.asarray(lev_lo.cdf(pts)) - np.asarray(lev_hi.cdf(pts))
        assert float(gap.max()) <= 1e-9
