import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tailorder as to
from tailorder import core, orders, taildep


def shorthand(text):
    return to.build_copula(to.parse_shorthand(text))


def clayton(theta, d=2):
    return to.archimedean(to.clayton_generator(theta), d)


@pytest.fixture
def cdf_calls(monkeypatch):
    """(id of the copula, points) of each ``cdf`` call, in order."""
    calls = []
    original = to.Copula.cdf

    def counting(self, u):
        calls.append((id(self), u))
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
        v = to.check_tdo(to.fig1_parabola(), to.fig1_piecewise())
        assert v.status == to.FAILS and v.witness is not None
        rev = to.check_tdo(to.fig1_piecewise(), to.fig1_parabola())
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

    @pytest.mark.parametrize("c1, c2", [
        (to.independence(), to.survival(to.archimedean(to.gumbel_generator(2.0)))),
        (to.survival(to.archimedean(to.gumbel_generator(2.0))), to.comonotone()),
        (to.independence(), to.survival(clayton(1.0))),
        (to.survival(clayton(1.0)), to.comonotone()),
    ], ids=["product-survival-gumbel2", "survival-gumbel2-comonotone", "product-survival-clayton1",
            "survival-clayton1-comonotone"])
    def test_survival_pairs_hold_on_the_unit_ball(self, c1, c2):
        # survival values are accurate to about 1e-16 absolute only: the points below that are
        # undecidable, counted in the note with the smallest decidable radius, and never fail
        v = to.check_loc(c1, c2)
        assert v.status == to.HOLDS and v.epsilon == 1.0
        assert "undecidable, smallest decidable scale" in v.note
        assert any(abs_ > 0.0 for _, abs_ in v.tolerance)

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
        (to.lower_ev_copula(to.fig1_parabola()), to.lower_ev_copula(to.fig1_piecewise())),
        (to.lower_ev_copula(to.fig1_piecewise()), to.lower_ev_copula(to.fig1_parabola())),
        # thin regions near a face: Bertino's cancelling branch needs an abs term only away from them, and
        # the Fig. 1 parabola none, so these accurate tail values stay decidable
        *((shorthand(a), shorthand(b)) for a, b in (("independence", "bertino:1.5"), ("lev:zero", "bertino:1.5"),
                                                    ("semilinear:1.5", "bertino:1.25"),
                                                    ("marshall-olkin:0.5", "lev:fig1-parabola"))),
    ], ids=["comonotone-independence", "clayton2-clayton1", "fig1-parabola-piecewise", "fig1-piecewise-parabola",
            "product-bertino1.5", "lev-zero-bertino1.5", "semilinear1.5-bertino1.25", "mo-lev-fig1-parabola"])
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
        # Clayton's accuracy pair is relative; Clayton(2)'s abs term covers the 0s of its phi's overflow
        # below 1e-150, far below the sample, so no point but 0 vs 0 is undecidable
        v = to.check_loc(clayton(1.0), clayton(2.0))
        pair, overflow = to.clayton_generator(1.0).accuracy, clayton(2.0).accuracy
        assert pair[1] == 0.0 and v.tolerance == (pair, overflow)
        assert overflow[0] == pair[0] and 0.0 < overflow[1] < 1e-150
        assert v.as_dict()["tolerance"] == [list(pair), list(overflow)] and "undecidable" not in v.note

    @pytest.mark.parametrize("c1, c2", [("clayton:10", "clayton:20"), ("clayton:12", "clayton:13"),
                                        ("clayton:1", "clayton:40"), ("gumbel:150", "gumbel:200")])
    def test_overflowing_generators_keep_their_order(self, c1, c2):
        # both families increase with theta; near 0 phi overflows for the larger theta and the value comes
        # out 0, which its pair's abs term makes undecidable instead of a violation
        c1, c2 = shorthand(c1), shorthand(c2)
        v = to.check_loc(c1, c2)
        assert v.status == to.HOLDS and v.epsilon == 1.0 and "undecidable" in v.note
        assert to.check_loc(c2, c1).status == to.FAILS

    @pytest.mark.parametrize("check", [
        lambda c1, c2: to.check_loc(c1, c2),
        lambda c1, c2: to.check_loc(c1, c2, 0.2),
        lambda c1, c2: to.check_cone_order(c1, c2, to.ConeSpec(0.2)),
        lambda c1, c2: to.check_cone_order(c1, c2, to.ConeSpec(0.001), 0.05),
    ], ids=["loc-searched", "loc-eps", "cone-searched", "cone-eps"])
    def test_one_cdf_batch_per_copula(self, cdf_calls, check):
        # each copula gets one cdf call on the sample's one decomposed batch, whose points the verdict keeps
        c1, c2 = to.marshall_olkin(0.5), clayton(1.0)
        orders._local_sample.cache_clear()
        for _ in range(2):  # with a cold sample cache, then a warm one
            cdf_calls.clear()
            v = check(c1, c2)
            (id1, batch), (id2, again) = cdf_calls
            assert sorted([id1, id2]) == sorted([id(c1), id(c2)])
            assert isinstance(batch, to.DecomposedBatch) and again is batch and batch.points is v.samples.points
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
            return to.Copula(
                2, lambda p: np.where(p.sum(axis=1) < 0.1, 0.0, k * p.min(axis=1)), {"family": "test"})

        v = to.check_loc(scaled_min(0.5), scaled_min(1.0), 0.5)
        assert v.status == to.HOLDS and v.margin > 0.0
        assert ((v.samples.lhs == 0.0) & (v.samples.rhs == 0.0)).any()

    def test_direction_table_is_cached_per_dimension(self):
        assert orders._local_directions(2) is orders._local_directions(2)
        dirs = orders._local_directions(3)
        assert dirs.shape == (397, 3) and not dirs.flags.writeable
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0) and (dirs > 0).all()


def _local_check(d, epsilon, cone):
    c1, c2 = clayton(1.0, d), clayton(2.0, d)
    if cone is None:
        return lambda: to.check_loc(c1, c2, epsilon)
    return lambda: to.check_cone_order(c1, c2, to.ConeSpec(cone), epsilon)


class TestSampleCaches:
    """The fixed samples are built once per key and shared read-only, with every verdict unchanged."""

    @pytest.mark.parametrize("cone", [None, 0.05, 0.2], ids=["loc", "cone0.05", "cone0.2"])
    @pytest.mark.parametrize("epsilon", [None, 0.3], ids=["searched", "eps0.3"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_warm_verdict_equals_cold(self, d, epsilon, cone):
        check = _local_check(d, epsilon, cone)
        check()
        warm = check()
        orders._local_sample.cache_clear()
        cold = check()
        assert cold.samples.points is not warm.samples.points
        assert warm.as_dict() == cold.as_dict()
        for name in ("points", "scale", "lhs", "rhs"):
            assert getattr(warm.samples, name).tobytes() == getattr(cold.samples, name).tobytes(), name

    def test_sample_is_the_inline_expression(self):
        # reference: the sampler's expressions, evaluated here without the cache
        for d, top, cone in ((2, 1.0, 0.0), (3, 0.3, 0.05), (4, 1.0, 0.2)):
            batch, scale, n_dirs = orders._local_sample(d, top, cone)
            points = batch.points
            dirs = orders._local_directions(d)
            dirs = dirs[dirs.min(axis=1) >= cone * dirs.sum(axis=1)]
            radii = top * 2.0 ** (-0.5 * np.arange(44))
            assert n_dirs == len(dirs)
            assert points.tobytes() == np.minimum(radii[:, None, None] * dirs[None, :, :], 1.0).tobytes()
            assert scale.tobytes() == np.repeat(radii, len(dirs)).tobytes()

    def test_repeated_key_is_a_cache_hit(self):
        orders._local_sample.cache_clear()
        first = to.check_loc(clayton(1.0), clayton(2.0), 0.5)
        again = to.check_loc(to.marshall_olkin(0.5), to.independence(), 0.5)
        assert orders._local_sample.cache_info()[:2] == (1, 1)  # (hits, misses)
        assert again.samples.points is first.samples.points and again.samples.scale is first.samples.scale
        orders._tdo_grid.cache_clear()
        to.check_tdo(to.zero_tdf(), to.min_tdf())
        to.check_tdo(to.archimedean_tdf(1.0), to.archimedean_tdf(2.0))
        assert orders._tdo_grid.cache_info()[:2] == (1, 1)

    @pytest.mark.parametrize("check, d", [
        (lambda c1, c2: to.check_loc(c1, c2), 6),
        # at d = 6 the TDO precondition's default grid holds 11.2 M points, more than the cap
        (lambda c1, c2: to.check_cone_order(c1, c2, to.ConeSpec(0.1), 0.5), 5),
    ], ids=["loc", "cone"])
    def test_samples_above_d4_are_built_per_verdict(self, check, d):
        # a d = 6 entry would hold 8.3 MB: the sample is built read-only for the verdict and not kept
        orders._local_sample.cache_clear()
        v = check(clayton(1.0, d), clayton(2.0, d))
        assert orders._local_sample.cache_info().currsize == 0
        assert not v.samples.points.flags.writeable and not v.samples.scale.flags.writeable

    def test_every_cached_array_is_read_only(self):
        batch, scale, _ = orders._local_sample(2, 1.0, 0.0)
        arrays = {
            "local directions": [orders._local_directions(2)],
            # the searched d = 2 sample has margin rows, so its batch holds them and its inner rows too
            "local sample": [batch.points, scale, *batch.rule[:2], *(a for block in batch.rule[2] for a in block)],
            "tdo grid": [orders._tdo_grid(65, 3)],
            "schedule scales": [to.LimitSchedule().scales()],
            "spearman faces": taildep._spearman_faces(45),
            "gauss-legendre": taildep._gauss_legendre_01(64),
        }
        for name, arrs in arrays.items():
            for a in arrs:
                assert a.flags.writeable is False, name
                with pytest.raises(ValueError):
                    a[...] = 0.0

    def test_a_writing_evaluator_raises_instead_of_corrupting(self):
        def writing_copula(p):
            p *= 1.0
            return p.min(axis=1)

        with pytest.raises(ValueError):  # inside the unit ball every point is interior, so the formula gets the sample
            to.check_loc(to.Copula(2, writing_copula, {"family": "test"}), clayton(1.0), 0.5)
        lam = to.TailDepFunction(lambda p: np.multiply(p[:, 0], 0.0, out=p[:, 0]), 2)
        with pytest.raises(ValueError):
            to.check_tdo(lam, to.min_tdf())
        assert to.check_loc(to.independence(), to.comonotone()).status == to.HOLDS


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

    @pytest.mark.parametrize("call", [
        lambda sched: sched.scales(),
        lambda sched: to.check_too(clayton(1.0), clayton(2.0), schedule=sched),
    ], ids=["scales", "check_too"])
    def test_underflow_is_refused_before_anything_is_allocated(self, call):
        # 0.5^99999 is below 1e-300; the scales alone would take 800 kB, and 18 MB on the 23 default rays
        sched = to.LimitSchedule(0.01, 0.5, 100_000)
        tracemalloc.start()
        try:
            with pytest.raises(to.DomainError, match="schedule underflow"):
                call(sched)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("steps, call", [
        (core.MAX_POINTS + 1, lambda sched: sched.scales()),
        # 23 default rays: scales() would build these 50,000 steps, check_too refuses their 1.15 million points
        (50_000, lambda sched: to.check_too(clayton(1.0), clayton(2.0), schedule=sched)),
    ], ids=["scales", "check_too"])
    def test_a_schedule_too_long_is_refused_before_anything_is_allocated(self, steps, call):
        # a ratio near 1 keeps every scale far from underflow; a refusal that came late would build 8 MB or 18 MB
        sched = to.LimitSchedule(0.01, 0.9999999, steps)
        assert sched.ratio ** steps > 0.9
        tracemalloc.start()
        try:
            with pytest.raises(to.DomainError, match="schedule too large"):
                call(sched)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_the_cap_counts_points_not_steps(self):
        sched = to.LimitSchedule(0.01, 0.9999999, 1000)
        sched.check(1.0, rays=core.MAX_POINTS // 1000)
        with pytest.raises(to.DomainError, match="schedule too large"):
            sched.check(1.0, rays=core.MAX_POINTS // 1000 + 1)


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
            to.check_cone_order(to.comonotone(), to.independence(), to.ConeSpec(0.2), 0.1)

    def test_empty_cone_rejected(self):
        with pytest.raises(to.DomainError):
            to.check_cone_order(to.independence(), to.comonotone(), to.ConeSpec(0.7), 0.1)

    def test_samples_stay_in_the_cone(self):
        v = to.check_cone_order(to.marshall_olkin(0.5), clayton(1.0), to.ConeSpec(0.2))
        pts = v.samples.points
        assert (pts.min(axis=1) >= 0.2 * pts.sum(axis=1) * (1.0 - 1e-12)).all()
        assert v.tolerance == (to.marshall_olkin(0.5).accuracy, clayton(1.0).accuracy)
        assert v.epsilon == 0.125

    def test_epsilon_domain(self):
        with pytest.raises(to.DomainError):
            to.check_cone_order(to.independence(), to.comonotone(), to.ConeSpec(0.2), 0.0)

    def test_dimension_guard(self):
        # both copulas carry a tail dependence function, so the precondition would run first
        with pytest.raises(to.DimensionError, match="copulas have different dimensions"):
            to.check_cone_order(clayton(1.0), to.independence(3), to.ConeSpec(0.2))


class TestDiagonalOrder:
    def test_dimension_guard(self):
        with pytest.raises(to.DimensionError):
            to.check_diagonal_order(to.diagonal_of(clayton(1.0)), to.diagonal_of(to.independence(3)))

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
    def test_identity_composition_indistinguishable(self):
        g = to.clayton_generator(1.0)
        assert to.subadditivity_check(g, g, 10.0).status == to.INDISTINGUISHABLE

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
    def test_identical_generators_indistinguishable(self):
        g = to.clayton_generator(2.0)
        assert to.ratio_monotonicity_check(g, g, 0.5).status == to.INDISTINGUISHABLE

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

    @pytest.mark.parametrize("t1, t2", [(2.5, 5.0), (3.0, 4.5), (3.0, 6.0), (5.0, 10.0)])
    def test_larger_clayton_indices_consistent(self, t1, t2):
        # the tail dependence gaps here are 2e-10 to 1.3e-5 of Lambda: strict under a relative bound
        rep = to.archimedean_order_equivalence(to.clayton_generator(t1), to.clayton_generator(t2))
        assert rep.strict_tdo and rep.consistent

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
        g = to.GridConfig(resolution=16)
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


# the regions of the accuracy pairs, restated point by point
REGIONS = {"max(u) > 1/e": lambda p: max(p) > np.exp(-1.0)}


@st.composite
def verdict_inputs(draw):
    """Sampled sides on a coarse lattice (ties, zeros, a negative value, near-threshold gaps), dyadic
    accuracy pairs whose summed bound ties gaps exactly and makes some points undecidable, scales
    and candidates."""
    n = draw(st.integers(1, 24))
    quarters = st.lists(st.integers(-1, 4), min_size=n, max_size=n)
    lhs = np.array(draw(quarters), dtype=float) / 4.0
    rhs = np.array(draw(quarters), dtype=float) / 4.0
    scale = np.array(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)), dtype=float)
    candidates = draw(st.none() | st.lists(st.integers(1, 13), min_size=1, max_size=6, unique=True))
    if candidates is not None:
        candidates = np.array(sorted(candidates), dtype=float) / 2.0
    pair = st.tuples(st.sampled_from([0.0, 0.125, 0.25]), st.sampled_from([0.0, 0.0625, 0.125, 0.25]))
    # a named region keeps the abs term only at its points
    pair = pair | st.tuples(pair, st.sampled_from(sorted(REGIONS))).map(lambda p: (*p[0], p[1]))
    return lhs, rhs, scale, candidates, (draw(pair), draw(pair)), draw(st.booleans())


def chained_verdict(points, lhs, rhs, tolerance, resolution=0, *, scale=None, candidates=None, epsilon=None,
                    strict=False, note=""):
    """``orders._verdict`` with its earlier selection: the bound summed from 0 over a generator, and gap and
    bound taken at the verified points and then at the decidable ones among them."""
    samples, gap, size1, size2 = orders.Samples(points, lhs, rhs, scale), rhs - lhs, np.abs(lhs), np.abs(rhs)
    bound = sum(pair[0] * size + orders.abs_at(pair, points) for pair, size in zip(tolerance, (size1, size2)))
    decidable = bound < np.maximum(size1, size2)
    bad = decidable & (gap < -bound)
    undecidable = "" if decidable.all() else f"{(~decidable).sum()} of {gap.size} points undecidable" + (
        f", smallest decidable scale {scale[decidable].min():.6g}" if scale is not None and decidable.any() else "")
    verified = slice(None)
    if candidates is not None:
        low = scale[bad].min() if bad.any() else np.inf
        fits = candidates[candidates < low]
        if fits.size:
            epsilon = float(fits[-1])
            verified = scale <= epsilon
        bad &= scale == low
    if bad[verified].any():
        idx = np.flatnonzero(bad)
        with np.errstate(divide="ignore"):
            ratio = gap[idx] / bound[idx]
        idx = idx[ratio <= ratio.min() * (1.0 - 1e-9)]
        i = int(idx[np.argmin(gap[idx])])
        if note:
            why = (f"no epsilon 2^-k, k <= {orders._MAX_HALVINGS}, lies below it" if epsilon is None
                   else "witness at that radius")
            note = f"smallest violating radius {low:.6g}: {why}; {note}"
        return orders.OrderVerdict(to.FAILS, float(gap[i]), orders._witness(points, lhs, rhs, i), epsilon,
                                   resolution, tolerance, "; ".join(filter(None, (note, undecidable))), samples)
    counted = decidable[verified]
    gap, bound = gap[verified][counted], bound[verified][counted]
    status, margin = to.HOLDS, float(gap.min()) if gap.size else 0.0
    if (np.abs(gap) <= bound).all():
        status = to.INDISTINGUISHABLE
    elif strict and (gap > bound).all():
        status = to.HOLDS_STRICTLY
    note = f"verified radius {epsilon:.6g}; {note}" if note else note
    return orders.OrderVerdict(status, margin, None, epsilon, resolution, tolerance,
                               "; ".join(filter(None, (note, undecidable))), samples)


class TestVerdictRule:
    """``orders._verdict`` against a brute-force loop over the points and candidate radii, and against its
    earlier chained selection, bit for bit (``repr`` tells -0.0 from 0.0 and round-trips every float)."""

    @settings(max_examples=400, deadline=None)
    @given(verdict_inputs())
    # a gap equal to its bound at a decidable point is not strict
    @example((np.array([0.25, 0.0]), np.array([0.75, 1.0]), np.ones(2), None, ((0.0, 0.0625), (0.25, 0.25)), True))
    def test_matches_brute_force(self, inputs):
        lhs, rhs, scale, candidates, tolerance, strict = inputs
        # point i is (i, n - 1 - i) / 8, so each region holds some points and not others
        points = np.column_stack([np.arange(lhs.size), np.arange(lhs.size)[::-1]]) / 8.0
        v = orders._verdict(points, lhs, rhs, tolerance, 8, scale=scale, candidates=candidates, strict=strict)
        assert v.tolerance == tolerance
        gap = rhs - lhs
        bound = [sum(pair[0] * abs(side[i]) + (pair[1] if len(pair) == 2 or REGIONS[pair[2]](points[i]) else 0.0)
                     for pair, side in zip(tolerance, (lhs, rhs))) for i in range(lhs.size)]
        decidable = [i for i in range(lhs.size) if bound[i] < max(abs(lhs[i]), abs(rhs[i]))]
        assert (len(decidable) < lhs.size) == ("undecidable" in v.note)
        violating = [i for i in decidable if gap[i] < -bound[i]]
        if candidates is None:
            fitting, verified = [], decidable
        else:
            fitting = [c for c in candidates if all(scale[i] > c for i in violating)]
            verified = [i for i in decidable if fitting and scale[i] <= max(fitting)]
        if violating and (candidates is None or not fitting):
            assert v.status == to.FAILS and v.epsilon is None
            at = violating if candidates is None else [j for j in violating if scale[j] == scale[violating].min()]
            ratio = {j: gap[j] / bound[j] if bound[j] else -np.inf for j in at}
            worst = [j for j in at if ratio[j] <= min(ratio.values()) * (1.0 - 1e-9)]
            i = int(8 * v.witness["point"][0])
            assert i in worst and gap[i] == min(gap[j] for j in worst)
            assert v.margin == gap[i] and (v.witness["lhs"], v.witness["rhs"]) == (lhs[i], rhs[i])
            return
        assert v.epsilon == (max(fitting) if candidates is not None else None)
        assert v.witness is None
        if all(abs(gap[i]) <= bound[i] for i in verified):
            assert v.status == to.INDISTINGUISHABLE
        elif strict and all(gap[i] > bound[i] for i in verified):
            assert v.status == to.HOLDS_STRICTLY
        else:
            assert v.status == to.HOLDS
        assert v.margin == (min(gap[i] for i in verified) if verified else 0.0)

    @settings(max_examples=200, deadline=None)
    @given(verdict_inputs())
    def test_matches_the_chained_selection(self, inputs):
        lhs, rhs, scale, candidates, tolerance, strict = inputs
        points = np.column_stack([np.arange(lhs.size), np.arange(lhs.size)[::-1]]) / 8.0
        args = points, lhs, rhs, tolerance, 8
        kwargs = dict(scale=scale, candidates=candidates, strict=strict, note="n" if candidates is not None else "")
        assert repr(orders._verdict(*args, **kwargs)) == repr(chained_verdict(*args, **kwargs))

    @pytest.mark.parametrize("check", [
        lambda: to.check_loc(to.archimedean(to.gumbel_generator(2.0)), clayton(1.0)),
        lambda: to.check_loc(to.marshall_olkin(0.5), clayton(1.0)),
        lambda: to.check_loc(shorthand("bertino:1.5"), shorthand("fn:1.5"), 0.5),
        lambda: to.check_loc(to.marshall_olkin(0.5), clayton(1.0), 0.2),
        lambda: to.check_loc(to.independence(), to.survival(clayton(1.0))),
        lambda: to.check_cone_order(to.marshall_olkin(0.5), clayton(1.0), to.ConeSpec(0.2)),
        lambda: to.check_too(to.glue(to.archimedean(to.joe_generator(2.0)), to.comonotone(), 1, 0.5),
                             to.glue(to.archimedean(to.joe_generator(2.0)), to.comonotone(), 2, 0.5)),
        lambda: to.check_tdo(to.archimedean_tdf(1.0), to.archimedean_tdf(2.0)),
        lambda: to.check_diagonal_order(to.diagonal_of(clayton(1.0)), to.diagonal_of(clayton(2.0))),
    ], ids=["loc-searched-holds", "loc-searched-fails", "loc-eps-region", "loc-eps-fails", "loc-undecidable",
            "cone-searched", "too-whole-sample", "tdo-strict", "diagonal"])
    def test_real_samples_match_the_chained_selection(self, monkeypatch, check):
        compared = []

        def both(*args, **kwargs):
            v = verdict(*args, **kwargs)
            assert repr(v) == repr(chained_verdict(*args, **kwargs))
            compared.append(v.status)
            return v

        verdict = orders._verdict
        monkeypatch.setattr(orders, "_verdict", both)
        check()
        assert compared


class TestClaytonIndexOrder:
    """Clayton tail dependence functions are ordered by their index.

    Each is accurate to 1e-14 relative (its recorded pair), so with the default grid a strict
    order is certified for indices in [0.25, 5] at least 10% apart, in
    d = 2, 3 and 4; the simplex faces, where both vanish, are undecidable.
    """

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(0.25, 5.0), ratio=st.floats(1.1, 3.0), d=st.sampled_from([2, 3, 4]))
    def test_smaller_index_strictly_below(self, alpha, ratio, d):
        lo, hi = to.archimedean_tdf(alpha, d), to.archimedean_tdf(alpha * ratio, d)
        assert to.check_tdo(lo, hi).status == to.HOLDS_STRICTLY
        assert to.check_tdo(hi, lo).status == to.FAILS
