import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailorder as to


def grid_points(n=32):
    g = np.linspace(0.0, 1.0, n + 1)
    return np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)


def family_zoo():
    return [
        to.independence(),
        to.comonotone(),
        to.countermonotone(),
        to.archimedean(to.clayton_generator(1.0)),
        to.archimedean(to.clayton_generator(2.0)),
        to.archimedean(to.gumbel_generator(2.0)),
        to.archimedean(to.joe_generator(2.0)),
        to.archimedean(to.nonstrict_linear_generator()),
        to.marshall_olkin(0.5),
        to.gaussian(0.5),
        to.fredricks_nelsen(to.power_diagonal(1.5)),
        to.bertino(to.power_diagonal(2.0)),
        to.semilinear(to.power_diagonal(1.5)),
        to.lower_ev_copula(to.archimedean_tdf(2.0)),
        to.glue(to.archimedean(to.joe_generator(2.0)), to.comonotone(), 1, 0.5),
        to.survival(to.archimedean(to.clayton_generator(1.0))),
    ]


def every_family():
    return family_zoo() + [
        to.independence(3),
        to.comonotone(3),
        to.archimedean(to.clayton_generator(2.0), 3),
        to.hierarchical(to.archimedean(to.clayton_generator(1.0)), to.archimedean(to.clayton_generator(2.0))),
        to.ev_copula(to.lift(to.parabola_section())),
        to.archimedean(to.Generator(lambda t: 1.0 - t, None, False, 0.0)),
    ]


class TestEval:
    def test_product_at_half(self):
        assert to.independence().eval((0.5, 0.5)) == 0.25

    def test_comonotone_is_min(self):
        assert to.comonotone().eval((0.3, 0.7)) == pytest.approx(0.3, abs=0)

    def test_clayton_closed_form(self):
        # (u^-1 + v^-1 - 1)^-1 at (0.5, 0.5) = 1/3
        c = to.archimedean(to.clayton_generator(1.0))
        assert c.eval((0.5, 0.5)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_grounded_and_margins_exact(self):
        for c in family_zoo():
            d = c.dimension
            zero_pt = np.full(d, 0.7)
            zero_pt[0] = 0.0
            assert c.eval(zero_pt) == 0.0
            margin_pt = np.ones(d)
            margin_pt[-1] = 0.37
            assert c.eval(margin_pt) == 0.37

    def test_dimension_mismatch(self):
        with pytest.raises(to.DimensionError):
            to.independence().eval((0.1, 0.2, 0.3))

    def test_out_of_domain(self):
        with pytest.raises(to.DomainError):
            to.independence().eval((1.5, 0.2))
        # within the clamp tolerance is fine
        assert to.independence().eval((1.0 + 1e-13, 0.5)) == 0.5

    def test_batch_shapes(self):
        c = to.independence()
        pts = grid_points(4)
        assert np.asarray(c.cdf(pts)).shape == (25,)
        cube = pts.reshape(5, 5, 2)
        assert np.asarray(c.cdf(cube)).shape == (5, 5)

    def test_empty_batch(self):
        for c in every_family():
            out = c.cdf(np.empty((0, c.dimension)))
            assert isinstance(out, np.ndarray) and out.shape == (0,) and out.dtype == float

    def test_interior_fast_path_matches_masked_path(self):
        # a batch with no coordinate at 0 or 1 skips the boundary masks; one row on
        # an axis sends the same batch through them
        rng = np.random.default_rng(20221013)
        for c in every_family():
            d = c.dimension
            pts = np.concatenate([
                rng.uniform(0.0, 1.0, size=(512, d)),
                np.exp(rng.uniform(np.log(1e-10), np.log(1e-1), size=(512, d))),
            ])
            boundary_row = np.full((1, d), 0.5)
            boundary_row[0, 0] = 0.0
            masked = np.asarray(c.cdf(np.vstack([pts, boundary_row])))
            assert masked[-1] == 0.0
            np.testing.assert_array_equal(np.asarray(c.cdf(pts)), masked[:-1], err_msg=repr(c))


class TestHVolume:
    def test_product_box(self):
        assert to.h_volume(to.independence(), (0.25, 0.25), (0.75, 0.75)) == pytest.approx(0.25)

    def test_comonotone_off_diagonal_box(self):
        assert to.h_volume(to.comonotone(), (0.0, 0.5), (0.5, 1.0)) == pytest.approx(0.0)

    def test_clayton_positive_box(self):
        c = to.archimedean(to.clayton_generator(1.0))
        # inclusion-exclusion from the four closed-form corner values
        f = lambda u, v: 1.0 / (1.0 / u + 1.0 / v - 1.0)
        want = f(0.8, 0.8) - f(0.2, 0.8) - f(0.8, 0.2) + f(0.2, 0.2)
        got = to.h_volume(c, (0.2, 0.2), (0.8, 0.8))
        assert got == pytest.approx(want, abs=1e-14)
        assert got > 0

    def test_three_dimensional(self):
        c = to.independence(3)
        assert to.h_volume(c, (0.1, 0.1, 0.1), (0.5, 0.6, 0.7)) == pytest.approx(0.4 * 0.5 * 0.6)

    def test_random_boxes_nonnegative(self):
        rng = np.random.default_rng(7)
        n = 10_000
        lower = rng.uniform(0.0, 1.0, size=(n, 2))
        upper = lower + rng.uniform(0.0, 1.0, size=(n, 2)) * (1.0 - lower)
        for c in family_zoo():
            if c.dimension != 2:
                continue
            corners = [
                c.cdf(np.stack([upper[:, 0], upper[:, 1]], axis=1)),
                -c.cdf(np.stack([lower[:, 0], upper[:, 1]], axis=1)),
                -c.cdf(np.stack([upper[:, 0], lower[:, 1]], axis=1)),
                c.cdf(np.stack([lower[:, 0], lower[:, 1]], axis=1)),
            ]
            vols = np.sum(corners, axis=0)
            assert float(vols.min()) >= -1e-9, c.descriptor["family"]


class TestValidate:
    def test_product_passes(self):
        report = to.validate_copula(to.independence())
        assert report.passed
        assert {c.name for c in report.checks} == {"grounded", "uniform_margins", "d_increasing"}

    def test_fredricks_nelsen_passes_at_64(self):
        c = to.fredricks_nelsen(to.power_diagonal(2.0))
        assert to.validate_copula(c, to.GridConfig(resolution=64)).passed

    def test_non_copula_fails_margins(self):
        bad = to.copula_from_callable(
            lambda pts: np.maximum(pts.sum(axis=1) - 1.0, 0.0) ** 2, 2
        )
        report = to.validate_copula(bad)
        assert not report.passed
        margins = report.check("uniform_margins")
        assert not margins.passed
        # value at (1, 0.5) is 0.25, off by 0.25
        assert margins.worst == pytest.approx(0.25, abs=1e-2)

    def test_every_family_valid_at_64(self):
        for c in family_zoo():
            report = to.validate_copula(c, to.GridConfig(resolution=64))
            assert report.passed, (c.descriptor["family"], report.as_dict())

    def test_resolution_floor(self):
        with pytest.raises(to.DomainError):
            to.GridConfig(resolution=1)


class TestGlue:
    def test_glue_product_is_product(self):
        g = to.glue(to.independence(), to.independence(), 1, 0.5)
        pts = grid_points(32)
        assert np.abs(np.asarray(g.cdf(pts)) - pts.prod(axis=1)).max() < 1e-12

    def test_glue_comonotone_value(self):
        g = to.glue(to.comonotone(), to.comonotone(), 1, 0.5)
        # theta * min(u1/theta, u2) = min(0.2, 0.15)
        assert g.eval((0.2, 0.3)) == pytest.approx(0.15, abs=1e-15)

    def test_glued_joe_is_valid(self):
        g = to.glue(to.archimedean(to.joe_generator(2.0)), to.comonotone(), 1, 0.5)
        assert to.validate_copula(g, to.GridConfig(resolution=64)).passed

    def test_axis_two_mirrors_axis_one(self):
        left = to.archimedean(to.clayton_generator(2.0))
        right = to.comonotone()
        g1 = to.glue(left, right, 1, 0.3)
        g2 = to.glue(left, right, 2, 0.3)
        pts = grid_points(16)
        swapped = pts[:, ::-1].copy()
        # axis-2 gluing of symmetric pieces is the axis-1 gluing with swapped arguments
        assert np.abs(np.asarray(g1.cdf(pts)) - np.asarray(g2.cdf(swapped))).max() < 1e-12

    def test_parameter_errors(self):
        with pytest.raises(to.DomainError):
            to.glue(to.independence(), to.independence(), 3, 0.5)
        with pytest.raises(to.DomainError):
            to.glue(to.independence(), to.independence(), 1, 1.0)
        with pytest.raises(to.DimensionError):
            to.glue(to.independence(3), to.independence(), 1, 0.5)


class TestSurvival:
    def test_product_fixed_point(self):
        s = to.survival(to.independence())
        pts = grid_points(16)
        assert np.abs(np.asarray(s.cdf(pts)) - pts.prod(axis=1)).max() < 1e-15

    def test_comonotone_fixed_point(self):
        s = to.survival(to.comonotone())
        pts = grid_points(16)
        assert np.abs(np.asarray(s.cdf(pts)) - pts.min(axis=1)).max() < 1e-15

    def test_involution_on_grid(self):
        c = to.archimedean(to.clayton_generator(1.0))
        ss = to.survival(to.survival(c))
        pts = grid_points(32)
        assert np.abs(np.asarray(ss.cdf(pts)) - np.asarray(c.cdf(pts))).max() < 1e-12

    def test_dimension_guard(self):
        with pytest.raises(to.DimensionError):
            to.survival(to.independence(3))


@st.composite
def unit_pairs(draw, d=2):
    u = [draw(st.floats(0.0, 1.0, allow_nan=False)) for _ in range(d)]
    v = [draw(st.floats(0.0, 1.0, allow_nan=False)) for _ in range(d)]
    return np.asarray(u), np.asarray(v)


@pytest.mark.parametrize("maker", [
    to.independence,
    to.comonotone,
    to.countermonotone,
    lambda: to.archimedean(to.clayton_generator(2.0)),
    lambda: to.marshall_olkin(0.5),
    lambda: to.gaussian(0.5),
    lambda: to.bertino(to.power_diagonal(2.0)),
    lambda: to.lower_ev_copula(to.archimedean_tdf(1.0)),
])
class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(pair=unit_pairs())
    def test_lipschitz_in_sum_norm(self, maker, pair):
        c = maker()
        u, v = pair
        lhs = abs(c.eval(u) - c.eval(v))
        assert lhs <= np.abs(u - v).sum() + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(pair=unit_pairs())
    def test_monotone_in_each_coordinate(self, maker, pair):
        c = maker()
        u, v = pair
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        assert c.eval(lo) <= c.eval(hi) + 1e-12
