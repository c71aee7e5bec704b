import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailorder as to
from tailorder import core, families


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
        to.ev_copula(to.fig1_parabola()),
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

    @pytest.mark.parametrize("call", [
        lambda: to.independence().eval((0.1, 0.2, 0.3)),
        # a 0-d point has no coordinates to count
        lambda: to.archimedean(to.clayton_generator(2.0)).cdf(0.5),
        lambda: to.archimedean(to.clayton_generator(2.0)).tdf(0.5),
    ], ids=["three-coordinates", "0-d-point", "0-d-direction"])
    def test_dimension_mismatch(self, call):
        with pytest.raises(to.DimensionError):
            call()

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

    def test_positive_batch_builds_only_the_margin_mask(self):
        # with min > 0 no row is a zero row and _prepared builds only the margin mask; an appended exact-0 row
        # makes it build the zero mask too, and both must give the same bits on batches with 1.0 coordinates,
        # with and without margin rows
        rng = np.random.default_rng(22)
        for c in every_family():
            d = c.dimension
            ones = rng.uniform(1e-3, 1.0, size=(256, d))
            ones[rng.uniform(size=ones.shape) < 0.3] = 1.0
            ones[::5] = 1.0
            ones[::5, -1] = rng.uniform(1e-3, 1.0, size=len(ones[::5]))  # margin rows
            single = rng.uniform(1e-3, 1.0, size=(64, d))
            single[::2, 0] = 1.0  # one 1.0 per row: a margin row only for d = 2
            for pts in (ones, single):
                assert pts.min() > 0.0 and pts.max() == 1.0
                fast = c._evaluate(*core._prepared(pts))
                full = c._evaluate(*core._prepared(np.vstack([pts, np.zeros((1, d))])))
                assert full[-1] == 0.0
                assert np.array_equal(fast.view(np.int64), full[:-1].view(np.int64)), repr(c)
                assert np.array_equal(np.asarray(c.cdf(pts)).view(np.int64), fast.view(np.int64)), repr(c)


class TestGuard:
    """The contract of Copula.cdf's range check and of the boundary wrapper."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates(self, bad):
        pts = np.full((4, 2), 0.5)
        pts[2, 1] = bad
        with pytest.raises(to.DomainError, match="coordinates must be finite"):
            to.independence().cdf(pts)

    @pytest.mark.parametrize("bad", [-1e-11, 1.0 + 1e-11, -0.5, 2.0])
    def test_beyond_tolerance(self, bad):
        pts = np.full((4, 2), 0.5)
        pts[1, 0] = bad
        with pytest.raises(to.DomainError, match=r"outside \[0, 1\] beyond tolerance 1e-12: range"):
            to.independence().cdf(pts)

    def test_within_tolerance_is_clipped_to_the_boundary(self):
        pts = np.array([[-1e-13, 0.5], [0.5, -1e-13], [1.0 + 1e-13, 0.37], [0.37, 1.0 + 1e-13],
                        [1.0 + 1e-13, 1.0 + 1e-13]])
        for c in family_zoo():
            np.testing.assert_array_equal(c.cdf(pts), [0.0, 0.0, 0.37, 0.37, 1.0], err_msg=repr(c))

    def test_negative_zero_gives_zero(self):
        pts = np.array([[-0.0, 0.5], [0.5, -0.0], [-0.0, 1.0]])
        for c in family_zoo():
            out = c.cdf(pts)
            assert np.array_equal(out, np.zeros(3)) and not np.signbit(out).any(), repr(c)

    def test_boundary_free_rows_reach_the_formula_in_one_call(self):
        # a 1 in one coordinate of a trivariate row makes it neither a zero row nor a margin
        # row: the whole batch, the caller's own array, goes to the formula in one call
        seen = []

        def formula(pts):
            seen.append(pts)
            return pts[:, 0] * pts[:, 1] * pts[:, 2]

        c = to.Copula(3, formula, {"family": "custom", "params": {}})
        batch = np.random.default_rng(3).uniform(0.1, 0.9, size=(16, 3))
        batch[5, 1] = 1.0
        np.testing.assert_array_equal(c.cdf(batch), batch.prod(axis=1))
        assert len(seen) == 1 and seen[0].shape == batch.shape and np.shares_memory(seen[0], batch)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_glue_hands_each_part_its_own_rows(self, axis):
        # parts without the boundary wrapper show every row glue hands them
        seen = {"left": [], "right": []}

        def part(side):
            def fn(pts):
                seen[side].append(pts.copy())
                return pts[:, 0] * pts[:, 1]
            return to.copula_from_callable(fn, 2)

        split, j = 0.4, axis - 1
        c = to.glue(part("left"), part("right"), axis, split)
        batch = np.random.default_rng(axis).uniform(0.05, 0.95, size=(64, 2))
        below = batch[:, j] <= split
        assert 0 < below.sum() < len(batch)
        np.testing.assert_allclose(c.cdf(batch), batch.prod(axis=1), rtol=1e-15)
        left, right = np.concatenate(seen["left"]), np.concatenate(seen["right"])
        np.testing.assert_array_equal(left[:, j], batch[below, j] / split)
        np.testing.assert_array_equal(left[:, 1 - j], batch[below, 1 - j])
        np.testing.assert_array_equal(right[:, j], (batch[~below, j] - split) / (1.0 - split))
        np.testing.assert_array_equal(right[:, 1 - j], batch[~below, 1 - j])

    def test_a_callable_part_returning_a_list_evaluates_inside_glue_and_survival(self):
        part = to.copula_from_callable(lambda pts: (pts[:, 0] * pts[:, 1]).tolist(), 2)
        batch = np.random.default_rng(5).uniform(0.05, 0.95, size=(64, 2))
        np.testing.assert_allclose(to.glue(part, part, 1, 0.4).cdf(batch), batch.prod(axis=1), rtol=1e-15)
        np.testing.assert_allclose(to.survival(part).cdf(batch), batch.prod(axis=1), rtol=0.0, atol=1e-15)


def surface_copulas():
    """The 15 copulas of the benchmark's surface batches, a Gaussian with rho < 0 and a non-convex Bertino."""
    def sh(text):
        return to.build_copula(to.parse_shorthand(text))

    clayton, joe = to.clayton_generator, to.joe_generator
    return [sh(text) for text in ("independence", "clayton:2", "gumbel:2", "joe:2", "nonstrict-linear",
                                  "marshall-olkin:0.5", "gaussian:0.5", "fn:1.5", "bertino:1.5", "semilinear:1.5",
                                  "lev:clayton:2", "ev:fig1-parabola")] + [
        to.glue(to.archimedean(joe(2.0)), to.comonotone(), 1, 0.5),
        to.archimedean(clayton(2.0), 3),
        to.hierarchical(to.archimedean(clayton(1.0)), to.archimedean(clayton(2.0))),
        to.gaussian(-0.5),
        # not marked convex, so the inner minimum is scanned in blocks of families._BERTINO_BLOCK rows
        to.bertino(to.DiagonalSection(lambda t: t**1.5)),
    ]


def surface_batch(seed, d, n):
    """Half uniform on (0, 1)^d, half log-uniform on [1e-10, 1e-1]^d."""
    rng = np.random.default_rng([seed, d, n])
    uniform = rng.integers(1, 2**53, size=(n // 2, d)) / float(2**53)
    return np.concatenate([uniform, np.exp(rng.uniform(np.log(1e-10), np.log(1e-1), size=(n - n // 2, d)))])


def spy_copula(sizes, seen=None):
    """A product copula whose formula records the row count, and optionally the array, of every call."""
    def formula(pts):
        sizes.append(pts.shape[0])
        if seen is not None:
            seen.append(pts)
        return pts[:, 0] * pts[:, 1]

    return to.Copula(2, formula, {"family": "spy", "params": {}})


class TestRowBlocks:
    """Copula._evaluate hands a formula at most _ROW_BLOCK + 1 rows at a time, with the values of one whole batch."""

    B = core._ROW_BLOCK

    def test_block_is_a_multiple_of_every_internal_block(self):
        assert self.B % families._NORMAL_BLOCK == 0 and self.B % families._BERTINO_BLOCK == 0

    @pytest.mark.parametrize("n", [B, B + 1, B + 2, 2 * B + 1, 3 * B + 1, 8 * B])
    @pytest.mark.parametrize("boundary", [False, True], ids=["interior", "boundary"])
    def test_blocks_give_the_whole_batch_values(self, monkeypatch, n, boundary):
        rng = np.random.default_rng(n)
        copulas = surface_copulas()
        if n > 3 * self.B + 1:
            copulas.pop()  # the scanned Bertino costs about 1 s per 32,768 rows; 24,577 rows cross three blocks
        for c in copulas:
            d = c.dimension
            pts = surface_batch(23, d, n)
            if boundary:
                flat = pts.reshape(-1)
                flat[rng.choice(flat.size, n // 20, replace=False)] = 0.0
                flat[rng.choice(flat.size, n // 20, replace=False)] = 1.0
                pts[rng.choice(n, n // 50, replace=False), 1:] = 1.0  # margin rows
            blocked = np.asarray(c.cdf(pts))
            with monkeypatch.context() as m:
                m.setattr(core, "_ROW_BLOCK", 10**9)  # the whole batch in one formula call
                whole = np.asarray(c.cdf(pts))
            assert np.array_equal(blocked.view(np.int64), whole.view(np.int64)), repr(c)

    @pytest.mark.parametrize("n", [1, 2, 3, B - 1, B, B + 1, B + 2, B + 3, 2 * B, 2 * B + 1, 2 * B + 2, 5 * B + 1])
    @pytest.mark.parametrize("boundary", [False, True], ids=["interior", "boundary"])
    def test_formula_sees_at_most_one_block_and_never_one_row(self, n, boundary):
        sizes = []
        c = spy_copula(sizes)
        pts = surface_batch(5, 2, n)
        if boundary and n > 1:
            pts[::7, 0] = 0.0  # zero rows: the inner rows are taken by index
            pts[1::11, 1] = 1.0  # margin rows
        c.cdf(pts)
        inner = int(((pts > 0.0) & (pts < 1.0)).all(axis=1).sum())  # d = 2: a margin row has one 1.0
        assert sum(sizes) == inner and max(sizes, default=0) <= self.B + 1
        assert 1 not in sizes or sizes == [1]

    @pytest.mark.parametrize("text", ["clayton:2", "lev:clayton:2"])
    def test_boundary_batch_takes_its_inner_rows_one_block_at_a_time(self, text):
        # 65,536 rows with about 5% zero rows: one copy of all inner rows alone would take 0.95 MiB more
        c = to.build_copula(to.parse_shorthand(text))
        pts = surface_batch(9, 2, 8 * self.B)
        pts[::20, 0] = 0.0
        c.cdf(pts)
        tracemalloc.start()
        try:
            c.cdf(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * pts.nbytes

    @pytest.mark.parametrize("n", [1, 3476, B, B + 1])
    def test_one_block_reaches_the_formula_uncopied(self, n):
        sizes, seen = [], []
        c = spy_copula(sizes, seen)
        pts = surface_batch(6, 2, n)
        pts.flags.writeable = False
        c.cdf(pts)
        assert sizes == [n] and np.shares_memory(seen[0], pts) and not seen[0].flags.writeable


def odd_values(pts):
    """Values a clip must mend, by the first coordinate: 1 + 2^-52, -1e-300 (to 0.0, not -0.0) and NaN (kept)."""
    u = pts[:, 0]
    return np.where(u < 1 / 3, 1.0 + 2.0**-52, np.where(u < 2 / 3, -1e-300, np.nan))


class TestDecomposedBatch:
    """A decomposed batch: the guard and the boundary masks once, and the values of the array, bit for bit."""

    B = core._ROW_BLOCK

    def boundary_points(self, n, d=2, seed=11):
        pts = surface_batch(seed, d, n)
        pts[::7, 0] = 0.0  # zero rows
        pts[1::11, 1:] = 1.0  # margin rows
        return pts

    @pytest.mark.parametrize("n", [64, 3476, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("boundary", [False, True], ids=["interior", "boundary"])
    def test_clip_is_the_same_for_one_block_and_many(self, n, boundary):
        c = to.Copula(2, odd_values, {"family": "odd", "params": {}})
        pts = self.boundary_points(n) if boundary else surface_batch(12, 2, n)
        want = np.clip(odd_values(pts), 0.0, 1.0)
        if boundary:
            zero = (pts == 0.0).any(axis=1)
            margin = (pts == 1.0).any(axis=1) & ~zero  # d = 2: one 1.0 makes a margin row
            want[zero] = 0.0
            want[margin] = pts[margin].min(axis=1)
        assert np.isnan(want).any() and (want == 1.0).any() and not np.signbit(want).any()
        for got in (c.cdf(pts), c.cdf(to.DecomposedBatch(pts))):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("boundary", [False, True], ids=["interior", "boundary"])
    def test_batch_gives_the_array_values_and_the_formula_its_blocks(self, boundary):
        n = 2 * self.B + 3
        pts = self.boundary_points(n) if boundary else surface_batch(13, 2, n)
        batch = to.DecomposedBatch(pts)
        assert (batch.rule is None) != boundary
        for c in surface_copulas():
            if c.dimension == 2:
                want = c.cdf(pts)
                assert np.array_equal(c.cdf(batch).view(np.int64), want.view(np.int64)), repr(c)
        seen_array, seen_batch = [], []
        spy_copula([], seen_array).cdf(pts)
        spy_copula([], seen_batch).cdf(batch)
        assert [s.tobytes() for s in seen_array] == [s.tobytes() for s in seen_batch]
        assert all(not s.flags.writeable for s in seen_batch)

    def test_blocks_are_read_only_and_writable_points_are_copied(self):
        pts = self.boundary_points(2 * self.B + 3)
        batch = to.DecomposedBatch(pts)
        margin, values, blocks = batch.rule
        assert len(blocks) == 2 and margin.size and values.size  # 2 * B + 3 rows less the zero and margin rows
        for a in (batch.points, margin, values, *(a for block in blocks for a in block)):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0
        assert not np.shares_memory(batch.points, pts)
        pts.flags.writeable = False
        assert to.DecomposedBatch(pts).points is pts and np.asarray(to.DecomposedBatch(pts)) is pts
        with pytest.raises(AttributeError):
            batch.points = pts

    def test_batch_passes_the_guard_once(self):
        pts = np.array([[-1e-13, 0.5], [0.5, 1.0 + 1e-13], [0.2, 0.3]])
        batch = to.DecomposedBatch(pts)
        assert batch.points.min() == 0.0 and batch.points.max() == 1.0
        for c in family_zoo():
            assert np.array_equal(c.cdf(batch), c.cdf(pts)), repr(c)
        for bad in (np.nan, -0.5):
            with pytest.raises(to.DomainError):
                to.DecomposedBatch(np.array([[bad, 0.5]]))
        with pytest.raises(to.DimensionError):
            to.DecomposedBatch(np.array([0.2, 0.3]))
        with pytest.raises(to.DimensionError, match="points have 2 coordinates, copula has dimension 3"):
            to.independence(3).cdf(batch)
        empty = to.DecomposedBatch(np.empty((0, 2)))
        assert to.independence().cdf(empty).shape == (0,)

    def test_verbatim_copula_sees_the_points(self):
        seen = []
        c = to.copula_from_callable(lambda p: seen.append(p) or p.min(axis=1), 2)
        pts = self.boundary_points(64)
        batch = to.DecomposedBatch(pts)
        assert np.array_equal(c.cdf(batch), pts.min(axis=1)) and seen[0] is batch.points


def spied(c, calls, verbatim=False):
    """c's formula, recording a copy of every array it is called on, in a copula of c's own kind or verbatim."""
    def formula(pts):
        calls.append(np.array(pts))
        return c._formula(pts)

    return to.copula_from_callable(formula, c.dimension) if verbatim else to.Copula(
        c.dimension, formula, c.descriptor, c.accuracy, c.tdf)


class TestCombinatorParts:
    """A combinator's parts see exactly the rows and blocks their own cdf would see, and never an empty batch."""

    B = core._ROW_BLOCK
    SPLIT = 0.5

    def combinator_blocks(self, pts):
        # the arrays a combinator's own formula is called on, as a spy of its dimension sees them
        seen = []
        to.Copula(pts.shape[1], lambda b: seen.append(np.array(b)) or np.zeros(len(b)), {"family": "spy"}).cdf(pts)
        return seen

    def glue_inputs(self, block, axis):
        j = axis - 1
        below = block[:, j] <= self.SPLIT
        lo, hi = block[below], block[~below]
        lo[:, j] /= self.SPLIT
        hi[:, j] = (hi[:, j] - self.SPLIT) / (1.0 - self.SPLIT)
        return lo, hi

    def batch(self, d, n, boundary):
        pts = surface_batch(31, d, n)
        if boundary:
            pts[::7, 0] = 0.0  # zero rows
            pts[1::11, 1:] = 1.0  # margin rows
            pts[2::13, 0] = 1.0  # one 1.0: an inner row for d = 3, whose outer node gets a margin row
            pts[3::17, 1] = 1e-20  # 1 - 1e-20 rounds to 1: a margin row of a survival copula's part
            pts[4::19, 0] = pts[5::23, 1] = self.SPLIT  # a glued coordinate at the split is 1 in the left part
        return pts

    def assert_same_calls(self, got, want):
        assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in want]

    @pytest.mark.parametrize("n", [64, 2 * B + 3])
    @pytest.mark.parametrize("boundary", [False, True], ids=["interior", "boundary"])
    @pytest.mark.parametrize("verbatim", [False, True], ids=["wrapped", "verbatim"])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_glue(self, n, boundary, verbatim, axis):
        left, right = to.archimedean(to.joe_generator(2.0)), to.comonotone()
        got, want = ([], []), ([], [])
        pts = self.batch(2, n, boundary)
        to.glue(spied(left, got[0], verbatim), spied(right, got[1], verbatim), axis, self.SPLIT).cdf(pts)
        for block in self.combinator_blocks(pts):
            for part, calls, rows in zip((left, right), want, self.glue_inputs(block, axis)):
                spied(part, calls, verbatim).cdf(rows)
        assert got[0] and got[1]
        self.assert_same_calls(got[0], want[0])
        self.assert_same_calls(got[1], want[1])

    @pytest.mark.parametrize("n", [64, 2 * B + 3])
    @pytest.mark.parametrize("boundary", [False, True], ids=["interior", "boundary"])
    @pytest.mark.parametrize("verbatim", [False, True], ids=["wrapped", "verbatim"])
    def test_survival(self, n, boundary, verbatim):
        part = to.archimedean(to.clayton_generator(1.0))
        got, want = [], []
        pts = self.batch(2, n, boundary)
        to.survival(spied(part, got, verbatim)).cdf(pts)
        for block in self.combinator_blocks(pts):
            spied(part, want, verbatim).cdf(1.0 - block)
        self.assert_same_calls(got, want)

    @pytest.mark.parametrize("n", [64, 2 * B + 3])
    @pytest.mark.parametrize("boundary", [False, True], ids=["interior", "boundary"])
    def test_hierarchical(self, n, boundary):
        outer, inner = to.archimedean(to.clayton_generator(1.0)), to.archimedean(to.clayton_generator(2.0))
        got, want = ([], []), ([], [])
        pts = self.batch(3, n, boundary)
        to.hierarchical(spied(outer, got[0]), spied(inner, got[1])).cdf(pts)
        for block in self.combinator_blocks(pts):
            nested = spied(inner, want[1]).cdf(block[:, 1:])
            spied(outer, want[0]).cdf(np.stack([block[:, 0], nested], axis=1))
        self.assert_same_calls(got[0], want[0])
        self.assert_same_calls(got[1], want[1])

    @pytest.mark.parametrize("verbatim", [False, True], ids=["wrapped", "verbatim"])
    def test_a_part_with_no_rows_never_reaches_its_formula(self, verbatim):
        left, right = [], []
        c = to.glue(spied(to.independence(), left, verbatim), spied(to.comonotone(), right, verbatim), 1, self.SPLIT)
        assert c.eval((0.3, 0.6)) == pytest.approx(0.18) and len(left) == 1 and right == []
        assert c.eval((0.7, 0.6)) == pytest.approx(0.5) and len(left) == 1 and len(right) == 1


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
        # the witness lies on a margin line: every coordinate but one is 1
        assert sum(x == 1.0 for x in margins.witness) == bad.dimension - 1

    def test_every_family_valid_at_64(self):
        for c in family_zoo():
            report = to.validate_copula(c, to.GridConfig(resolution=64))
            assert report.passed, (c.descriptor["family"], report.as_dict())

    def test_resolution_floor(self):
        with pytest.raises(to.DomainError):
            to.GridConfig(resolution=1)

    def test_require_names_the_failed_checks(self):
        report = to.ValidityReport(checks=(
            to.CheckResult.worst_of("a", [0.0], 0.0, [(0.0,)]),
            to.CheckResult.worst_of("b", [1.0], 0.0, [(0.0,)]),
        ))
        with pytest.raises(to.DomainError, match=r"^audit: failed \['b'\]$"):
            report.require("audit")
        to.ValidityReport(checks=report.checks[:1]).require("audit")


class TestWorstOf:
    @settings(max_examples=200, deadline=None)
    @given(
        excess=st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=1, max_size=12)
        .map(lambda xs: [round(x, 1) for x in xs]),  # rounding makes ties common
        tol=st.sampled_from([0.0, 1e-9, 0.5]),
    )
    def test_matches_a_brute_force_scan(self, excess, tol):
        witnesses = [(float(i), -float(i)) for i in range(len(excess))]
        first = 0
        for i, x in enumerate(excess):
            if x > excess[first]:
                first = i
        check = to.CheckResult.worst_of("rule", np.asarray(excess), tol, np.asarray(witnesses))
        assert check.name == "rule"
        assert check.passed == (max(excess) <= tol)
        assert check.worst == max(0.0, excess[first])
        assert check.witness == witnesses[first]

    def test_nan_fails_at_its_first_occurrence(self):
        check = to.CheckResult.worst_of("rule", [0.0, np.nan, 2.0, np.nan], 10.0, [(0,), (1,), (2,), (3,)])
        assert not check.passed and np.isnan(check.worst) and check.witness == (1.0,)



def every_record():
    """One instance of each of the package's record classes, with the name of a field it has."""
    from tailorder.verify import CheckOutcome

    return [
        (to.GridConfig(), "resolution"),
        (to.CheckResult("check", True, 0.0), "passed"),
        (to.ValidityReport(()), "checks"),
        (to.min_tdf(2), "fn"),
        (to.LimitSchedule(), "steps"),
        (to.TDFEstimate(0.5, 0.0, True, ((0.01, 0.5),)), "value"),
        (to.RVIndexEstimate(2.0, True), "value"),
        (to.clayton_generator(2.0), "phi"),
        (to.power_diagonal(1.5), "delta"),
        (to.OrderVerdict(to.HOLDS, 0.0), "status"),
        (to.ConeSpec(0.2), "c"),
        (to.EquivalenceReport(True, True, True, 1.0, 2.0, 0.5, 0.7), "alpha1"),
        (CheckOutcome("suite", "claim", True, ""), "passed"),
    ]


class TestRecords:
    @pytest.mark.parametrize("record, name", every_record(),
                             ids=lambda x: x if isinstance(x, str) else type(x).__name__)
    def test_fields_are_frozen(self, record, name):
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.unknown = 1
        assert repr(record) == before

    def test_equal_fields_give_equal_records_and_hashes(self):
        trace = ((0.01, 0.5), (0.005, 0.5))
        pairs = [
            (to.LimitSchedule(), to.LimitSchedule(1e-2, 0.5, 24)),
            (to.GridConfig(), to.GridConfig(resolution=64)),
            (to.TDFEstimate(0.5, 0.0, True, trace), to.TDFEstimate(0.5, 0.0, converged=True, trace=trace)),
            (to.ConeSpec(0.2), to.ConeSpec(c=0.2)),
        ]
        for a, b in pairs:
            assert a == b and not a != b and hash(a) == hash(b) and a is not b
        assert to.LimitSchedule() != to.LimitSchedule(steps=25)
        assert to.GridConfig(64) != (64,) and to.GridConfig(64) != to.GridConfig(65)
        assert to.TDFEstimate(0.5, 0.0, True, trace) != to.TDFEstimate(0.5, 0.0, False, trace)
        assert len({to.ConeSpec(0.2), to.ConeSpec(0.2), to.ConeSpec(0.3)}) == 2

    def test_repr_names_every_field(self):
        assert repr(to.LimitSchedule()) == "LimitSchedule(s0=0.01, ratio=0.5, steps=24)"
        assert repr(to.GridConfig()) == "GridConfig(resolution=64)"
        assert (repr(to.TDFEstimate(0.5, 1e-05, True, ((0.01, 0.5),)))
                == "TDFEstimate(value=0.5, error_estimate=1e-05, converged=True, trace=((0.01, 0.5),))")

    def test_a_default_params_dict_is_built_for_each_record(self):
        tdfs = to.TailDepFunction(np.sum, 2), to.TailDepFunction(np.sum, 2)
        generators = [to.Generator(np.log, None, True, None) for _ in range(2)]
        for a, b in (tdfs, generators):
            assert a.params == b.params == {} and a.params is not b.params

    def test_verdict_samples_are_neither_compared_nor_shown(self):
        a = to.OrderVerdict(to.HOLDS, 0.0, samples=np.zeros(3))
        b = to.OrderVerdict(to.HOLDS, 0.0, samples=np.ones(3))
        assert a == b and hash(a) == hash(b) and a.samples is not b.samples
        assert repr(a) == repr(b) == (f"OrderVerdict(status={to.HOLDS!r}, margin=0.0, witness=None, epsilon=None, "
                                      "resolution=0, tolerance=(), note='')")
        assert a != to.OrderVerdict(to.HOLDS, 1.0, samples=np.zeros(3))

    @pytest.mark.parametrize("build, message", [
        (lambda: to.GridConfig(1), "grid resolution must be >= 2, got 1"),
        (lambda: to.LimitSchedule(steps=2), "steps must be >= 3, got 2"),
        (lambda: to.ConeSpec(0.0), "cone parameter must be positive, got 0.0"),
        (lambda: to.DiagonalSection(lambda t: t ** 0.5, convex=True), "diagonal 'custom' is marked convex but is not"),
    ])
    def test_validation_runs_on_construction(self, build, message):
        with pytest.raises(to.DomainError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("build", [
        lambda: to.TDFEstimate(0.5, 0.0, True),  # a field without a default left out
        lambda: to.GridConfig(64, 65),  # more positional arguments than fields
        lambda: to.GridConfig(resolutions=64),  # an unknown field
        lambda: to.TDFEstimate(0.5, 0.0, True, (), value=0.5),  # a field given twice
        lambda: to.TDFEstimate(0.5, 0.0, True, trail=()),  # an unknown field in place of a missing one
    ])
    def test_bad_arguments_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()

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
