"""The column kernels against reductions along axis 1, bit for bit.

The family formulas combine a row's columns with ``core._row_reduce`` and
the bivariate normal quadrature runs in blocks.  The references below write
the same formulas with numpy reductions along axis 1, the quadrature as one
(n, nodes) array and the Archimedean inverse with its live rows gathered
and scattered.  Both forms must give the same float64 values on every
family of the descriptor table, on interior batches and on rows with a
coordinate exactly 0 or 1.
"""

import warnings

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from tailorder import core, descriptors, families, orders, taildep
from tailorder.families import bivariate_normal_cdf


# ---------------------------------------------------------------- references


def ref_normal_integral(a, b, rho, nodes=64):
    """One-shot quadrature over an (n, nodes) array, with the exponent as two terms that are never positive."""
    x, w = taildep._gauss_legendre_01(nodes)
    t = np.arcsin(rho) * x
    wt = np.arcsin(rho) * w
    sin_t = np.sin(t)
    node_rows = -1.0 / np.stack([2.0 * np.cos(t) ** 2, 1.0 + sin_t, 1.0 - sin_t])
    ab = a * b
    cols = np.stack([(np.abs(a) - np.abs(b)) ** 2, np.maximum(ab, 0.0), np.maximum(-ab, 0.0)], axis=1)
    return np.exp(cols @ node_rows) @ wt / (2.0 * np.pi)


def ref_normal_cdf(a, b, rho, nodes=64):
    """Phi(a)Phi(b) plus the one-shot integral."""
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = ndtr(a_arr) * ndtr(b_arr)
    if rho != 0.0:
        out = out + ref_normal_integral(a_arr.reshape(-1), b_arr.reshape(-1), rho, nodes).reshape(out.shape)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if np.isscalar(a) and np.isscalar(b) else out


def ref_generalized_inverse(g, x):
    """The generalized inverse with its saturated rows masked out and its live rows gathered and scattered."""
    x_arr = np.asarray(x, dtype=float)
    xs = np.atleast_1d(x_arr).astype(float)
    out = np.zeros_like(xs)
    if g.inverse is not None:
        live = ~(xs >= g.phi_at_zero())  # NaN rows too: their value is not finite, so they get 0
        if live.any():
            with np.errstate(over="ignore", divide="ignore"):
                vals = np.asarray(g.inverse(xs[live]), dtype=float)
            out[live] = np.clip(np.where(np.isfinite(vals), vals, 0.0), 0.0, 1.0)
    else:
        live = xs < g.phi_at_zero()  # no t has phi(t) <= NaN, so a NaN row is not bisected and gets 0
        if live.any():
            out[live] = families._bisect_inverse(g, xs[live])
    return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)


def ref_boundary(formula, dimension):
    """The boundary wrapper with its masks reduced along axis 1."""

    def wrapped(pts):
        if pts.size and pts.min() > 0.0 and pts.max() < 1.0:
            return np.clip(formula(pts), 0.0, 1.0)
        out = np.empty(pts.shape[0], dtype=float)
        zero = (pts == 0.0).any(axis=1)
        margin = ((pts == 1.0).sum(axis=1) >= dimension - 1) & ~zero
        inner = ~(zero | margin)
        out[zero] = 0.0
        if margin.any():
            out[margin] = pts[margin].min(axis=1)
        if inner.any():
            out[inner] = np.clip(formula(pts[inner]), 0.0, 1.0)
        return out

    return wrapped


def ref_tdf(spec):
    name = spec["name"]
    if name == "zero":
        return lambda pts: np.zeros(pts.shape[0])
    if name == "min":
        return lambda pts: pts.min(axis=1)
    if name == "clayton":
        a = float(spec["alpha"])

        def fn(pts):  # a row whose sum is 0 or inf, with no coordinate 0, in the form scaled by its minimum
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                total = (pts ** -a).sum(axis=1)
                out = total ** (-1.0 / a)
                m = pts.min(axis=1)
                redo = ((total == 0.0) | np.isinf(total)) & (m > 0.0)
                out[redo] = m[redo] * ((pts[redo] / m[redo, None]) ** -a).sum(axis=1) ** (-1.0 / a)
            return np.where(np.isfinite(out), out, 0.0)

        return fn
    if name == "fig1-piecewise":
        return lambda pts: (pts * [0.5, 1.0]).min(axis=1)

    def parabola(pts):
        s = pts.sum(axis=1)
        return pts[:, 0] * (pts[:, 1] / np.where(s > 0.0, s, 1.0))

    return parabola


def ref_formula(desc):
    """Raw CDF formula of a descriptor, written with reductions along axis 1."""
    fam, p = desc["family"], desc.get("params", {})
    if fam == "independence":
        return lambda pts: pts.prod(axis=1)
    if fam == "comonotone":
        return lambda pts: pts.min(axis=1)
    if fam == "countermonotone":
        return lambda pts: np.maximum(pts.sum(axis=1) - 1.0, 0.0)
    if fam == "archimedean":
        g = descriptors.generator_from_spec(p["generator"])

        def archimedean(pts):
            with np.errstate(divide="ignore", over="ignore"):
                total = np.asarray(g.phi(pts), dtype=float).sum(axis=1)
            return np.asarray(ref_generalized_inverse(g, total), dtype=float)

        return archimedean
    if fam == "marshall_olkin":
        a = p["alpha"]
        return lambda pts: np.minimum(pts[:, 0] ** (1.0 - a) * pts[:, 1], pts[:, 0])
    if fam == "gaussian":
        r = p["rho"]
        if abs(r) > families.GAUSS_RHO_CUTOFF:
            if r > 0:
                return lambda pts: pts.min(axis=1)
            return lambda pts: np.maximum(pts.sum(axis=1) - 1.0, 0.0)
        if r == 0.0:
            return lambda pts: pts.prod(axis=1)

        def gaussian(pts):  # Phi(a)Phi(b) is u1*u2 at a = Phi^-1(u1), b = Phi^-1(u2)
            q = ndtri(pts)
            return pts[:, 0] * pts[:, 1] + ref_normal_integral(q[:, 0], q[:, 1], r)

        return gaussian
    if fam in ("extreme_value", "lower_extreme_value"):
        lam = ref_tdf(p["tdf"])
        if fam == "extreme_value":

            def ev(pts):
                logs = np.log(pts)
                return np.exp(logs.sum(axis=1) + lam(-logs))

            return ev

        def lower_ev(pts):
            comp = 1.0 - pts
            return pts.prod(axis=1) + comp.prod(axis=1) * np.expm1(lam(-np.log1p(-pts)))

        return lower_ev
    if fam in ("fredricks_nelsen", "bertino", "semilinear"):
        delta = descriptors.diagonal_from_spec(p["diagonal"])
        if fam == "fredricks_nelsen":
            return lambda pts: np.minimum(pts.min(axis=1), 0.5 * np.asarray(delta(pts), dtype=float).sum(axis=1))
        if fam == "bertino":  # the power diagonals are convex: the inner minimum is at an endpoint

            def bertino(pts):
                lo, hi = pts.min(axis=1), pts.max(axis=1)
                d_lo = np.asarray(delta(lo), dtype=float)
                gap = hi - delta(hi)
                out = lo - gap
                np.copyto(out, d_lo, where=gap >= lo - d_lo)
                return out

            return bertino

        def semilinear(pts):
            hi = pts.max(axis=1)
            safe = np.where(hi > 0.0, hi, 1.0)
            return np.where(hi > 0.0, pts.min(axis=1) * np.asarray(delta(safe), dtype=float) / safe, 0.0)

        return semilinear
    if fam == "glue":
        left, right = ref_evaluator(desc["left"]), ref_evaluator(desc["right"])
        theta, j = p["split"], p["axis"] - 1
        k = 1 - j

        def glue(pts):
            a, b = pts[:, j], pts[:, k]
            lo = np.empty_like(pts)
            lo[:, j] = np.minimum(a / theta, 1.0)
            lo[:, k] = b
            hi = np.empty_like(pts)
            hi[:, j] = np.clip((a - theta) / (1.0 - theta), 0.0, 1.0)
            hi[:, k] = b
            return np.where(a <= theta, theta * left(lo), theta * b + (1.0 - theta) * right(hi))

        return glue
    if fam == "survival":
        inner = ref_evaluator(desc["inner"])
        return lambda pts: pts[:, 0] + pts[:, 1] - 1.0 + inner(1.0 - pts)
    assert fam == "hierarchical", fam
    outer, inner = ref_evaluator(desc["outer"]), ref_evaluator(desc["inner"])
    return lambda pts: outer(np.stack([pts[:, 0], inner(pts[:, 1:])], axis=1))


def ref_evaluator(desc):
    return ref_boundary(ref_formula(desc), _dimension(desc))


def _dimension(desc):
    if desc["family"] == "hierarchical":
        return 3
    return int(desc.get("params", {}).get("d", 2))


# ---------------------------------------------------------------- cases


def _arch(name, d=2, **params):
    return {"family": "archimedean", "params": {"generator": {"name": name, **params}, "d": d}}


def _power(family, p):
    return {"family": family, "params": {"diagonal": {"name": "power", "p": p}}}


def _tdf(family, name, **params):
    return {"family": family, "params": {"tdf": {"name": name, **params}}}


CASES = (
    [{"family": fam, "params": {"d": d}} for fam in ("independence", "comonotone") for d in (2, 3, 4)]
    + [{"family": "countermonotone", "params": {}}]
    + [_arch("clayton", d, theta=2.0) for d in (2, 3, 4)]
    + [_arch("gumbel", d, theta=2.0) for d in (2, 3, 4)]
    + [_arch("joe", d, theta=2.0) for d in (2, 3)]
    + [_arch("nonstrict-linear", d) for d in (2, 3)]
    + [{"family": "marshall_olkin", "params": {"alpha": 0.5}}]
    + [{"family": "gaussian", "params": {"rho": r}} for r in (0.5, -0.7, 0.0, 1.0, -1.0, 0.9995, -0.9995)]
    + [_tdf(fam, name) for fam in ("extreme_value", "lower_extreme_value")
       for name in ("zero", "min", "fig1-parabola", "fig1-piecewise")]
    + [_tdf(fam, "clayton", alpha=a) for fam in ("extreme_value", "lower_extreme_value") for a in (2.0, 40.0)]
    + [_power(fam, p) for fam in ("fredricks_nelsen", "bertino", "semilinear") for p in (1.0, 1.5, 2.0)]
    + [{"family": "glue", "params": {"axis": axis, "split": 0.4},
        "left": _arch("joe", theta=2.0), "right": {"family": "comonotone", "params": {"d": 2}}}
       for axis in (1, 2)]
    + [{"family": "survival", "inner": inner} for inner in (_arch("clayton", theta=2.0), _power("bertino", 1.5))]
    + [{"family": "hierarchical", "outer": _arch("clayton", theta=1.0), "inner": _arch("clayton", theta=2.0)},
       {"family": "hierarchical", "outer": _arch("gumbel", theta=1.5), "inner": _arch("gumbel", theta=2.0)}]
)


def _label(desc):
    parts = [desc["family"]]
    for value in desc.get("params", {}).values():
        parts += [str(v) for v in value.values()] if isinstance(value, dict) else [str(value)]
    parts += [_label(desc[k]) for k in ("left", "right", "outer", "inner") if k in desc]
    return "-".join(parts)


def interior_batch(seed, d, n=1024):
    """Half uniform on (0, 1)^d, half log-uniform on [1e-10, 1e-1]^d."""
    rng = np.random.default_rng([seed, d])
    uniform = rng.integers(1, 2**53, size=(n // 2, d)) / float(2**53)
    return np.concatenate([uniform, np.exp(rng.uniform(np.log(1e-10), np.log(1e-1), size=(n - n // 2, d)))])


def boundary_batch(seed, d):
    """Interior rows with coordinates set to exactly 0 or 1 in every pattern, shuffled among interior rows."""
    rng = np.random.default_rng([seed, d, 1])
    rows = []
    for pattern in np.ndindex(*(3,) * d):  # per coordinate: keep, 0 or 1
        row = rng.random(d)
        row[np.asarray(pattern) == 1] = 0.0
        row[np.asarray(pattern) == 2] = 1.0
        rows.append(row)
    pts = np.concatenate([np.asarray(rows), interior_batch(seed, d, 64)])
    return pts[rng.permutation(len(pts))]


def build(desc):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # |rho| beyond the Gaussian cutoff
        return descriptors.build_copula(desc)


# ---------------------------------------------------------------- tests


def test_cases_cover_every_family():
    assert {desc["family"] for desc in CASES} == set(descriptors._FAMILIES)


@pytest.mark.parametrize("desc", CASES, ids=_label)
@pytest.mark.parametrize("seed", [7, 8])
def test_family_values_are_bit_identical(desc, seed):
    c, ref = build(desc), ref_evaluator(desc)
    d = c.dimension
    for pts in (interior_batch(seed, d), boundary_batch(seed, d)):
        # an in-range batch reaches the formula uncopied: a formula that wrote into it would raise here
        pts.flags.writeable = False
        before = pts.copy()
        assert np.array_equal(c.cdf(pts), ref(pts))
        assert np.array_equal(pts, before)


def local_samples(d):
    """The cached samples of the local orders in dimension d: from radius 1 and 0.3, and on two cones."""
    return [orders._local_sample(d, top, cone)[0] for top, cone in ((1.0, 0.0), (0.3, 0.0), (1.0, 0.2), (1.0, 0.05))]


@pytest.mark.parametrize("desc", CASES, ids=_label)
def test_decomposed_batch_gives_the_array_values(desc):
    c = build(desc)
    d = c.dimension
    batches = [core.DecomposedBatch(pts) for pts in (interior_batch(7, d), boundary_batch(7, d))]
    for batch in batches + local_samples(d):
        want = c.cdf(batch.points)
        assert np.array_equal(np.asarray(c.cdf(batch)).view(np.int64), np.asarray(want).view(np.int64))


def test_local_samples_cover_both_paths():
    # the searched d = 2 sample has margin rows such as (1e-18, 1), so its batch holds its inner rows; the others go
    # to the formula whole
    assert [batch.rule is None for d in (2, 3, 4) for batch in local_samples(d)] == [False] + [True] * 11


@pytest.mark.parametrize("ufunc", [np.add, np.multiply, np.minimum, np.maximum, np.logical_or])
@pytest.mark.parametrize("d", range(1, 8))
def test_row_reduce_matches_the_axis_reduction(ufunc, d):
    pts = interior_batch(3, d, 512) * np.geomspace(1e-3, 1e3, d)
    if ufunc is np.logical_or:
        pts = pts < 0.05
    assert np.array_equal(core._row_reduce(ufunc, pts), ufunc.reduce(pts, axis=1))


@pytest.mark.parametrize("d", range(1, 5))
def test_bertino_region_is_the_axis_max(d):
    pts = interior_batch(4, d, 512)
    e = np.exp(-1.0)
    pts[::7, 0], pts[1::7, -1], pts[2::7, 0] = e, np.nextafter(e, 1.0), np.nextafter(e, 0.0)
    assert np.array_equal(core.REGIONS["max(u) > 1/e"](pts), pts.max(axis=1) > e)


def test_row_reduce_counts_boolean_columns():
    pts = boundary_batch(2, 3) == 1.0
    assert np.array_equal(core._row_reduce(np.add, pts, dtype=np.intp), pts.sum(axis=1))


class TestBlockedNormalCdf:
    B = families._NORMAL_BLOCK

    @pytest.mark.parametrize("rho", [0.5, -0.7, 0.999, 0.0])
    @pytest.mark.parametrize("size", [0, 1, 2, B - 1, B, B + 1, B + 2, 2 * B + 1, 2 * B + 3, 64 * B])
    def test_sizes(self, rho, size):
        rng = np.random.default_rng(size)
        a, b = rng.normal(scale=3.0, size=(2, size))
        got = bivariate_normal_cdf(a, b, rho)
        assert got.shape == (size,) and np.array_equal(got, ref_normal_cdf(a, b, rho))

    def test_scalars_give_a_float(self):
        for rho in (0.5, -0.7, 0.0):
            got = bivariate_normal_cdf(-1.2, 0.4, rho)
            assert type(got) is float and got == ref_normal_cdf(-1.2, 0.4, rho)

    def test_zero_dimensional_arrays_keep_their_type(self):
        got = bivariate_normal_cdf(np.asarray(-1.2), np.asarray(0.4), 0.5)
        want = ref_normal_cdf(np.asarray(-1.2), np.asarray(0.4), 0.5)
        assert type(got) is type(want) and np.shape(got) == () and got == want

    @pytest.mark.parametrize("shapes", [((5, 1), (7,)), ((3, 4), ()), ((), (2, 3, 1)), ((1, 2 * B + 3), (2, 1))])
    def test_broadcast_shapes(self, shapes):
        rng = np.random.default_rng(len(shapes[0]))
        a = rng.normal(size=shapes[0])
        b = rng.normal(size=shapes[1])
        got = bivariate_normal_cdf(a, b, 0.6)
        want = ref_normal_cdf(a, b, 0.6)
        assert got.shape == np.broadcast_shapes(a.shape, b.shape) and np.array_equal(got, want)


class TestGeneralizedInverse:
    GENERATORS = {
        "clayton": families.clayton_generator(2.0),
        "gumbel": families.gumbel_generator(2.0),
        "joe": families.joe_generator(2.0),
        "nonstrict-linear": families.nonstrict_linear_generator(),
        # a closed form that folds back up beyond phi(0) = 1 and is infinite at x = 0: those rows get 0 only
        # from the masks, x < phi(0) and a finite value
        "folded": families.Generator(phi=lambda t: 1.0 - t, inverse=lambda x: np.abs(1.0 - x) / (x > 0.0),
                                     strict=False, rv_index_at_0=0.0),
        # phi(0) = 1 and no closed form, so the bisection path sees saturated rows too
        "bisected": families.Generator(phi=lambda t: (1.0 - t) ** 2, inverse=None, strict=False, rv_index_at_0=0.0),
    }

    def rows(self, g):
        return np.concatenate([[0.0, 1e-300, g.phi_at_zero(), np.inf, np.nan], np.geomspace(1e-12, 1e3, 40)])

    @pytest.mark.parametrize("name", GENERATORS)
    def test_rows_match_the_masked_reference(self, name):
        g = self.GENERATORS[name]
        x = self.rows(g)
        assert np.array_equal(families.generalized_inverse(g, x), ref_generalized_inverse(g, x))
        x2 = x.reshape(5, 9)
        got = families.generalized_inverse(g, x2)
        assert got.shape == (5, 9) and np.array_equal(got, ref_generalized_inverse(g, x2))

    @pytest.mark.parametrize("name", ["clayton", "gumbel", "joe", "nonstrict-linear", "bisected"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_archimedean_formula_is_the_clipped_inverse(self, name, d):
        # the formula leaves generalized_inverse's clip to Copula._evaluate: its bits are still those of the
        # clipped inverse of the summed generator, Joe's -0.0 where that sum exceeds 37 included
        g = self.GENERATORS[name]
        tail = np.geomspace(1e-12, 1e-6, 7 * d).reshape(7, d)
        pts = np.concatenate([interior_batch(9, d), boundary_batch(9, d), tail])
        with np.errstate(divide="ignore", over="ignore"):
            x = np.asarray(g.phi(pts), dtype=float).sum(axis=1)
        want = np.clip(families.generalized_inverse(g, x), 0.0, 1.0)
        assert np.array_equal(families.archimedean(g, d)._formula(pts).view(np.int64), want.view(np.int64))
        assert np.signbit(want).any() == (name == "joe")

    @pytest.mark.parametrize("name", GENERATORS)
    def test_a_negative_sum_raises(self, name):
        # one reduction checks the domain, and skips NaN: a negative beside a NaN still raises
        g = self.GENERATORS[name]
        for x in ([0.5, -1e-300], [np.nan, -1.0], -0.25):
            with pytest.raises(core.DomainError, match="x >= 0"):
                families.generalized_inverse(g, x)
            with pytest.raises(core.DomainError, match="x >= 0"):
                families._inverse(g, np.asarray(x, dtype=float), g.phi_at_zero())

    @pytest.mark.parametrize("name", ["folded", "bisected"])
    def test_nan_gives_zero_with_and_without_a_closed_form(self, name):
        g = self.GENERATORS[name]
        assert families.generalized_inverse(g, np.nan) == 0.0
        assert families.generalized_inverse(g, np.array([0.25, np.nan]))[1] == 0.0

    @pytest.mark.parametrize("name", GENERATORS)
    def test_scalars_and_zero_dimensional_arrays_give_floats(self, name):
        g = self.GENERATORS[name]
        for v in self.rows(g)[:8]:
            want = ref_generalized_inverse(g, v)
            for x in (float(v), np.asarray(v)):
                got = families.generalized_inverse(g, x)
                assert type(got) is float and got == want, (name, v)
