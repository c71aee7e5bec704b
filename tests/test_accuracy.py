"""Every accuracy pair the orders use, measured on the points the orders sample.

A pair (rel, abs) that an evaluator carries as its ``accuracy`` claims that
a computed value v of a true value x has |v - x| <= rel * |x| + abs.  Each
case here evaluates one evaluator on the log-polar sample of the local
orders (radii from 1 down to 1e-14, directions up to 1e-18 from a face) and
on s * w for s in {1e-2, 1e-8, 1e-14} over simplex directions including the
faces, and compares with mpmath at 40 digits.  The Gaussian copula's pairs
are measured in ``test_gaussian.py``.
"""

import mpmath as mp
import numpy as np
import pytest

import tailorder as to
from tailorder import core, descriptors, orders, taildep

mp.mp.dps = 40
F = mp.mpf


def copula_points(d):
    """Half the log-polar directions of the local orders at six radii, and s * w on the simplex."""
    dirs = orders._local_directions(d)[:: 2 if d == 2 else 6]
    radii = np.array([1.0, 0.25, 1e-2, 2.0**-21.5, 1e-8, 1e-14])
    local = np.minimum(radii[:, None, None] * dirs[None], 1.0).reshape(-1, d)
    w = taildep.simplex_directions(11 if d == 2 else 5, d)
    if d == 2:
        w = np.vstack([w, [[1.0, 1e-3], [1e-6, 1.0], [1.0, 1e-12]]])
    return np.concatenate([local, *(s * w for s in (1e-2, 1e-8, 1e-14))])


def worst_excess(values, reference, points, pair):
    """Largest |v - x| - (rel |x| + abs) over the points, abs counted only in a pair's region;
    at most 0 when the pair holds."""
    rel, abs_, *region = pair
    worst = -np.inf
    for p, v in zip(points, np.asarray(values, dtype=float).reshape(-1)):
        x = reference([F(float(c)) for c in np.atleast_1d(p)])
        a = abs_ if not region or core.REGIONS[region[0]](np.atleast_2d(p))[0] else 0.0
        worst = max(worst, float(abs(F(float(v)) - x) - (rel * abs(x) + a)))
    return worst


# ---------------------------------------------------------------- mpmath references


def archimedean_ref(name, theta):
    th = F(theta)
    phi, inv = {
        "clayton": (lambda t: (t**-th - 1) / th, lambda x: (1 + th * x) ** (-1 / th)),
        "gumbel": (lambda t: (-mp.log(t)) ** th, lambda x: mp.exp(-(x ** (1 / th)))),
        "joe": (lambda t: -mp.log(1 - (1 - t) ** th), lambda x: 1 - (1 - mp.exp(-x)) ** (1 / th)),
    }[name]
    return phi, inv, lambda u: F(0) if min(u) == 0 else inv(mp.fsum(phi(x) for x in u))


def tdf_ref(name, alpha=None):
    if name == "zero":
        return lambda w: F(0)
    if name == "min":
        return min
    if name == "clayton":
        a = F(alpha)
        return lambda w: F(0) if min(w) == 0 else mp.fsum(x**-a for x in w) ** (-1 / a)
    if name == "fig1-parabola":
        return lambda w: F(0) if w[0] + w[1] == 0 else w[0] * w[1] / (w[0] + w[1])
    return lambda w: min(w[0] / 2, w[1])  # fig1-piecewise


def ev_ref(lam):
    return lambda u: F(0) if min(u) == 0 else mp.exp(mp.log(u[0]) + mp.log(u[1]) + lam([-mp.log(x) for x in u]))


def lev_ref(lam):
    return lambda u: min(u) if max(u) == 1 else (
        u[0] * u[1] + (1 - u[0]) * (1 - u[1]) * mp.expm1(lam([-mp.log1p(-x) for x in u])))


def diagonal_refs(p):
    p = F(p)
    fn = lambda u: min(u[0], u[1], (u[0] ** p + u[1] ** p) / 2)  # noqa: E731
    # a convex diagonal's t - delta(t) is concave, so Bertino's inner minimum sits at an endpoint;
    # at t = min the value is delta(min), which min - (min - delta(min)) would lose to cancellation
    bertino = lambda u: min(u) ** p if min(u) - min(u) ** p <= max(u) - max(u) ** p else (  # noqa: E731
        min(u) - (max(u) - max(u) ** p))
    semilinear = lambda u: F(0) if max(u) == 0 else min(u) * max(u) ** (p - 1)  # noqa: E731
    return fn, bertino, semilinear


def glue_ref(left, axis, split):
    def ref(u):
        j, k, th = axis - 1, 2 - axis, F(split)
        if u[j] <= th:
            x = [None, None]
            x[j], x[k] = min(u[j] / th, 1), u[k]
            return th * left(x)
        return th * u[k] + (1 - th) * min(max((u[j] - th) / (1 - th), 0), u[k])  # right piece is M

    return ref


def glue_tdf_ref(left, axis, split):
    # near the origin only the left piece counts: split * Lambda_left(w with w_j replaced by w_j / split)
    th = F(split)
    return lambda w: th * left([x / th if k == axis - 1 else x for k, x in enumerate(w)])


def shorthand(text):
    return descriptors.build_copula(descriptors.parse_shorthand(text))


def copula_cases():
    cases = []
    for d in (2, 3, 4):
        cases += [(f"independence-d{d}", to.independence(d), mp.fprod),
                  (f"comonotone-d{d}", to.comonotone(d), min)]
    cases += [("countermonotone", to.countermonotone(), lambda u: max(u[0] + u[1] - 1, 0)),
              ("nonstrict-linear", shorthand("nonstrict-linear"), lambda u: max(u[0] + u[1] - 1, 0))]
    # Clayton(20) and Gumbel(200): phi overflows near 0, and the copula's pair covers the 0s it makes;
    # Clayton near theta = 0: t^-theta - 1 cancels, and the pair's rel grows like ulp/theta
    for name, thetas in (("clayton", (1e-12, 1e-3, 0.03, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 20.0)),
                         ("gumbel", (1.5, 2.0, 3.0, 200.0)), ("joe", (1.5, 2.0, 3.0))):
        for th in thetas:
            for d in (2, 3):
                gen = descriptors.generator_from_spec({"name": name, "theta": th})
                cases.append((f"{name}-{th:g}-d{d}", to.archimedean(gen, d), archimedean_ref(name, th)[2]))
    for a in (0.25, 0.5, 0.75):
        cases.append((f"marshall-olkin-{a}", to.marshall_olkin(a),
                      lambda u, a=F(a): min(u[0] ** (1 - a) * u[1], u[0])))
    for fixture, alpha in (("zero", None), ("min", None), ("clayton", 2.0), ("fig1-parabola", None),
                           ("fig1-piecewise", None)):
        text = fixture if alpha is None else f"{fixture}:{alpha:g}"
        cases += [(f"ev-{text}", shorthand(f"ev:{text}"), ev_ref(tdf_ref(fixture, alpha))),
                  (f"lev-{text}", shorthand(f"lev:{text}"), lev_ref(tdf_ref(fixture, alpha)))]
    for p in (1.25, 1.5, 1.75, 2.0):
        for family, ref in zip(("fn", "bertino", "semilinear"), diagonal_refs(p)):
            cases.append((f"{family}-{p:g}", shorthand(f"{family}:{p:g}"), ref))
    joe = shorthand("joe:2")
    for axis in (1, 2):
        cases.append((f"glue-joe-axis{axis}", to.glue(joe, to.comonotone(), axis, 0.5),
                      glue_ref(archimedean_ref("joe", 2.0)[2], axis, 0.5)))
    for text, inner in (("gumbel:2", archimedean_ref("gumbel", 2.0)[2]),
                        ("clayton:1", archimedean_ref("clayton", 1.0)[2]), ("independence", mp.fprod)):
        cases.append((f"survival-{text}", to.survival(shorthand(text)),
                      lambda u, inner=inner: u[0] + u[1] - 1 + inner([1 - u[0], 1 - u[1]])))
    for (o, to_), (i, ti) in ((("clayton", 1.0), ("clayton", 2.0)), (("gumbel", 1.5), ("gumbel", 2.0))):
        outer, inner = archimedean_ref(o, to_)[2], archimedean_ref(i, ti)[2]
        cases.append((f"hierarchical-{o}-{to_:g}-{ti:g}",
                      to.hierarchical(shorthand(f"{o}:{to_:g}"), shorthand(f"{i}:{ti:g}")),
                      lambda u, outer=outer, inner=inner: outer([u[0], inner([u[1], u[2]])])))
    return cases


COPULAS = copula_cases()


@pytest.mark.parametrize("c, ref", [case[1:] for case in COPULAS], ids=[case[0] for case in COPULAS])
def test_copula_pair_holds(c, ref):
    pts = copula_points(c.dimension)
    assert worst_excess(c.cdf(pts), ref, pts, c.accuracy) <= 0.0


@pytest.mark.parametrize("d", [2, 3])
def test_bisected_inverse_meets_the_custom_pair(d):
    # Gumbel(2)'s phi without its closed-form inverse, so generalized_inverse bisects
    g = to.gumbel_generator(2.0)
    c = to.archimedean(to.Generator(g.phi, None, True, 0.0), d)
    pts = copula_points(d)
    values = c.cdf(pts)
    assert c.accuracy == core.CUSTOM
    assert worst_excess(values, archimedean_ref("gumbel", 2.0)[2], pts, core.CUSTOM) <= 0.0
    # each row is bisected to its own bracket, whatever rows share its batch
    np.testing.assert_array_equal(values[::7], [c.eval(p) for p in pts[::7]])


def test_every_builder_sets_its_pair():
    # a family that forgot its pair would pass its measurement with the stand-in CUSTOM, (1e-12, 0)
    built = [c for _, c, _ in COPULAS] + [to.gaussian(rho) for rho in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    for table, build in ((descriptors._GENERATORS, descriptors.generator_from_spec),
                         (descriptors._DIAGONALS, descriptors.diagonal_from_spec),
                         (descriptors._TDFS, descriptors.tdf_from_spec)):
        built += [build({"name": name, **{k: 2.0 for k in keys}}) for name, (keys, _) in table.items()]
    assert [x for x in built if x.accuracy == core.CUSTOM] == []


def test_every_builder_sets_its_tdf():
    # a family that forgot its tail dependence function would fall back to estimation without a word;
    # survival has none, since its tail comes from the inner copula's upper tail
    built = [c for _, c, _ in COPULAS] + [to.gaussian(rho) for rho in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    assert [c for c in built if c.tdf is None and c.descriptor["family"] != "survival"] == []


def test_every_family_is_measured():
    measured = {c.descriptor["family"] for _, c, _ in COPULAS} | {"gaussian"}  # in test_gaussian.py
    assert measured == set(descriptors._FAMILIES)


TDFS = [(f"{name}-d{d}", lam, ref) for d in (2, 3, 4) for name, lam, ref in (
    ("zero", to.zero_tdf(d), tdf_ref("zero")), ("min", to.min_tdf(d), tdf_ref("min")),
    *((f"clayton-{a:g}", to.archimedean_tdf(a, d), tdf_ref("clayton", a)) for a in (0.002, 0.01, 0.25, 1.0, 5.0, 15.0)),
)] + [(name, descriptors.tdf_from_spec({"name": name}), tdf_ref(name)) for name in ("fig1-parabola", "fig1-piecewise")]
TDFS += [(f"glue-clayton-{a:g}-axis{axis}", to.glue(shorthand(f"clayton:{a:g}"), to.independence(), axis, 0.3).tdf,
          glue_tdf_ref(tdf_ref("clayton", a), axis, 0.3)) for a in (1.0, 2.0) for axis in (1, 2)]
TDFS.append(("hierarchical-clayton-1-2", to.hierarchical(shorthand("clayton:1"), shorthand("clayton:2")).tdf,
             lambda w: tdf_ref("clayton", 1.0)([w[0], tdf_ref("clayton", 2.0)(w[1:])])))


@pytest.mark.parametrize("lam, ref", [case[1:] for case in TDFS], ids=[case[0] for case in TDFS])
def test_tail_dependence_pair_holds(lam, ref):
    # the grid of the tail dependence order, and near-face directions at three scales, where w^-alpha overflows
    # for Clayton with alpha = 15
    d = lam.dimension
    pts = np.concatenate([taildep.simplex_directions({2: 65, 3: 33, 4: 17}[d], d), copula_points(d)])
    assert worst_excess(lam(pts), ref, pts, lam.accuracy) <= 0.0


@pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0, 20.0, 100.0])
def test_clayton_pair_holds_down_to_1e_300(alpha):
    # coordinates 10^U(-300, 0): w^-alpha overflows below about 10^(-308/alpha), where Lambda is recomputed scaled
    # by the smallest coordinate; 400 points per alpha, against mpmath at 50 digits
    pts = 10.0 ** np.random.default_rng([31, int(alpha)]).uniform(-300.0, 0.0, size=(400, 2))
    with np.errstate(over="ignore"):
        assert np.isinf((pts ** -alpha).sum(axis=1)).any() == (alpha > 1.0)
    lam = to.archimedean_tdf(alpha)
    with mp.workdps(50):
        assert worst_excess(lam(pts), tdf_ref("clayton", alpha), pts, lam.accuracy) <= 0.0


@pytest.mark.parametrize("alpha, rows", [(1.04, [[1e300, 1e300], [1.7e308, 1.7e308], [1e300, 3e305]]),
                                         (2.0, [[1e160, 1e160], [1e155, 1e160]])])
def test_clayton_pair_holds_where_the_sum_is_subnormal(alpha, rows):
    # every coordinate large, so the sum of w^-alpha lies below the normal range, where Lambda is recomputed
    # scaled by the smallest coordinate; against mpmath at 50 digits
    pts = np.array(rows)
    total = (pts ** -alpha).sum(axis=1)
    assert ((0.0 < total) & (total < np.finfo(float).tiny)).all()
    lam = to.archimedean_tdf(alpha)
    with mp.workdps(50):
        assert worst_excess(lam(pts), tdf_ref("clayton", alpha), pts, lam.accuracy) <= 0.0


# a hair from either face, where a value is far below ulp(1) and only a relative error can bound it
FACE = np.array([[3.4e-7, 3.4e-24], [3.4e-24, 3.4e-7], [0.5, 1e-20], [1e-20, 0.5], [1e-3, 1e-15]])


@pytest.mark.parametrize("name", ["fig1-parabola", "fig1-piecewise"])
def test_fig1_pairs_hold_near_the_faces(name):
    lam = descriptors.tdf_from_spec({"name": name})
    assert worst_excess(lam(FACE), tdf_ref(name), FACE, lam.accuracy) <= 0.0
    for head, ref in (("ev", ev_ref), ("lev", lev_ref)):
        c = shorthand(f"{head}:{name}")
        assert worst_excess(c.cdf(FACE), ref(tdf_ref(name)), FACE, c.accuracy) <= 0.0


@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 1.75, 2.0])
def test_power_diagonal_pair_holds(p):
    t = np.linspace(0.0, 1.0, 65)[1:]  # the grid of the diagonal order, and its scaled copies
    t = np.concatenate([t, 1e-8 * t, 1e-14 * t])
    delta = to.power_diagonal(p)
    assert worst_excess(delta(t), lambda x: x[0] ** F(p), t, delta.accuracy) <= 0.0


def test_copula_diagonal_takes_the_copula_pair():
    c = shorthand("gumbel:2")
    assert to.diagonal_of(c).accuracy == c.accuracy == to.gumbel_generator(2.0).accuracy


GENERATORS = [("clayton", 1.0), ("clayton", 2.0), ("clayton", 4.0), ("gumbel", 2.0), ("joe", 2.0)]


@pytest.mark.parametrize("first", GENERATORS, ids=lambda g: f"{g[0]}-{g[1]:g}")
@pytest.mark.parametrize("second", GENERATORS, ids=lambda g: f"{g[0]}-{g[1]:g}")
def test_generator_pairs_hold(first, second):
    """The values the generator checks compare carry the sum of the two generators' pairs."""
    g1, g2 = (descriptors.generator_from_spec({"name": n, "theta": th}) for n, th in (first, second))
    (phi1, _, _), (phi2, inv2, _) = archimedean_ref(*first), archimedean_ref(*second)
    pair = tuple(map(sum, zip(g1.accuracy, g2.accuracy)))
    t = np.geomspace(0.5e-9, 0.5, 65)  # ratio monotonicity on (0, 1/2)
    with np.errstate(over="ignore", divide="ignore"):
        psi = g1.phi(t) / g2.phi(t)
    assert worst_excess(psi, lambda x: phi1(x[0]) / phi2(x[0]), t, pair) <= 0.0
    if "joe" not in (first[0], second[0]):  # Joe's inverse is 0 beyond x = 37, so phi1 of it is inf
        x = np.geomspace(10.0, 2000.0, 33)  # subadditivity from M = 10: arguments up to 2 * 100 M
        f = g1.phi(to.generalized_inverse(g2, x))
        assert worst_excess(f, lambda y: phi1(inv2(y[0])), x, pair) <= 0.0


@pytest.mark.parametrize("lam, pair", [
    (to.estimated_tdf(to.independence()), (0.0, 1e-6)),
    (to.TailDepFunction(lambda p: p.min(axis=1), 2), core.CUSTOM),
], ids=["estimated", "custom"])
def test_unmeasured_evaluators_take_stand_in_pairs(lam, pair):
    assert lam.accuracy == pair
    assert to.copula_from_callable(lambda p: p.min(axis=1), 2).accuracy == (1e-12, 0.0)
