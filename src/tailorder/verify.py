"""Named desk-scale verification suites for the library's main identities.

Each suite re-derives a batch of claims numerically (tail expansions,
Archimedean order pipeline, extreme value roundtrips, diagonal
constructions, cone orderings, and the limiting Spearman inequality) and
reports one pass/fail outcome per claim.  Everything is deterministic.
"""

from __future__ import annotations

import numpy as np

from . import core, families, orders, taildep
from .core import Record
from .descriptors import build_copula, parse_shorthand

__all__ = ["CheckOutcome", "SUITES", "run_suite", "suite_names"]


class CheckOutcome(Record):
    """One claim of a suite and whether it held, with a detail line."""

    suite: str
    name: str
    passed: bool
    detail: str


def _outcome(suite, name, passed, detail=""):
    return CheckOutcome(suite, name, bool(passed), detail)


def _grid_points(n=64):
    return core._tensor_grid(np.linspace(0.0, 1.0, n + 1), 2)


def _clayton(theta):
    return families.archimedean(families.clayton_generator(theta))


def _matching_pairs():
    """Named fixture copulas, each carrying its closed-form tail dependence function as ``tdf``."""
    fixtures = (("independence", "independence"), ("comonotone", "comonotone"),
                ("marshall-olkin-0.5", "marshall-olkin:0.5"), ("clayton-1", "clayton:1"),
                ("clayton-2", "clayton:2"), ("nonstrict-linear", "nonstrict-linear"),
                ("lev-parabola", "lev:fig1-parabola"), ("lev-piecewise", "lev:fig1-piecewise"))
    return [(name, build_copula(parse_shorthand(text))) for name, text in fixtures]


def _suite_expansion():
    out = []
    cp = core.comonotone()
    worst = max(
        abs(taildep.tail_expansion_residual(cp, cp.tdf, (u, v)))
        for u, v in ((0.3, 0.7), (0.05, 0.02), (0.5, 0.5))
    )
    out.append(_outcome("expansion", "comonotone-residual-exact", worst <= 1e-15, f"worst |R| = {worst:.2e}"))

    c1 = _clayton(1.0)
    worst = max(abs(taildep.tail_expansion_residual(c1, c1.tdf, (s, s)) - s / (4.0 * (2.0 - s)))
                for s in (0.1, 0.01, 0.001))
    out.append(_outcome("expansion", "clayton-residual-closed-form", worst <= 1e-9, f"worst dev = {worst:.2e}"))

    pi = core.independence()
    devs = [abs(taildep.tail_expansion_residual(pi, pi.tdf, (s, s)) - s / 2.0) for s in (0.1, 0.01, 0.001)]
    out.append(_outcome("expansion", "product-residual-s-over-2", max(devs) <= 1e-15, f"worst dev = {max(devs):.2e}"))

    scales = [10.0 ** (-k) for k in range(1, 7)]
    for name, c in (("clayton-2", _clayton(2.0)), ("product", pi)):
        res = [abs(taildep.tail_expansion_residual(c, c.tdf, (s, s))) for s in scales]
        shrinking = all(b <= a + 1e-15 for a, b in zip(res, res[1:])) and res[-1] < 1e-4
        out.append(_outcome("expansion", f"residual-vanishes-{name}", shrinking, f"last |R| = {res[-1]:.2e}"))
    return out


def _suite_archimedean():
    out = []
    gens = {t: families.clayton_generator(t) for t in (1.0, 2.0, 4.0)}
    for t1, t2 in ((1.0, 2.0), (1.0, 4.0), (2.0, 4.0)):
        g1, g2 = gens[t1], gens[t2]
        c1, c2 = _clayton(t1), _clayton(t2)
        ratio = orders.ratio_monotonicity_check(g1, g2, 0.5)
        sub = orders.subadditivity_check(g1, g2, 10.0)
        loc = orders.check_loc(c1, c2, 0.2)
        ok = ratio.holds and sub.holds and loc.holds
        out.append(_outcome("archimedean", f"pipeline-holds-{t1:g}-{t2:g}", ok,
                            f"ratio={ratio.status}, subadd={sub.status}, loc={loc.status}"))
        ratio_r = orders.ratio_monotonicity_check(g2, g1, 0.5)
        sub_r = orders.subadditivity_check(g2, g1, 10.0)
        loc_r = orders.check_loc(c2, c1, 0.2)
        ok = ratio_r.status == sub_r.status == loc_r.status == orders.FAILS
        out.append(_outcome("archimedean", f"pipeline-fails-{t2:g}-{t1:g}", ok,
                            f"ratio={ratio_r.status}, subadd={sub_r.status}, loc={loc_r.status}"))

    fixture_gens = [gens[1.0], gens[2.0], gens[4.0],
                    families.gumbel_generator(2.0), families.joe_generator(2.0)]
    all_consistent = True
    for i, g1 in enumerate(fixture_gens):
        for g2 in fixture_gens[i:]:
            rep = orders.archimedean_order_equivalence(g1, g2)
            all_consistent &= rep.consistent
    out.append(_outcome("archimedean", "equivalence-chain-consistent", all_consistent,
                        f"{len(fixture_gens) * (len(fixture_gens) + 1) // 2} pairs"))

    ns = families.archimedean(families.nonstrict_linear_generator())
    t = np.linspace(0.0, 1.0, 129)
    U, V = np.meshgrid(t, t, indexing="ij")
    mask = U + V <= 0.999
    pts = np.stack([U[mask], V[mask]], axis=1)
    flat = float(np.abs(ns.cdf(pts)).max())
    out.append(_outcome("archimedean", "nonstrict-flat-region", flat == 0.0, f"max |C| = {flat:.2e}"))
    loc_all = all(
        orders.check_loc(ns, c, 0.5).status in (orders.HOLDS, orders.INDISTINGUISHABLE)
        for _, c in _matching_pairs()
    )
    out.append(_outcome("archimedean", "nonstrict-loc-below-fixtures", loc_all))

    devs = [abs(taildep.regular_variation_index(gen).value - want)
            for gen, want in ((gens[2.0], 2.0), (families.gumbel_generator(2.0), 0.0),
                              (families.joe_generator(2.0), 0.0))]
    out.append(_outcome("archimedean", "rv-index-matches-analytic", max(devs) <= 1e-3,
                        f"worst dev = {max(devs):.2e}"))

    c2 = _clayton(2.0)
    dirs = taildep.simplex_directions(21)
    worst = float(np.abs(taildep.estimate_tdfs(c2, dirs).value - c2.tdf(dirs)).max())
    out.append(_outcome("archimedean", "clayton-tdf-surface", worst <= 5e-3, f"worst dev = {worst:.2e}"))
    return out


def _suite_ev():
    out = []
    parab, piece = taildep.fig1_parabola(), taildep.fig1_piecewise()
    lams = [("zero", taildep.zero_tdf()), ("min", taildep.min_tdf()),
            ("clayton-2", taildep.archimedean_tdf(2.0)),
            ("parabola", parab), ("piecewise", piece)]
    dirs = taildep.simplex_directions(21)
    for name, lam in lams:
        est = taildep.estimate_tdfs(families.lower_ev_copula(lam), dirs)
        worst = float(np.abs(est.value - lam(dirs)).max())
        out.append(_outcome("ev", f"roundtrip-{name}", worst <= 5e-3, f"worst dev = {worst:.2e}"))

    pts = _grid_points(64)
    ordered = [("zero", "clayton-1", taildep.zero_tdf(), taildep.archimedean_tdf(1.0)),
               ("clayton-1", "clayton-2", taildep.archimedean_tdf(1.0), taildep.archimedean_tdf(2.0)),
               ("clayton-2", "min", taildep.archimedean_tdf(2.0), taildep.min_tdf()),
               ("parabola", "min", parab, taildep.min_tdf()),
               ("piecewise", "min", piece, taildep.min_tdf())]
    for n1, n2, l1, l2 in ordered:
        lev1, lev2 = families.lower_ev_copula(l1), families.lower_ev_copula(l2)
        gap = float((np.asarray(lev1.cdf(pts)) - np.asarray(lev2.cdf(pts))).max())
        out.append(_outcome("ev", f"global-order-{n1}-below-{n2}", gap <= 1e-9, f"max gap = {gap:.2e}"))

    ev0 = families.ev_copula(taildep.zero_tdf())
    pi = core.independence()
    dev = float(np.abs(np.asarray(ev0.cdf(pts)) - np.asarray(pi.cdf(pts))).max())
    out.append(_outcome("ev", "zero-gives-product", dev <= 1e-12, f"max dev = {dev:.2e}"))
    evm = families.ev_copula(taildep.min_tdf())
    cp = core.comonotone()
    dev = float(np.abs(np.asarray(evm.cdf(pts)) - np.asarray(cp.cdf(pts))).max())
    out.append(_outcome("ev", "min-gives-comonotone", dev <= 1e-12, f"max dev = {dev:.2e}"))
    return out


def _suite_diagonal():
    out = []
    pts = _grid_points(64)
    t = np.linspace(0.0, 1.0, 257)
    for p in (1.0, 1.5, 2.0):
        delta = families.power_diagonal(p)
        fn = families.fredricks_nelsen(delta)
        bert = families.bertino(delta)
        dev = max(
            float(np.abs(np.asarray(fn.diagonal(t)) - delta(t)).max()),
            float(np.abs(np.asarray(bert.diagonal(t)) - delta(t)).max()),
        )
        out.append(_outcome("diagonal", f"reproduces-diagonal-p{p:g}", dev <= 1e-9, f"worst dev = {dev:.2e}"))
        gap = float((np.asarray(bert.cdf(pts)) - np.asarray(fn.cdf(pts))).max())
        out.append(_outcome("diagonal", f"bertino-below-fn-p{p:g}", gap <= 1e-9, f"max gap = {gap:.2e}"))
        ok = core.validate_copula(fn).passed and core.validate_copula(bert).passed
        out.append(_outcome("diagonal", f"constructions-valid-p{p:g}", ok))

    d1 = families.diagonal_of(_clayton(1.0))
    d2 = families.diagonal_of(_clayton(2.0))
    v = orders.check_diagonal_order(d1, d2)
    out.append(_outcome("diagonal", "strict-pair-ordered-near-0", v.holds and v.epsilon > 0,
                        f"epsilon = {v.epsilon}"))

    sl = families.semilinear(families.power_diagonal(2.0))
    pi = core.independence()
    dev = float(np.abs(np.asarray(sl.cdf(pts)) - np.asarray(pi.cdf(pts))).max())
    out.append(_outcome("diagonal", "semilinear-square-gives-product", dev <= 1e-12, f"max dev = {dev:.2e}"))
    dev = float(np.abs(np.asarray(sl.diagonal(t)) - families.power_diagonal(2.0)(t)).max())
    out.append(_outcome("diagonal", "semilinear-diagonal-exact", dev <= 1e-15, f"worst dev = {dev:.2e}"))
    return out


def _suite_cone():
    out = []
    mo = families.marshall_olkin(0.5)
    c1 = _clayton(1.0)
    tdo = orders.check_tdo(mo.tdf, c1.tdf)
    out.append(_outcome("cone", "mo-strictly-below-clayton-tdo",
                        tdo.status == orders.HOLDS_STRICTLY, tdo.status))
    for eps in (0.2, 0.1, 0.05):
        v = orders.check_loc(mo, c1, eps)
        ok = v.status == orders.FAILS and v.witness is not None
        detail = ""
        if v.witness:
            u1, u2 = v.witness["point"]
            detail = f"witness near curve: u2/sqrt(u1) = {u2 / np.sqrt(u1):.2f}"
        out.append(_outcome("cone", f"loc-fails-eps-{eps}", ok, detail))
    v = orders.check_cone_order(mo, c1, orders.ConeSpec(0.2))
    out.append(_outcome("cone", "cone-order-holds-c-0.2", v.holds and v.epsilon >= 2.0**-20,
                        f"epsilon = {v.epsilon}"))
    v = orders.check_cone_order(mo, c1, orders.ConeSpec(0.001), 0.05)
    out.append(_outcome("cone", "degenerate-cone-fails", v.status == orders.FAILS,
                        "curve points enter the sample"))
    return out


def _suite_spearman():
    out = []
    for name, c in _matching_pairs():
        est = taildep.tdc(c)
        bound = taildep.spearman_tdf_limit(c.tdf)
        # the inequality concerns the true limit; grant the estimate its error bar
        slack = max(1e-6, 10.0 * est.error_estimate)
        out.append(_outcome("spearman", f"bound-dominates-{name}", est.value <= bound + slack,
                            f"tdc = {est.value:.6f} <= bound = {bound:.6f} (+{slack:.1e})"))
    bound = taildep.spearman_tdf_limit(taildep.min_tdf())
    out.append(_outcome("spearman", "equality-comonotone", abs(bound - 1.0) <= 1e-6,
                        f"bound = {bound:.9f}"))
    c3 = families.archimedean(families.clayton_generator(2.0), 3)
    bound3 = taildep.spearman_tdf_limit(c3.tdf)
    tdc3 = taildep.tdc(c3).value
    out.append(_outcome("spearman", "bound-dominates-clayton-d3", tdc3 <= bound3 + 1e-6,
                        f"tdc = {tdc3:.6f} <= bound = {bound3:.6f}"))
    for name, lam in (("min", taildep.min_tdf()), ("clayton-2", taildep.archimedean_tdf(2.0)),
                      ("parabola", taildep.fig1_parabola())):
        sec = taildep.simplex_restriction(lam)
        dev = abs(taildep.tdc_from_simplex(sec) - float(lam((1.0, 1.0))))
        out.append(_outcome("spearman", f"tdc-from-section-{name}", dev <= 1e-12, f"dev = {dev:.2e}"))
    return out


SUITES = {
    "expansion": _suite_expansion,
    "archimedean": _suite_archimedean,
    "ev": _suite_ev,
    "diagonal": _suite_diagonal,
    "cone": _suite_cone,
    "spearman": _suite_spearman,
}


def suite_names():
    return ("all", *SUITES)


def run_suite(name: str) -> list[CheckOutcome]:
    """Run one named suite, or all of them."""
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(SUITES[key]())
        return results
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(suite_names())}")
    return SUITES[name]()
