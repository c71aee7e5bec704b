"""The three benchmark workloads: their inputs and their expected answers.

Every function here uses only the public API of ``tailorder``.  ``surface``
evaluates 15 copulas on seeded interior batches; ``verdicts`` runs a fixed
sheet of the paper's order checks; ``cli`` runs a fixed script of
``python -m tailorder.cli`` commands.  Every timed row is one the program
answers correctly.  Rows it answers wrongly, each tagged with the ROADMAP
defect it shows, sit in ``DEFECT_SHEET`` and ``DEFECT_SCRIPT``: a run checks
them once, untimed, and reports how many fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

BATCH_POINTS = 65_536
TAIL_LOW, TAIL_HIGH = 1e-10, 1e-1

# descriptors shared by the workloads; built through tailorder.descriptors.build_copula
_JOE2 = {"family": "archimedean", "params": {"generator": {"name": "joe", "theta": 2.0}, "d": 2}}
_COMONOTONE2 = {"family": "comonotone", "params": {"d": 2}}


def _clayton(theta: float, d: int = 2) -> dict:
    return {"family": "archimedean", "params": {"generator": {"name": "clayton", "theta": theta}, "d": d}}


def _glued_joe(axis: int) -> dict:
    """Joe(2) glued to the comonotone copula at 0.5 along one axis (the paper's TOO example)."""
    return {"family": "glue", "params": {"axis": axis, "split": 0.5}, "left": _JOE2, "right": _COMONOTONE2}


SURFACE_SHORTHANDS = (
    ("independence", "independence"),
    ("clayton-2", "clayton:2"),
    ("gumbel-2", "gumbel:2"),
    ("joe-2", "joe:2"),
    ("nonstrict-linear", "nonstrict-linear"),
    ("mo-0.5", "marshall-olkin:0.5"),
    ("gaussian-0.5", "gaussian:0.5"),
    ("fn-1.5", "fn:1.5"),
    ("bertino-1.5", "bertino:1.5"),
    ("semilinear-1.5", "semilinear:1.5"),
    ("lev-clayton-2", "lev:clayton:2"),
    ("ev-fig1-parabola", "ev:fig1-parabola"),
)
SURFACE_DESCRIPTORS = (
    ("glued-joe", _glued_joe(1)),
    ("clayton-2-d3", _clayton(2.0, 3)),
    ("hier-clayton-1-2", {"family": "hierarchical", "outer": _clayton(1.0), "inner": _clayton(2.0)}),
)
SURFACE_LABELS = tuple(label for label, _ in SURFACE_SHORTHANDS + SURFACE_DESCRIPTORS)


def build_surface_copulas() -> list:
    """The 15 ``surface`` copulas, in label order, built through ``descriptors``."""
    from tailorder import descriptors

    out = [descriptors.build_copula(descriptors.parse_shorthand(text)) for _, text in SURFACE_SHORTHANDS]
    out += [descriptors.build_copula(desc) for _, desc in SURFACE_DESCRIPTORS]
    return out


def surface_batch(seed: int, index: int, dimension: int, n: int = BATCH_POINTS):
    """Seeded interior batch: half uniform on (0,1)^d, half log-uniform on [1e-10, 1e-1]^d.

    No coordinate is exactly 0 or 1, so every point takes the interior path
    of the boundary wrapper.
    """
    import numpy as np

    rng = np.random.default_rng([seed, index])
    half = n // 2
    # integers in [1, 2^53) / 2^53 lie strictly inside (0, 1)
    uniform = rng.integers(1, 2**53, size=(half, dimension)) / float(2**53)
    logs = rng.uniform(np.log(TAIL_LOW), np.log(TAIL_HIGH), size=(n - half, dimension))
    return np.concatenate([uniform, np.exp(logs)])


# ---------------------------------------------------------------- verdicts


@dataclass(frozen=True)
class Row:
    """One expected answer: what to call, what must hold, and where the claim comes from."""

    name: str
    source: str
    call: Callable          # context -> result
    expect: Callable        # result -> bool
    fingerprint: Callable   # result -> str, compared across passes
    defect: str | None = None  # the ROADMAP defect a known-wrong row shows


def _status(v) -> str:
    return v.status


def _verdict_print(v) -> str:
    return repr((v.status, v.margin, v.epsilon, v.witness))


def _holds(v) -> bool:
    return v.status in ("holds", "holds-strictly")


def _fails(v) -> bool:
    return v.status == "fails"


def verdict_context() -> dict:
    """The copulas the sheet compares, built through ``descriptors``."""
    from tailorder import descriptors

    def sh(text):
        return descriptors.build_copula(descriptors.parse_shorthand(text))

    return {
        "mo": sh("marshall-olkin:0.5"),
        "c1": sh("clayton:1"),
        "c2": sh("clayton:2"),
        "c1d3": descriptors.build_copula(_clayton(1.0, 3)),
        "c2d3": descriptors.build_copula(_clayton(2.0, 3)),
        "comonotone": sh("comonotone"),
        "independence": sh("independence"),
        "gumbel": sh("gumbel:2"),
        "joe": sh("joe:2"),
        "bertino": sh("bertino:1.5"),
        "fn": sh("fn:1.5"),
        "g3": sh("gaussian:0.3"),
        "g7": sh("gaussian:0.7"),
        "glued1": descriptors.build_copula(_glued_joe(1)),
        "glued2": descriptors.build_copula(_glued_joe(2)),
    }


def _too(ctx, w):
    from tailorder import orders

    return orders.check_too(ctx["glued1"], ctx["glued2"], directions=[w])[0][1]


def _tdf_surface_dev(ctx) -> float:
    from tailorder import taildep

    lam = taildep.archimedean_tdf(2.0)
    dirs = taildep.simplex_directions(21)
    return max(abs(taildep.estimate_tdf(ctx["c2"], w).value - float(lam(w))) for w in dirs if w.max() > 0)


def _spearman_d3(ctx):
    from tailorder import taildep

    return taildep.spearman_tdf_limit(taildep.archimedean_tdf(2.0, 3)), taildep.tdc(ctx["c2d3"]).value


def _tdc_clayton2(ctx) -> float:
    from tailorder import taildep

    return abs(taildep.tdc(ctx["c2"]).value - 2.0**-0.5)


def _tdc_of_min_section(ctx) -> float:
    from tailorder import taildep

    return taildep.tdc_from_simplex(taildep.simplex_restriction(taildep.min_tdf()))


def _orders():
    from tailorder import orders

    return orders


def _loc(a, b, eps=None):
    return lambda ctx: _orders().check_loc(ctx[a], ctx[b], eps)


def _cone(c, eps=None):
    return lambda ctx: _orders().check_cone_order(ctx["mo"], ctx["c1"], _orders().ConeSpec(c), eps)


def _tdo_estimated(ctx):
    from tailorder import taildep

    return _orders().check_tdo(taildep.estimated_tdf(ctx["c1"]), taildep.estimated_tdf(ctx["c2"]))


def _diagonal(ctx):
    from tailorder import families

    return _orders().check_diagonal_order(families.diagonal_of(ctx["c1"]), families.diagonal_of(ctx["c2"]))


def _equivalence(ctx):
    from tailorder import families

    return _orders().archimedean_order_equivalence(families.gumbel_generator(2.0), families.clayton_generator(1.0))


VERDICT_SHEET = (
    Row("loc-gumbel2-clayton1-search", "tests/test_orders.py TestEquivalence::test_gumbel_below_clayton "
        "(strict TDO); Gumbel has no lower tail dependence, Clayton(1) has 1/2",
        _loc("gumbel", "c1"), _holds, _verdict_print),
    Row("loc-joe2-clayton1-search", "Joe has no lower tail dependence, Clayton(1) has 1/2",
        _loc("joe", "c1"), _holds, _verdict_print),
    Row("loc-independence-comonotone-search", "Frechet bound: Pi <= M everywhere",
        _loc("independence", "comonotone"), _holds, _verdict_print),
    Row("loc-clayton1-clayton2-search", "tests/test_orders.py TestCheckLoc::test_halving_search_discovers_epsilon",
        _loc("c1", "c2"), _holds, _verdict_print),
    Row("loc-clayton1-clayton2-d3-search", "Clayton copulas increase with theta in every dimension",
        _loc("c1d3", "c2d3"), _holds, _verdict_print),
    Row("loc-mo-clayton1-eps0.2", "verify cone loc-fails-eps-0.2",
        _loc("mo", "c1", 0.2), _fails, _verdict_print),
    Row("loc-bertino-fn-eps0.5", "verify diagonal bertino-below-fn-p1.5 (Bertino is the minimal copula)",
        _loc("bertino", "fn", 0.5), _holds, _verdict_print),
    Row("loc-gaussian0.3-gaussian0.7-eps0.5", "Slepian: the Gaussian copula increases with rho",
        _loc("g3", "g7", 0.5), _holds, _verdict_print),
    Row("cone-mo-clayton1-c0.2", "verify cone cone-order-holds-c-0.2",
        _cone(0.2), _holds, _verdict_print),
    Row("cone-mo-clayton1-c0.001-eps0.05", "verify cone degenerate-cone-fails",
        _cone(0.001, 0.05), _fails, _verdict_print),
    Row("too-glued-joe-w0.5-1", "tests/test_orders.py TestCheckToo::test_glued_joe_conversely_ordered",
        lambda ctx: _too(ctx, (0.5, 1.0)), _fails, _verdict_print),
    Row("too-glued-joe-w1-0.5", "tests/test_orders.py TestCheckToo::test_glued_joe_conversely_ordered",
        lambda ctx: _too(ctx, (1.0, 0.5)), _holds, _verdict_print),
    Row("tdo-estimated-clayton1-clayton2", "tests/test_orders.py TestTheoremChains::test_loc_implies_tdo_on_estimates",
        _tdo_estimated, lambda v: v.status == "holds-strictly", _verdict_print),
    Row("diagonal-clayton1-clayton2", "verify diagonal strict-pair-ordered-near-0",
        _diagonal, _holds, _verdict_print),
    Row("equivalence-gumbel2-clayton1", "tests/test_orders.py TestEquivalence::test_gumbel_below_clayton",
        _equivalence, lambda r: r.consistent, lambda r: repr(r.as_dict())),
    Row("estimate-tdf-clayton2-21-directions", "verify archimedean clayton-tdf-surface (within 5e-3)",
        _tdf_surface_dev, lambda dev: dev <= 5e-3, repr),
    Row("spearman-bound-clayton2-d3", "verify spearman bound-dominates-clayton-d3",
        _spearman_d3, lambda r: r[1] <= r[0] + 1e-6, repr),
    Row("tdc-clayton2", "Clayton(theta) has lower tail dependence coefficient 2^(-1/theta)",
        _tdc_clayton2, lambda dev: dev <= 1e-9, repr),
)

# Known-wrong answers of the program, with the ROADMAP defect each shows.
# They are checked once per run outside the timed loop: their time is the
# cost of the wrong behaviour, not of the work the row asks for.
DEFECT_SHEET = (
    Row("loc-mo-clayton1-search", "paper counterexample (tailorder repro mo-clayton): no epsilon works",
        _loc("mo", "c1"), _fails, _status, defect="D3a"),
    Row("loc-clayton2-clayton1-search", "verify archimedean pipeline-fails-2-1; reversed pair of a strict order",
        _loc("c2", "c1"), _fails, _status, defect="D3b"),
    Row("loc-comonotone-independence-search", "Frechet bound: M > Pi on the open square",
        _loc("comonotone", "independence"), _fails, _status, defect="D3b"),
    Row("tdc-from-min-section", "verify spearman tdc-from-section-min: 2 * min(1/2, 1/2) = 1",
        _tdc_of_min_section, lambda t: abs(t - 1.0) <= 1e-12, repr, defect="D1"),
)


# ---------------------------------------------------------------- cli


@dataclass(frozen=True)
class Command:
    """One CLI invocation with its expected exit code.

    ``out`` names a file the command writes with ``--out`` (relative to the
    benchmark's work directory); its bytes are compared across passes.
    """

    args: tuple
    exit_code: int
    source: str
    out: str | None = None
    defect: str | None = None  # the ROADMAP defect a known-wrong command shows


GLUED_JOE_FILES = {f"glued-joe-axis{axis}.json": _glued_joe(axis) for axis in (1, 2)}

CLI_SCRIPT = (
    Command(("eval", "clayton:2", "-u", "0.3,0.4", "-u", "0.01,0.02"), 0, "Clayton closed form"),
    Command(("tdf", "clayton:2"), 0, "verify archimedean clayton-tdf-surface"),
    Command(("tdf", "clayton:2", "--simplex-grid", "11"), 0, "verify archimedean clayton-tdf-surface"),
    Command(("order", "gumbel:2", "clayton:1", "--loc"), 0, "TestEquivalence::test_gumbel_below_clayton"),
    Command(("order", "clayton:1", "clayton:2", "--loc"), 0, "TestCheckLoc::test_halving_search_discovers_epsilon"),
    Command(("order", "clayton:1", "clayton:2", "--tdo"), 0, "TestCheckTDO::test_clayton_indices_strictly_ordered"),
    Command(("order", "{work}/glued-joe-axis1.json", "{work}/glued-joe-axis2.json", "--too"), 1,
            "TestCheckToo::test_glued_joe_conversely_ordered: direction (1/2, 1) fails"),
    Command(("order", "marshall-olkin:0.5", "clayton:1", "--cone", "0.2"), 0, "verify cone cone-order-holds-c-0.2"),
    Command(("order", "clayton:1", "clayton:2", "--diagonal"), 0, "verify diagonal strict-pair-ordered-near-0"),
    Command(("repro", "mo-clayton"), 0, "paper counterexample table"),
    Command(("repro", "glued-joe"), 0, "paper counterexample table"),
    Command(("repro", "fig1-tdfs"), 0, "paper Figure 1 sections"),
    Command(("validate", "bertino:1.5"), 0, "verify diagonal constructions-valid-p1.5"),
    Command(("verify", "expansion"), 0, "verify suite passes"),
    Command(("verify", "archimedean"), 0, "verify suite passes"),
    Command(("verify", "ev"), 0, "verify suite passes"),
    Command(("verify", "diagonal"), 0, "verify suite passes"),
    Command(("verify", "cone"), 0, "verify suite passes"),
    Command(("repro", "mo-clayton", "--format", "json", "--out", "{work}/out/mo-clayton.json"), 0,
            "atomic --out write", out="out/mo-clayton.json"),
    Command(("verify", "cone", "--format", "json", "--out", "{work}/out/verify-cone.json"), 0,
            "atomic --out write", out="out/verify-cone.json"),
)

# Known-wrong exit codes, checked once per run outside the timed loop.
DEFECT_SCRIPT = (
    Command(("order", "marshall-olkin:0.5", "clayton:1", "--loc"), 1,
            "paper counterexample (tailorder repro mo-clayton): no epsilon works", defect="D3a"),
    Command(("verify", "spearman"), 0, "verify suite passes", defect="D1"),
)
