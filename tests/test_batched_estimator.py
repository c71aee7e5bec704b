"""The batched limit estimator against the per-direction loop, bit for bit.

``taildep.estimate_tdfs`` evaluates C(s*w)/s for n directions in one ``cdf``
batch.  The references below are the per-direction forms: one ``cdf`` call
of ``steps`` points per direction, and the estimated tail dependence
function as a loop over its rows.  Both must give the same float64 values
and flags on every family of the descriptor table, and each batched form
makes one ``cdf`` call.
"""

import warnings

import numpy as np
import pytest

from tailorder import cli, core, descriptors, families, orders, taildep
from tailorder.taildep import LimitSchedule, TDFEstimate


# ---------------------------------------------------------------- references


def ref_estimate(c, w, sched):
    """One direction, one cdf call of steps points."""
    direction = np.asarray(w, dtype=float).reshape(-1)
    s = sched.scales()
    ratios = np.asarray(c.cdf(s[:, None] * direction[None, :])) / s
    diffs = np.abs(np.diff(ratios))
    tail = diffs[-5:]
    converged = bool(np.all(tail[1:] <= tail[:-1] + 1e-15)) and float(diffs[-1]) < 1e-4
    return TDFEstimate(float(ratios[-1]), float(diffs[-1]), converged, tuple(zip(s.tolist(), ratios.tolist())))


def ref_estimated(c, pts, sched):
    """The estimated tail dependence function as a loop over its rows, each at sup-norm 1."""
    out = np.zeros(pts.shape[0])
    for i, row in enumerate(pts):
        m = row.max()
        if m != 0.0:
            out[i] = m * ref_estimate(c, row / m, sched).value
    return out


# ---------------------------------------------------------------- cases


def _arch(name, d=2, **params):
    return {"family": "archimedean", "params": {"generator": {"name": name, **params}, "d": d}}


def _power(family, p):
    return {"family": family, "params": {"diagonal": {"name": "power", "p": p}}}


def _tdf(family, name, **params):
    return {"family": family, "params": {"tdf": {"name": name, **params}}}


CASES = (
    [{"family": fam, "params": {"d": d}} for fam in ("independence", "comonotone") for d in (2, 3)]
    + [{"family": "countermonotone", "params": {}}]
    + [_arch("clayton", d, theta=2.0) for d in (2, 3, 4)]
    + [_arch("clayton", theta=1.0), _arch("gumbel", theta=2.0), _arch("joe", theta=2.0), _arch("nonstrict-linear")]
    + [{"family": "marshall_olkin", "params": {"alpha": 0.5}}]
    + [{"family": "gaussian", "params": {"rho": r}} for r in (0.5, -0.5, 0.0, 0.9995, -0.9995)]
    + [_tdf(fam, name) for fam in ("extreme_value", "lower_extreme_value")
       for name in ("zero", "min", "fig1-parabola", "fig1-piecewise")]
    + [_tdf(fam, "clayton", alpha=2.0) for fam in ("extreme_value", "lower_extreme_value")]
    + [_power(fam, p) for fam in ("fredricks_nelsen", "bertino", "semilinear") for p in (1.0, 1.5)]
    + [{"family": "glue", "params": {"axis": axis, "split": 0.5},
        "left": _arch("joe", theta=2.0), "right": {"family": "comonotone", "params": {"d": 2}}}
       for axis in (1, 2)]
    + [{"family": "survival", "inner": _arch("clayton", theta=1.0)}]
    + [{"family": "hierarchical", "outer": _arch("clayton", theta=1.0), "inner": _arch("clayton", theta=2.0)}]
)


def _label(desc):
    parts = [desc["family"]]
    for value in desc.get("params", {}).values():
        parts += [str(v) for v in value.values()] if isinstance(value, dict) else [str(value)]
    parts += [_label(desc[k]) for k in ("left", "right", "outer", "inner") if k in desc]
    return "-".join(parts)


def build(desc):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # |rho| beyond the Gaussian cutoff
        return descriptors.build_copula(desc)


def grids(d):
    """Simplex grids with their faces, for d = 2 up to 65 points."""
    return [taildep.simplex_directions(n, d) for n in ((2, 11, 65) if d == 2 else (2, 5))]


def mixed_rows(d):
    """A grid with zero rows and rows rescaled past and below sup-norm 1."""
    w = taildep.simplex_directions(5, d)
    return np.vstack([w, np.zeros((2, d)), 3.0 * w[1:4], np.zeros((1, d)), 0.25 * w[::2]])


SCHEDULE = LimitSchedule()


# ---------------------------------------------------------------- tests


def test_cases_cover_every_family():
    assert {desc["family"] for desc in CASES} == set(descriptors._FAMILIES)


@pytest.mark.parametrize("desc", CASES, ids=_label)
def test_estimated_tdf_is_bit_identical(desc):
    c = build(desc)
    lam = taildep.estimated_tdf(c, SCHEDULE)
    for w in grids(c.dimension) + [mixed_rows(c.dimension)]:
        np.testing.assert_array_equal(lam(w), ref_estimated(c, w, SCHEDULE))


@pytest.mark.parametrize("desc", CASES, ids=_label)
def test_every_field_is_bit_identical(desc):
    c = build(desc)
    w = grids(c.dimension)[-1]
    batch = taildep.estimate_tdfs(c, w, SCHEDULE)
    for i, row in enumerate(w):
        one, ref = taildep.estimate_tdf(c, row, SCHEDULE), ref_estimate(c, row, SCHEDULE)
        assert one == ref
        assert (batch.value[i], batch.error_estimate[i], bool(batch.converged[i])) == (
            ref.value, ref.error_estimate, ref.converged)
        assert tuple(zip(batch.scales.tolist(), batch.ratios[i].tolist())) == ref.trace


@pytest.mark.parametrize("make", [
    # not in the descriptor table: a diagonal that is not convex takes Bertino's searched minimum
    lambda: families.bertino(families.diagonal_of(families.archimedean(families.clayton_generator(1.0)))),
    lambda: core.survival(core.glue(families.archimedean(families.joe_generator(2.0)), core.comonotone(), 1, 0.3)),
])
def test_composed_copulas_are_bit_identical(make):
    c = make()
    w = mixed_rows(2)
    np.testing.assert_array_equal(taildep.estimated_tdf(c, SCHEDULE)(w), ref_estimated(c, w, SCHEDULE))


def test_each_row_is_checked_as_one_direction():
    c = families.archimedean(families.clayton_generator(1.0))
    good = np.array([[1.0, 1.0], [0.5, 0.2]])
    for bad in ((0.0, 0.0), (-1.0, 1.0), (200.0, 1.0)):
        with pytest.raises(core.DomainError) as one:
            taildep.estimate_tdf(c, bad)
        with pytest.raises(core.DomainError) as batch:
            taildep.estimate_tdfs(c, np.vstack([good, bad]))
        assert str(batch.value) == str(one.value)
    with pytest.raises(core.DimensionError):
        taildep.estimate_tdfs(c, np.ones((2, 3)))


# ---------------------------------------------------------------- cdf calls


@pytest.fixture
def cdf_calls(monkeypatch):
    """The number of points of every Copula.cdf call."""
    calls, original = [], core.Copula.cdf

    def counted(self, u):
        calls.append(np.asarray(u).size // self.dimension)
        return original(self, u)

    monkeypatch.setattr(core.Copula, "cdf", counted)
    return calls


def test_estimated_tdf_makes_one_cdf_call(cdf_calls):
    c = families.archimedean(families.clayton_generator(2.0), 3)
    w = mixed_rows(3)
    taildep.estimated_tdf(c)(w)
    live = int((w.max(axis=1) > 0).sum())
    assert cdf_calls == [live * SCHEDULE.steps]


def test_check_tdo_on_two_estimates_makes_two_cdf_calls(cdf_calls):
    c1, c2 = (families.archimedean(families.clayton_generator(t)) for t in (1.0, 2.0))
    verdict = orders.check_tdo(taildep.estimated_tdf(c1), taildep.estimated_tdf(c2))
    assert verdict.status == orders.HOLDS_STRICTLY
    assert len(cdf_calls) == 2


def test_simplex_grid_command_makes_one_cdf_call(cdf_calls, capsys):
    assert cli.main(["tdf", "clayton:2", "--simplex-grid", "11"]) == cli.EXIT_OK
    assert cdf_calls == [11 * SCHEDULE.steps]
    assert len(capsys.readouterr().out.splitlines()) == 12
