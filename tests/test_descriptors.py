import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tailorder as to
from tailorder import descriptors
from tailorder.descriptors import (
    DescriptorError,
    analytic_tdf_of,
    build_copula,
    descriptor_from_json,
    descriptor_to_json,
    parse_shorthand,
)


def fixed_batch(d):
    """Seeded points: uniform interior, log-uniform tail, and boundary rows."""
    rng = np.random.default_rng(20221013)
    uniform = rng.uniform(0.0, 1.0, size=(48, d))
    tail = np.exp(rng.uniform(np.log(1e-10), np.log(1e-1), size=(48, d)))
    edges = rng.choice([0.0, 0.5, 1.0], size=(16, d))
    return np.concatenate([uniform, tail, edges])


def _num(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw).map(repr)


FIXTURES = st.one_of(
    st.sampled_from(["zero", "min", "fig1-parabola", "fig1-piecewise", "clayton:0.0"]),
    _num(0.05, 10.0).map(lambda a: f"clayton:{a}"),
)

# one strategy per shorthand head, over the head's parameter range
SHORTHANDS = {
    "independence": st.sampled_from(["", ":2", ":3", ":4"]),
    "comonotone": st.sampled_from(["", ":2", ":3", ":4"]),
    "countermonotone": st.just(""),
    "clayton": _num(0.05, 20.0).map(lambda x: f":{x}"),
    "gumbel": _num(1.0, 10.0).map(lambda x: f":{x}"),
    "joe": _num(1.0, 10.0).map(lambda x: f":{x}"),
    "nonstrict-linear": st.just(""),
    "marshall-olkin": _num(0.01, 0.99).map(lambda x: f":{x}"),
    "gaussian": _num(-1.0, 1.0).map(lambda x: f":{x}"),
    "fn": _num(1.0, 2.0).map(lambda x: f":{x}"),
    "fredricks-nelsen": _num(1.0, 2.0).map(lambda x: f":{x}"),
    "bertino": _num(1.0, 2.0).map(lambda x: f":{x}"),
    "semilinear": _num(1.0, 2.0).map(lambda x: f":{x}"),
    "ev": FIXTURES.map(lambda x: f":{x}"),
    "lev": FIXTURES.map(lambda x: f":{x}"),
}

shorthand_text = st.sampled_from(sorted(SHORTHANDS)).flatmap(
    lambda head: SHORTHANDS[head].map(lambda rest: head + rest)
)


def _is_bivariate(text):
    return not text.startswith(("independence:3", "independence:4", "comonotone:3", "comonotone:4"))


bivariate = shorthand_text.filter(_is_bivariate).map(parse_shorthand)
clayton_pair = st.lists(_num(0.1, 10.0).map(float), min_size=2, max_size=2).map(sorted)


def _clayton(theta):
    return {"family": "archimedean", "params": {"generator": {"name": "clayton", "theta": theta}, "d": 2}}


nested = st.one_of(
    st.builds(
        lambda left, right, axis, split: {
            "family": "glue", "params": {"axis": axis, "split": split}, "left": left, "right": right,
        },
        bivariate, bivariate, st.sampled_from([1, 2]), st.floats(0.05, 0.95),
    ),
    st.builds(lambda inner: {"family": "survival", "inner": inner}, bivariate),
    clayton_pair.map(lambda t: {"family": "hierarchical", "outer": _clayton(t[0]), "inner": _clayton(t[1])}),
)


def assert_round_trip(desc):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # |rho| > 0.999 is routed to a closed form
        c = build_copula(desc)
        assert c.descriptor == desc
        again = build_copula(descriptor_from_json(descriptor_to_json(c.descriptor)))
    assert again.descriptor == desc
    x = fixed_batch(c.dimension)
    assert np.asarray(again.cdf(x)).tobytes() == np.asarray(c.cdf(x)).tobytes()


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(shorthand_text)
    def test_every_shorthand_round_trips(self, text):
        assert_round_trip(parse_shorthand(text))

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(nested)
    def test_nestings_round_trip(self, desc):
        assert_round_trip(desc)

    def test_non_clayton_nesting_round_trips(self):
        gumbel = parse_shorthand("gumbel:1.5")
        assert_round_trip({"family": "hierarchical", "outer": gumbel, "inner": parse_shorthand("gumbel:3")})

    @pytest.mark.parametrize("text", ["ev:fig1-parabola", "lev:fig1-piecewise"])
    def test_fig1_descriptor_rebuilds(self, text):
        assert_round_trip(parse_shorthand(text))

    def test_every_head_is_covered(self):
        heads = {form.split(":")[0].split("[")[0] for form in descriptors.SHORTHAND_USAGE.split("; ")[0].split(", ")}
        assert heads == set(SHORTHANDS)


class TestAnalyticTDF:
    @pytest.mark.parametrize("family", ["fn", "bertino", "semilinear"])
    @pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0])
    def test_power_diagonal_families(self, family, p):
        c = build_copula(parse_shorthand(f"{family}:{p}"))
        lam = analytic_tdf_of(c)
        assert lam.name == ("min" if p == 1.0 else "zero")
        # each of the three lies between 0 and min(u, v, (u^p + v^p)/2), so for max(w) <= 1
        # 0 <= C(s*w)/s - Lambda(w) <= s^(p-1)
        w = np.array([[1.0, 1.0], [0.3, 0.7], [1.0, 0.2]])
        for s in (1e-4, 1e-8, 1e-12):
            gap = np.asarray(c.cdf(s * w)) / s - lam(w)
            assert (gap >= -1e-15).all() and (gap <= s ** (p - 1.0) + 1e-15).all()

    @pytest.mark.parametrize("text, alpha", [("clayton:2", 2.0), ("gumbel:2", 0.0), ("joe:3", 0.0),
                                             ("nonstrict-linear", 0.0)])
    def test_archimedean_index_comes_from_the_generator(self, text, alpha):
        lam = analytic_tdf_of(build_copula(parse_shorthand(text)))
        w = to.simplex_directions(17)
        np.testing.assert_array_equal(lam(w), to.archimedean_tdf(alpha)(w))

    def test_lower_ev_returns_its_fixture(self):
        lam = analytic_tdf_of(build_copula(parse_shorthand("lev:fig1-parabola")))
        w = to.simplex_directions(17)
        np.testing.assert_array_equal(lam(w), to.lift(to.parabola_section())(w))

    @pytest.mark.parametrize("rho, name", [(1.0, "min"), (0.9995, "min"), (0.999, "zero"), (0.5, "zero"),
                                           (0.0, "zero"), (-0.9995, "zero"), (-1.0, "zero")])
    def test_gaussian_follows_the_builder_cutoff(self, rho, name):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            c = build_copula(parse_shorthand(f"gaussian:{rho}"))
        assert analytic_tdf_of(c).name == name
        if name == "min":
            pts = to.simplex_directions(17) * 1e-3
            np.testing.assert_array_equal(c.cdf(pts), pts.min(axis=1))

    @pytest.mark.parametrize("c", [
        to.copula_from_callable(lambda pts: pts.prod(axis=1), 2),
        to.archimedean(to.Generator(lambda t: 1.0 - t, None, False, 0.0)),
        to.lower_ev_copula(to.TailDepFunction(lambda pts: pts.min(axis=1), 2)),
        to.fredricks_nelsen(to.DiagonalSection(lambda t: t**1.5)),
        build_copula(parse_shorthand("ev:min")),
    ])
    def test_no_table_entry_gives_none(self, c):
        assert analytic_tdf_of(c) is None


class TestErrors:
    @pytest.mark.parametrize("desc, message", [
        ({"family": "nope"}, "unknown family"),
        ({"params": {}}, "'family' tag"),
        ({"family": "archimedean", "params": {"generator": {"name": "frank", "theta": 1}}}, "unknown generator"),
        ({"family": "bertino", "params": {"diagonal": {"name": "cubic"}}}, "unknown diagonal"),
        ({"family": "extreme_value", "params": {"tdf": {"name": "parabola"}}}, "unknown tail dependence fixture"),
        ({"family": "archimedean", "params": {"generator": {"name": "clayton", "theta": 2}, "d": "x"}},
         "parameter 'd'"),
        ({"family": "marshall_olkin", "params": {}}, "missing parameter 'alpha'"),
        ({"family": "glue", "params": {"axis": 1, "split": 0.5}}, "needs a 'left' child"),
    ])
    def test_bad_descriptor(self, desc, message):
        with pytest.raises(DescriptorError, match=message):
            build_copula(desc)

    @pytest.mark.parametrize("text, message", [
        ("frank:2", "unknown shorthand"),
        ("clayton", "needs a parameter"),
        ("gaussian:x", "bad shorthand"),
        ("lev:clayton", "bad shorthand"),
    ])
    def test_bad_shorthand(self, text, message):
        with pytest.raises(DescriptorError, match=message):
            parse_shorthand(text)

    def test_fixture_dimension_is_checked(self):
        with pytest.raises(DescriptorError, match="bivariate"):
            descriptors.tdf_from_spec({"name": "fig1-parabola"}, 3)
        assert descriptors.tdf_from_spec({"name": "clayton", "alpha": 2.0}, 3).dimension == 3
