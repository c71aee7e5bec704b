import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tailorder as to
from tailorder import descriptors
from tailorder.descriptors import (
    DescriptorError,
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


_W17 = to.simplex_directions(17)
_CUSTOM_MIN = to.TailDepFunction(lambda pts: pts.min(axis=1), 2)


class TestAnalyticTDF:
    @pytest.mark.parametrize("family", ["fn", "bertino", "semilinear"])
    @pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0])
    def test_power_diagonal_families(self, family, p):
        c = build_copula(parse_shorthand(f"{family}:{p}"))
        lam = c.tdf
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
        lam = build_copula(parse_shorthand(text)).tdf
        w = to.simplex_directions(17)
        np.testing.assert_array_equal(lam(w), to.archimedean_tdf(alpha)(w))

    def test_lower_ev_returns_its_fixture(self):
        lam = build_copula(parse_shorthand("lev:fig1-parabola")).tdf
        w = to.simplex_directions(17)
        np.testing.assert_array_equal(lam(w), to.fig1_parabola()(w))

    @pytest.mark.parametrize("fixture, name", [("zero", "zero"), ("min", "min"), ("clayton:0.5", "zero"),
                                               ("clayton:2", "zero"), ("clayton:inf", "min"),
                                               ("fig1-parabola", "zero"), ("fig1-piecewise", "zero")])
    def test_extreme_value_matches_a_long_estimate(self, fixture, name):
        c = build_copula(parse_shorthand(f"ev:{fixture}"))
        lam = c.tdf
        assert lam.name == name
        rel = c.accuracy[0]
        # C(s*w)/s is of order s^(1 - L(1, 1)) for the fixture L, so halving s scales it by rho
        rho = 2.0 ** -(1.0 - float(descriptors.tdf_from_spec(c.descriptor["params"]["tdf"])((1.0, 1.0))))
        for w in ((1.0, 1.0), (0.3, 1.0), (1.0, 0.05)):
            est = to.estimate_tdf(c, w, to.LimitSchedule(1e-2, 0.5, 60))
            if name == "min":  # C is M: every ratio is min(w) up to the copula's rounding
                assert abs(est.value - lam(w)) <= rel * est.value
                continue
            # a geometric sequence of rate rho lies error * rho / (1 - rho) from its limit
            diffs = np.abs(np.diff([r for _, r in est.trace]))
            assert diffs[-1] / diffs[-2] == pytest.approx(rho, rel=1e-2)
            assert abs(est.value - lam(w)) <= 1.05 * est.error_estimate * rho / (1.0 - rho)

    @pytest.mark.parametrize("rho, name", [(1.0, "min"), (0.9995, "min"), (0.999, "zero"), (0.5, "zero"),
                                           (0.0, "zero"), (-0.9995, "zero"), (-1.0, "zero")])
    def test_gaussian_follows_the_builder_cutoff(self, rho, name):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            c = build_copula(parse_shorthand(f"gaussian:{rho}"))
        assert c.tdf.name == name
        if name == "min":
            pts = to.simplex_directions(17) * 1e-3
            np.testing.assert_array_equal(c.cdf(pts), pts.min(axis=1))

    # a part no table names gives None, unless the builder's closed form needs only what the part says of itself
    @pytest.mark.parametrize("c, check", [
        (to.copula_from_callable(lambda pts: pts.prod(axis=1), 2), lambda tdf: tdf is None),
        (to.archimedean(to.Generator(lambda t: 1.0 - t, None, False, 0.0)),
         lambda tdf: np.array_equal(tdf(_W17), np.zeros(len(_W17)))),
        (to.lower_ev_copula(_CUSTOM_MIN), lambda tdf: tdf is _CUSTOM_MIN),
        (to.fredricks_nelsen(to.DiagonalSection(lambda t: t**1.5)), lambda tdf: tdf is None),
        (to.ev_copula(_CUSTOM_MIN), lambda tdf: tdf.name == "min"),
    ], ids=[f"c{i}" for i in range(5)])
    def test_no_table_entry_gives_none(self, c, check):
        assert check(c.tdf)


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
        ({"family": "marshall_olkin", "params": {"alpha": 2.0}}, "invalid marshall_olkin descriptor"),
        ({"family": "glue", "params": {"axis": 1, "split": 0.5}}, "needs a 'left' child"),
        # a non-finite parameter, which the shorthand grammar parses, builds no copula
        (parse_shorthand("clayton:inf"), "Clayton theta must be positive and finite"),
        (parse_shorthand("gumbel:inf"), "Gumbel theta must be finite"),
        (parse_shorthand("joe:inf"), "Joe theta must be finite"),
        (parse_shorthand("lev:clayton:nan"), r"alpha must lie in \[0, inf\], got nan"),
        (parse_shorthand("ev:clayton:nan"), r"alpha must lie in \[0, inf\], got nan"),
        # a JSON number or bool that a conversion would change builds no copula
        ({"family": "glue", "params": {"axis": 1.9, "split": 0.5}, "left": parse_shorthand("independence"),
          "right": parse_shorthand("comonotone")}, "parameter 'axis' must be int, got 1.9"),
        ({"family": "independence", "params": {"d": 2.6}}, "parameter 'd' must be int, got 2.6"),
        ({"family": "archimedean", "params": {"generator": {"name": "clayton", "theta": 2}, "d": 3.99}},
         "parameter 'd' must be int, got 3.99"),
        ({"family": "archimedean", "params": {"generator": {"name": "clayton", "theta": True}, "d": 2}},
         "parameter 'theta' must be float, got true"),
        ({"family": "independence", "params": {"d": float("inf")}}, "parameter 'd' must be int"),
        # a JSON string is no number, even where a conversion would accept it
        ({"family": "independence", "params": {"d": "3"}}, "parameter 'd' must be int, got \"3\""),
        ({"family": "archimedean", "params": {"generator": {"name": "clayton", "theta": "2"}, "d": 2}},
         "parameter 'theta' must be float, got \"2\""),
    ])
    def test_bad_descriptor(self, desc, message):
        with pytest.raises(DescriptorError, match=message):
            build_copula(desc)

    @pytest.mark.parametrize("text, message", [
        ("frank:2", "unknown shorthand"),
        ("clayton", "needs a parameter"),
        ("gaussian:x", "bad shorthand"),
        ("lev:clayton", "bad shorthand"),
        # an empty parameter after a colon, on a shorthand or on a fixture within one
        ("independence:", "empty parameter"),
        ("countermonotone:", "empty parameter"),
        ("lev:zero:", "empty parameter"),
        ("lev:clayton:", "empty parameter"),
    ])
    def test_bad_shorthand(self, text, message):
        with pytest.raises(DescriptorError, match=message):
            parse_shorthand(text)

    def test_nesting_is_capped(self):
        # survival levels over the product copula: the cap counts JSON objects, the product copula's included
        def nested(depth):
            desc = {"family": "independence"}
            for _ in range(depth - 1):
                desc = {"family": "survival", "inner": desc}
            return desc

        at_cap = build_copula(descriptor_from_json(descriptor_to_json(nested(descriptors.MAX_DEPTH))))
        assert at_cap.eval((0.3, 0.4)) == pytest.approx(0.12)
        deep_list = []
        for _ in range(descriptors.MAX_DEPTH):
            deep_list = [deep_list]
        # one copula level past the cap, 1,000 levels, and arrays past the cap in a parameter that no builder reads
        for desc in (nested(descriptors.MAX_DEPTH + 1), nested(1000), {"family": "independence", "params": {
                "d": 2, "unread": deep_list}}):
            with pytest.raises(DescriptorError, match=f"nested deeper than {descriptors.MAX_DEPTH} levels"):
                build_copula(desc)
        cyclic = {"family": "survival"}
        cyclic["inner"] = cyclic
        cyclic["params"] = [cyclic, cyclic]
        with pytest.raises(DescriptorError, match="nested deeper"):
            build_copula(cyclic)

    def test_integral_float_dimension_builds(self):
        assert build_copula({"family": "independence", "params": {"d": 3.0}}).dimension == 3

    def test_fixture_dimension_is_checked(self):
        with pytest.raises(DescriptorError, match="bivariate"):
            descriptors.tdf_from_spec({"name": "fig1-parabola"}, 3)
        assert descriptors.tdf_from_spec({"name": "clayton", "alpha": 2.0}, 3).dimension == 3
