import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from scipy.integrate import dblquad
from scipy.special import ndtr, ndtri

import tailorder as to
from tailorder import core, families
from tailorder.families import bivariate_normal_cdf


def bvn_oracle(a, b, rho):
    """Independent 2-D quadrature of the bivariate normal density."""
    det = 1.0 - rho * rho
    norm = 1.0 / (2.0 * math.pi * math.sqrt(det))

    def density(y, x):
        return norm * math.exp(-(x * x - 2 * rho * x * y + y * y) / (2.0 * det))

    val, err = dblquad(density, -8.5, a, -8.5, b, epsabs=1e-12)
    return val


class TestBivariateNormal:
    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.99, 0.999, -0.5, -0.999])
    @pytest.mark.parametrize("ab", [(0.0, 0.0), (1.0, -1.0), (-2.0, -2.0), (0.5, 2.0)])
    def test_against_quadrature_oracle(self, rho, ab):
        a, b = ab
        assert bivariate_normal_cdf(a, b, rho) == pytest.approx(bvn_oracle(a, b, rho), abs=1e-9)

    def test_two_node_counts_agree(self):
        # the evaluator's 64-node rule against the same angular form on 96 nodes
        x, w = np.polynomial.legendre.leggauss(96)
        a, b = -0.7, 1.2
        for rho in (0.3, 0.8, -0.6, 0.999):
            t = math.asin(rho) * 0.5 * (x + 1.0)
            integrand = np.exp(-(a * a - 2.0 * a * b * np.sin(t) + b * b) / (2.0 * np.cos(t) ** 2))
            v96 = ndtr(a) * ndtr(b) + math.asin(rho) * 0.5 * np.dot(w, integrand) / (2.0 * math.pi)
            assert abs(bivariate_normal_cdf(a, b, rho) - v96) < 1e-13

    @pytest.mark.parametrize("rho", [0.5, -0.5, 0.999])
    @pytest.mark.parametrize("x", [0.3, -1.2, math.inf, -math.inf])
    @pytest.mark.parametrize("inf", [math.inf, -math.inf])
    def test_infinite_arguments_give_the_limit(self, rho, x, inf):
        # Phi2(inf, x) = Phi(x), Phi2(-inf, x) = 0, and the same with the arguments swapped
        want = float(ndtr(x)) if inf > 0 else 0.0
        assert bivariate_normal_cdf(inf, x, rho) == want
        assert bivariate_normal_cdf(x, inf, rho) == want

    def test_infinite_and_nan_rows_leave_the_other_rows_alone(self):
        a = np.array([0.3, math.inf, -1.2, math.nan, -math.inf, 2.0])
        b = np.array([-0.4, 0.7, math.inf, 0.1, 0.5, math.nan])
        got = bivariate_normal_cdf(a, b, 0.5)
        assert got[0] == bivariate_normal_cdf(0.3, -0.4, 0.5)
        assert list(got[1:3]) == [ndtr(0.7), ndtr(-1.2)] and got[4] == 0.0
        assert np.isnan(got[3]) and np.isnan(got[5])

    def test_orthant_identity(self):
        for rho in (-0.9, -0.5, 0.0, 0.25, 0.5, 0.9):
            want = 0.25 + math.asin(rho) / (2.0 * math.pi)
            assert bivariate_normal_cdf(0.0, 0.0, rho) == pytest.approx(want, abs=1e-12)


class TestGaussianCopula:
    def test_independence(self):
        assert to.gaussian(0.0).eval((0.5, 0.5)) == 0.25

    def test_comonotone_limit(self):
        assert to.gaussian(1.0).eval((0.3, 0.7)) == pytest.approx(0.3, abs=0)

    def test_countermonotone_limit(self):
        c = to.gaussian(-1.0)
        assert c.eval((0.3, 0.6)) == 0.0
        assert c.eval((0.7, 0.6)) == pytest.approx(0.3, abs=1e-15)

    def test_half_correlation_orthant_value(self):
        want = 0.25 + math.asin(0.5) / (2.0 * math.pi)
        assert to.gaussian(0.5).eval((0.5, 0.5)) == pytest.approx(want, abs=1e-10)

    def test_near_unit_rho_warns_and_routes(self):
        with pytest.warns(RuntimeWarning):
            c = to.gaussian(0.9995)
        assert c.eval((0.3, 0.7)) == 0.3

    def test_domain(self):
        with pytest.raises(to.DomainError):
            to.gaussian(1.5)

    def test_valid_copula(self):
        assert to.validate_copula(to.gaussian(0.5), to.GridConfig(resolution=64)).passed
        assert to.validate_copula(to.gaussian(-0.7), to.GridConfig(resolution=48)).passed

    @pytest.mark.parametrize("rho", [0.5, 0.9, -0.5])
    def test_subnormal_coordinates_stay_below_the_upper_frechet_bound(self, rho):
        for u in ((1e-320, 0.5), (5e-324, 0.9)):
            assert to.gaussian(rho).cdf(u) <= min(u), u

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.9, 0.999, -0.3, -0.7, -0.999])
    def test_copula_agrees_with_the_normal_cdf_at_the_normal_quantiles(self, rho):
        # the copula takes u1*u2 for Phi(a)Phi(b); the two must agree within the copula's pair
        rng = np.random.default_rng(2210)
        tail = np.exp(rng.uniform(np.log(1e-300), np.log(1e-1), size=(500, 2)))
        u = np.concatenate([rng.random((500, 2)), tail, np.asarray(TAIL_POINTS)])
        c = to.gaussian(rho)
        rel, abs_ = c.accuracy
        want = bivariate_normal_cdf(ndtri(u[:, 0]), ndtri(u[:, 1]), rho)
        assert np.all(np.abs(c.cdf(u) - want) <= rel * want + abs_)


def copula_reference(u, v, rho, tol, dps=40):
    """Gaussian copula C(u, v) in mpmath, integrating the angular form from -pi/2.

    Phi2(a, b; rho) = max(u + v - 1, 0) + (1/2pi) int_{-pi/2}^{asin rho} exp(...) dt
    with a = Phi^-1(u), b = Phi^-1(v); below the anti-diagonal only the
    integral is left, so nothing cancels for rho < 0 either.  a and b are
    taken 20 digits finer, since 2u - 1 cancels for u near 0.  In the tail
    the integrand is a narrow peak at the upper end, which one unsplit
    ``quad`` resolves badly, so the interval is cut at graded distances
    below asin(rho), and mpmath's own error estimate must lie far below
    ``tol``, the absolute error the caller allows.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps + 20):
        u, v = mpmath.mpf(u), mpmath.mpf(v)
        a, b = (mpmath.sqrt(2) * mpmath.erfinv(2 * x - 1) for x in (u, v))
    with mpmath.workdps(dps):

        def integrand(t):
            return mpmath.exp(-(a * a - 2 * a * b * mpmath.sin(t) + b * b) / (2 * mpmath.cos(t) ** 2))

        lo, hi = -mpmath.pi / 2, mpmath.asin(mpmath.mpf(rho))
        cuts = [lo] + [hi - f * (hi - lo) for f in (0.1, 1e-2, 1e-3)] + [hi]
        integral, err = mpmath.quad(integrand, cuts, maxdegree=10, error=True)
        assert err / (2 * mpmath.pi) <= 1e-3 * tol, (u, v, rho, err)
        return float(max(u + v - 1, 0) + integral / (2 * mpmath.pi))


# s * w near the origin, and points at radius 1, which the local orders' sample reaches
TAIL_POINTS = [(s * w1, s * w2) for s in (1e-2, 1e-8, 1e-14) for w1, w2 in ((1, 1), (1, 0.5), (0.2, 1), (1, 1e-3))]
TAIL_POINTS += [(0.7071067811865476, 0.7071067811865476), (0.24253562503633297, 0.9701425001453319)]
# an asymmetric tail point of the local orders' sample (direction ratio 1e-16 at radius 3.37e-7), and its mirror
TAIL_POINTS += [(3.37e-23, 3.37e-7), (3.37e-7, 3.37e-23)]
# points where Phi^-1(u) Phi^-1(v) < 0, which take the -|ab|/(1 - sin t) term of the exponent
TAIL_POINTS += [(0.3, 0.7), (0.05, 0.99), (1e-6, 0.999999)]


class TestTailAccuracy:
    """The quadrature's accuracy pairs in the family table, which set the orders' thresholds."""

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7, 0.9, 0.99, 0.999])
    def test_relative_error_for_positive_rho(self, rho):
        c = to.gaussian(rho)
        assert c.accuracy == (1e-13, 0.0)
        for u in TAIL_POINTS:
            got = c.cdf(u)
            want = copula_reference(*u, rho, 1e-13 * got)
            assert abs(got - want) <= 1e-13 * want, u

    @pytest.mark.parametrize("rho", [-0.3, -0.7, -0.99, -0.999])
    def test_only_absolute_error_for_negative_rho(self, rho):
        # Phi(a)Phi(b) and the negative integral cancel, so tail values are accurate only in absolute terms
        c = to.gaussian(rho)
        assert c.accuracy == (0.0, 4e-16)
        for u in TAIL_POINTS:
            assert abs(c.cdf(u) - copula_reference(*u, rho, 4e-16)) <= 4e-16, u


class TestGluedGaussianBlocks:
    """``glue`` hands its parts the rows of one block at a time, so above core._ROW_BLOCK rows a glued Gaussian
    part sees other row subsets than in one whole batch, and a value may move in its last bits (ROADMAP, "Small
    findings"); it must stay within the Gaussian's pair of the whole-batch value and of the mpmath reference."""

    def test_values_stay_within_the_pair(self, monkeypatch):
        rng = np.random.default_rng(23)
        n = 4 * core._ROW_BLOCK + 3
        logs = rng.uniform(np.log(1e-10), np.log(1e-1), (n - n // 2, 2))
        pts = np.concatenate([rng.random((n // 2, 2)), np.exp(logs)])
        g = to.glue(to.gaussian(0.5), to.comonotone(), 1, 0.4)
        rel, abs_ = g.accuracy
        assert (rel, abs_) == (1e-13, 0.0)
        blocked = np.asarray(g.cdf(pts))
        with monkeypatch.context() as m:
            m.setattr(core, "_ROW_BLOCK", 10**9)
            whole = np.asarray(g.cdf(pts))
        assert np.all(np.abs(blocked - whole) <= rel * whole + abs_)
        # the reference on rows of the Gaussian part: the moved ones, five tail rows and five others
        left = np.flatnonzero(pts[:, 0] <= 0.4)
        moved = left[blocked[left] != whole[left]]
        tail = left[pts[left].max(axis=1) < 0.1]
        picks = np.concatenate([moved[:6], rng.choice(tail, 5, replace=False), rng.choice(left, 5, replace=False)])
        for i in picks:
            u, v = pts[i]
            want = 0.4 * copula_reference(u / 0.4, v, 0.5, rel * blocked[i])
            assert abs(blocked[i] - want) <= rel * want + abs_, (u, v)


def batch(n, seed, edges=False):
    """n rows, half uniform and half log-uniform in the tail; with edges, 1/40 of the rows with a 0 and 1/40 a 1."""
    rng = np.random.default_rng(seed)
    pts = np.concatenate([rng.random((n // 2, 2)), np.exp(rng.uniform(np.log(1e-10), np.log(1e-1), (n - n // 2, 2)))])
    if edges:
        pts[rng.choice(n, n // 40, replace=False), 0] = 0.0
        pts[rng.choice(n, n // 40, replace=False), 1] = 1.0
    return pts


def inline(fn, *args):
    """The helper replaced by a call on the caller's thread."""
    fn(*args)
    return lambda: None


class TestHelperThread:
    """A Gaussian block of core._ROW_BLOCK rows or more runs its second half on the helper executor's one worker."""

    @pytest.mark.parametrize("rho", [0.5, -0.7, 0.95])
    @pytest.mark.parametrize("n", [8192, 8193, 16385, 65536])
    @pytest.mark.parametrize("edges", [False, True])
    def test_values_are_those_of_one_thread_and_of_one_unsplit_block(self, monkeypatch, rho, n, edges):
        pts, c = batch(n, n, edges), to.gaussian(rho)
        got = c.cdf(pts)
        with monkeypatch.context() as m:
            m.setattr(families, "_on_helper", inline)
            assert np.array_equal(c.cdf(pts), got)
        with monkeypatch.context() as m:  # no split: the halves' quadrature blocks are those of the whole block
            m.setattr(families, "_ROW_BLOCK", 10**9)
            assert np.array_equal(c.cdf(pts), got)

    def test_two_user_threads_each_get_their_own_values(self, monkeypatch):
        pts = batch(65536, 7)
        copulas = [to.gaussian(0.3), to.gaussian(0.7)]
        with monkeypatch.context() as m:
            m.setattr(families, "_on_helper", inline)
            want = [c.cdf(pts) for c in copulas]
        equal = [[], []]

        def work(k):
            for _ in range(20):
                equal[k].append(np.array_equal(copulas[k].cdf(pts), want[k]))

        threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # with the helper, three threads on the host's cores switch as often as they can
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert equal == [[True] * 20, [True] * 20]

    def test_an_error_in_the_helpers_half_reaches_the_caller(self, monkeypatch):
        pts, c = batch(65536, 11), to.gaussian(0.5)
        want = c.cdf(pts)
        real = scipy.special.ndtri

        def ndtri_off_the_main_thread(x):
            if threading.current_thread() is not threading.main_thread():
                raise ArithmeticError("ndtri on the helper")
            return real(x)

        with monkeypatch.context() as m:
            m.setattr(scipy.special, "ndtri", ndtri_off_the_main_thread)
            with pytest.raises(ArithmeticError, match="ndtri on the helper"):
                c.cdf(pts)
        assert np.array_equal(c.cdf(pts), want)

    @pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2, reason="np.errstate is a context variable from numpy 2")
    def test_the_helper_runs_in_the_callers_errstate(self, monkeypatch):
        # each half must see the caller's np.errstate, as on one thread
        pts, c = batch(16384, 13), to.gaussian(0.5)
        seen = []
        real = families._normal_integral

        def integral(a, b, rho):
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr()["divide"]))
            return real(a, b, rho)

        monkeypatch.setattr(families, "_normal_integral", integral)
        with np.errstate(divide="raise"):
            c.cdf(pts)
        assert sorted(seen) == [(False, "raise")] * 2 + [(True, "raise")] * 2  # two blocks of two halves

    def test_a_forked_child_starts_its_own_helper(self):
        pts, c = batch(65536, 17), to.gaussian(0.5)
        want = c.cdf(pts)  # the helper is running now
        proc = multiprocessing.get_context("fork").Process(target=_child_evaluates, args=(c, pts, want))
        proc.start()
        proc.join(30)
        alive = proc.is_alive()
        if alive:
            proc.kill()
            proc.join()
        assert not alive and proc.exitcode == 0


def _child_evaluates(c, pts, want):
    sys.exit(0 if np.array_equal(c.cdf(pts), want) else 1)


# Run in a fresh interpreter: importing the CLI starts no thread and loads no queue, and neither does a Gaussian
# block below core._ROW_BLOCK rows (a local sample has 3,476); the first full block builds the helper, a
# concurrent.futures executor with one worker thread (and queue loads with it)
_THREAD_PROBE = """
import json, sys, threading
import numpy as np
import tailorder.cli
import tailorder as to
seen = [(threading.active_count(), "queue" in sys.modules)]
c = to.gaussian(0.5)
c.cdf(np.full((3476, 2), 0.3))
seen.append((threading.active_count(), "queue" in sys.modules))
for _ in range(3):
    c.cdf(np.full((8192, 2), 0.3))
    seen.append((threading.active_count(), "queue" in sys.modules))
print(json.dumps(seen))
"""


def test_import_starts_no_thread_and_loads_no_queue():
    package_root = str(Path(families.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert json.loads(proc.stdout) == [[1, False], [1, False]] + [[2, True]] * 3


def _run_fresh(script):
    """Run script in a fresh interpreter that imports this checkout's package; return its stdout."""
    package_root = str(Path(families.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300,
                          check=True).stdout


# an atexit handler runs after interpreter shutdown has begun, when an executor takes no new job
_SHUTDOWN_PROBE = """
import atexit
import numpy as np
import tailorder as to
pts = np.random.default_rng(5).random((16384, 2))
c = to.gaussian(0.5)
want = c.cdf(pts)
atexit.register(lambda: print(np.array_equal(c.cdf(pts), want)))
"""


def test_a_block_evaluated_at_exit_gets_the_main_threads_values():
    assert _run_fresh(_SHUTDOWN_PROBE) == "True\n"


# two threads start their first split blocks at once, so both may build the helper; each must get one thread's values,
# and a spare helper must not keep the process from exiting
_RACE_PROBE = """
import json, sys, threading
import numpy as np
import tailorder as to
from tailorder import families
pts = np.random.default_rng(7).random((65536, 2))
copulas = [to.gaussian(0.3), to.gaussian(0.7)]
row_block, families._ROW_BLOCK = families._ROW_BLOCK, 10**9  # one thread: no block is split
want = [c.cdf(pts) for c in copulas]
families._ROW_BLOCK = row_block
fresh = threading.active_count() == 1
start, equal = threading.Barrier(2), [None, None]

def work(k):
    start.wait()
    equal[k] = bool(np.array_equal(copulas[k].cdf(pts), want[k]))

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(json.dumps([fresh, equal]))
"""


def test_two_threads_that_start_the_helper_at_once_get_one_threads_values_and_the_process_exits():
    assert json.loads(_run_fresh(_RACE_PROBE)) == [True, [True, True]]
