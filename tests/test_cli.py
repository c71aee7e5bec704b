import ast
import csv
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from tailorder import cli, core, descriptors, orders, taildep, verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _survivals(levels: int) -> dict:
    desc = {"family": "independence"}
    for _ in range(levels):
        desc = {"family": "survival", "inner": desc}
    return desc


# descriptor files that test_input_errors writes when a command names them
BAD_FILES = {"brace.json": "{", "survival-360.json": json.dumps(_survivals(360)), "brackets.json": "[" * 100_000}


def rows(text):
    return list(csv.reader(io.StringIO(text)))


GLUED_JOE = {
    axis: {
        "family": "glue",
        "params": {"axis": axis, "split": 0.5},
        "left": {"family": "archimedean", "params": {"generator": {"name": "joe", "theta": 2.0}, "d": 2}},
        "right": {"family": "comonotone", "params": {"d": 2}},
    }
    for axis in (1, 2)
}


class TestSubcommands:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "clayton:1", "-u", "0.5,0.5", "-u", "0.2,0.4")
        assert code == cli.EXIT_OK
        assert [float(x) for x in out.split()] == pytest.approx([1.0 / 3.0, 1.0 / 6.5], abs=1e-15)

    @pytest.mark.parametrize("point", ["-1e-13,0.5", "-0.0,0.5"])
    def test_eval_reads_a_point_that_starts_with_a_minus(self, capsys, point):
        # a coordinate within BOUNDARY_TOL below 0 clamps to 0, so the point is a zero row, whichever way it is given
        assert run(capsys, "eval", "clayton:2", "-u", point) == (cli.EXIT_OK, "0\n", "")
        assert run(capsys, "eval", "clayton:2", f"-u={point}") == (cli.EXIT_OK, "0\n", "")

    def test_eval_keeps_the_fig1_parabola_accurate_a_hair_from_a_face(self, capsys):
        # lev:fig1-parabola is w1 * w2 / (w1 + w2) here, not 1 - t for t = u1 / (u1 + u2), which cancels
        code, out, _ = run(capsys, "eval", "lev:fig1-parabola", "-u", "3.4e-7,3.4e-24")
        rel, abs_ = descriptors.build_copula(descriptors.parse_shorthand("lev:fig1-parabola")).accuracy
        assert code == cli.EXIT_OK and abs(float(out) - 3.4e-24) <= rel * 3.4e-24 + abs_
        # so every point of the local sample is decidable against the product
        code, out, _ = run(capsys, "order", "independence", "lev:fig1-parabola", "--loc")
        assert code == cli.EXIT_OK and "undecidable" not in json.loads(out)["note"]

    @pytest.mark.parametrize("text, point, value", [("lev:clayton:2", "1e-160,0.5", 1e-160),
                                                     ("lev:clayton:20", "1e-18,0.1", 1e-18)])
    def test_eval_keeps_clayton_lambda_where_its_sum_overflows(self, capsys, text, point, value):
        # w^-alpha overflows for w below about 10^(-308/alpha); Lambda there is the smaller coordinate to within
        # its pair, about 1e-160 and 1e-18 (mpmath, 50 digits), not half of it or a tenth
        code, out, _ = run(capsys, "eval", text, "-u", point)
        rel = descriptors.build_copula(descriptors.parse_shorthand(text)).accuracy[0]
        assert code == cli.EXIT_OK and abs(float(out) - value) <= rel * value
        if text == "lev:clayton:2":
            assert out == "9.9999999999999999e-161\n"

    def test_eval_rejects_a_negative_point_beyond_the_tolerance(self, capsys):
        code, _, err = run(capsys, "eval", "clayton:2", "-u", "-0.1,0.5")
        assert code == cli.EXIT_INPUT_ERROR
        assert "outside [0, 1] beyond tolerance" in err

    def test_tdf_trace(self, capsys):
        code, out, _ = run(capsys, "tdf", "clayton:2")
        assert code == cli.EXIT_OK
        table = rows(out)
        assert table[0] == ["s", "ratio", "diff", "converged"]
        assert float(table[-1][1]) == pytest.approx(2.0**-0.5, abs=1e-6)

    def test_tdf_simplex_grid_writes_whole_directions(self, capsys):
        code, out, _ = run(capsys, "tdf", "independence:3", "--simplex-grid", "3")
        assert code == cli.EXIT_OK
        table = rows(out)
        assert table[0] == ["w1", "w2", "w3", "value", "error", "converged"]
        directions = {tuple(r[:3]) for r in table[1:]}
        assert len(table) - 1 == 6 and len(directions) == 6

    def test_tdf_simplex_grid_json(self, capsys):
        code, out, _ = run(capsys, "tdf", "clayton:2", "--simplex-grid", "5", "--format", "json")
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert [p["w"] for p in payload] == [[0.0, 1.0], [0.25, 0.75], [0.5, 0.5], [0.75, 0.25], [1.0, 0.0]]

    @pytest.mark.parametrize("descriptor, n, schedule, points", [
        ("clayton:2", 50_000, "0.01,0.5,24", 1_200_000),  # 50,000 directions of 24 steps
        ("independence:3", 45, "0.01,0.99,1000", 1_035_000),  # comb(46, 2) = 1,035 directions of 1,000 steps
        ("independence:3", 1413, "0.01,0.5,24", 23_975_784),  # comb(1414, 2) = 998,991 directions, inside the cap
        ("independence:3", 44, "0.01,0.99,1000", None),  # comb(45, 2) = 990 directions: within the cap
    ])
    def test_tdf_simplex_grid_is_counted_against_the_cap_before_it_is_built(self, capsys, descriptor, n, schedule,
                                                                              points):
        # neither the directions nor the schedule's batch over them is built
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "tdf", descriptor, "--simplex-grid", str(n), "--schedule", schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if points:
            assert (code, out) == (cli.EXIT_INPUT_ERROR, "") and peak < 1_000_000
            assert err == f"error: schedule too large: {points} points, more than 1000000\n"
        else:
            assert (code, err) == (cli.EXIT_OK, "") and len(rows(out)) == 991

    @pytest.mark.parametrize("argv, what, points", [
        (("validate", "clayton:2", "--grid", "1000"), "grid", 1_002_001),  # (N + 1)^d: 126 MB if built
        # comb(N + d - 1, d - 1)
        (("order", "independence:3", "comonotone:3", "--tdo", "--grid", "1413"), "simplex grid", 1_000_405),
        (("order", "clayton:1", "clayton:2", "--diagonal", "--grid", "1000001"), "diagonal grid", 1_000_001),  # N
    ])
    def test_a_grid_above_the_cap_is_refused_before_it_is_built(self, capsys, argv, what, points):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (cli.EXIT_INPUT_ERROR, "")
        assert err == f"error: {what} too large: {points} points, more than 1000000\n"
        assert peak < 1_000_000

    @pytest.mark.parametrize("argv, points", [
        (("validate", "clayton:2", "--grid", "8"), 81),
        (("order", "independence:3", "comonotone:3", "--tdo", "--grid", "8"), 45),
        (("order", "clayton:1", "clayton:2", "--diagonal", "--grid", "8"), 8),
        (("order", "clayton:1", "clayton:2", "--loc"), 3_476),  # 44 radii x 79 directions
    ])
    def test_a_grid_at_the_cap_is_built(self, capsys, monkeypatch, argv, points):
        # a cap of exactly that many points admits the sample, one fewer refuses it; the cached builders are
        # cleared so that each run counts its sample again
        for cap, expected in ((points, cli.EXIT_OK), (points - 1, cli.EXIT_INPUT_ERROR)):
            for cached in (orders._tdo_grid, orders._local_directions, orders._local_sample):
                cached.cache_clear()
            monkeypatch.setattr(core, "MAX_POINTS", cap)
            assert run(capsys, *argv)[0] == expected

    @pytest.mark.parametrize("argv", [
        ("order", "independence:10", "independence:10", "--loc"),
        ("order", "independence:10", "independence:10", "--tdo"),
        ("order", "independence:10", "independence:10", "--cone", "0.2"),
        ("order", "independence:8", "independence:8", "--loc"),  # 2.59 M local points
        ("order", "independence:6", "independence:6", "--cone", "0.2"),  # an 11.2 M-point TDO precondition
        ("validate", "independence:4"),  # 65^4 = 17.9 M points
        ("validate", "independence:5"),  # 65^5 = 1.16e9 points
    ])
    def test_samples_that_grow_with_the_dimension_are_refused_before_they_are_built(self, capsys, argv):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (cli.EXIT_INPUT_ERROR, "") and " too large: " in err and err.count("\n") == 1
        assert peak < 1_000_000

    @pytest.mark.parametrize("argv, expected", [
        (("clayton:1", "clayton:2", "--tdo"), cli.EXIT_OK),
        (("clayton:2", "clayton:1", "--tdo"), cli.EXIT_ORDER_FAILS),
        (("lev:fig1-parabola", "lev:fig1-piecewise", "--tdo"), cli.EXIT_ORDER_FAILS),
        (("lev:fig1-piecewise", "lev:fig1-parabola", "--tdo"), cli.EXIT_ORDER_FAILS),
        (("fn:1.5", "fn:1.2", "--tdo"), cli.EXIT_INDISTINGUISHABLE),
        (("fn:1", "comonotone", "--tdo"), cli.EXIT_INDISTINGUISHABLE),
        (("clayton:1", "clayton:2", "--loc", "--eps", "0.2"), cli.EXIT_OK),
        (("marshall-olkin:0.5", "clayton:1", "--loc", "--eps", "0.2"), cli.EXIT_ORDER_FAILS),
        (("marshall-olkin:0.5", "clayton:1", "--cone", "0.2"), cli.EXIT_OK),
        (("clayton:1", "clayton:2", "--diagonal"), cli.EXIT_OK),
        (("clayton:2", "clayton:1", "--diagonal"), cli.EXIT_ORDER_FAILS),
        (("clayton:1", "independence:3", "--tdo"), cli.EXIT_DIMENSION_ERROR),
        (("marshall-olkin:0.5", "clayton:1", "--loc"), cli.EXIT_ORDER_FAILS),
        (("clayton:2", "clayton:1", "--loc"), cli.EXIT_ORDER_FAILS),
        (("comonotone", "independence", "--loc"), cli.EXIT_ORDER_FAILS),
        (("lev:fig1-parabola", "lev:fig1-piecewise", "--loc"), cli.EXIT_ORDER_FAILS),
        (("lev:fig1-piecewise", "lev:fig1-parabola", "--loc"), cli.EXIT_ORDER_FAILS),
        # both extreme value copulas have the tail dependence function 0
        (("ev:fig1-parabola", "ev:clayton:2", "--tdo"), cli.EXIT_INDISTINGUISHABLE),
        (("ev:clayton:2", "ev:fig1-parabola", "--tdo"), cli.EXIT_INDISTINGUISHABLE),
        (("clayton:1", "independence:3", "--diagonal"), cli.EXIT_DIMENSION_ERROR),
        # lower extreme value copulas rise with their Lambda, and Clayton's Lambda with alpha, so LOC holds one way;
        # it needs Lambda where w^-20 overflows, at the sample's face nodes
        (("lev:clayton:10", "lev:clayton:20", "--loc"), cli.EXIT_OK),
        (("lev:clayton:20", "lev:clayton:10", "--loc"), cli.EXIT_ORDER_FAILS),
    ])
    def test_order(self, capsys, argv, expected):
        code, out, _ = run(capsys, "order", *argv)
        assert code == expected
        if expected != cli.EXIT_DIMENSION_ERROR:
            assert "status" in json.loads(out)

    @pytest.mark.parametrize("pair, expected", [
        (("ev:clayton:2", "ev:fig1-parabola"), cli.EXIT_INDISTINGUISHABLE),
        ((GLUED_JOE[1], GLUED_JOE[2]), cli.EXIT_INDISTINGUISHABLE),  # Joe's tail, and so each glue's, is 0
        (({"family": "glue", "params": {"axis": 1, "split": 0.5}, "left": descriptors.parse_shorthand("clayton:2"),
           "right": descriptors.parse_shorthand("independence")}, "clayton:2"), cli.EXIT_OK),
        (tuple({"family": "hierarchical", "outer": descriptors.parse_shorthand("clayton:1"),
                "inner": descriptors.parse_shorthand(f"clayton:{theta}")} for theta in (2, 4)), cli.EXIT_OK),
    ], ids=["ev", "glue", "glue-below-its-left-part", "hierarchical"])
    def test_tdo_compares_closed_forms(self, capsys, monkeypatch, tmp_path, pair, expected):
        estimated = []
        monkeypatch.setattr(taildep, "estimate_tdfs", lambda *args: estimated.append(args))
        argv = []
        for k, desc in enumerate(pair):
            if isinstance(desc, dict):
                (tmp_path / f"{k}.json").write_text(json.dumps(desc))
                desc = str(tmp_path / f"{k}.json")
            argv.append(desc)
        code, out, _ = run(capsys, "order", *argv, "--tdo")
        assert (code, estimated) == (expected, [])

    def test_tdo_csv_writes_whole_directions(self, capsys):
        code, out, _ = run(capsys, "order", "independence:3", "comonotone:3", "--tdo", "--format", "csv")
        assert code == cli.EXIT_OK
        table = rows(out)
        assert table[0] == ["w1", "w2", "w3", "L1", "L2", "gap"]
        directions = [tuple(r[:3]) for r in table[1:]]
        assert len(directions) == 65 * 66 // 2 == len(set(directions))
        assert all(float(w1) + float(w2) + float(w3) == pytest.approx(1.0, abs=1e-15) for w1, w2, w3 in directions)

    def test_gaussian_above_the_cutoff_is_comonotone(self, capsys):
        assert run(capsys, "order", "comonotone", "comonotone", "--tdo")[0] == cli.EXIT_INDISTINGUISHABLE
        with pytest.warns(RuntimeWarning, match="comonotone"):
            code, out, _ = run(capsys, "order", "gaussian:0.9995", "comonotone", "--tdo")
        assert code == cli.EXIT_INDISTINGUISHABLE
        assert json.loads(out)["status"] == "indistinguishable"

    def test_order_too(self, capsys, tmp_path):
        paths = []
        for axis, desc in GLUED_JOE.items():
            paths.append(tmp_path / f"glued-{axis}.json")
            paths[-1].write_text(json.dumps(desc))
        code, out, _ = run(capsys, "order", str(paths[0]), str(paths[1]), "--too",
                           "--format", "csv")
        assert code == cli.EXIT_ORDER_FAILS
        assert rows(out)[0] == ["w", "s", "C1", "C2", "gap"]

    @pytest.mark.parametrize("relation", [("--loc",), ("--loc", "--eps", "0.2"), ("--cone", "0.2"), ("--too",)])
    def test_csv_comes_from_the_verdict(self, capsys, monkeypatch, relation):
        calls = []
        original = core.Copula.cdf

        def counting(c, u):
            calls.append(np.asarray(u))  # a local sample comes as a decomposed batch, whose array is its points
            return original(c, u)

        monkeypatch.setattr(core.Copula, "cdf", counting)
        code, out, _ = run(capsys, "order", "marshall-olkin:0.5", "clayton:1", *relation, "--format", "csv")
        assert code in (cli.EXIT_OK, cli.EXIT_ORDER_FAILS)
        assert len(calls) == 2  # one batch per copula, written without evaluating again
        assert calls[0] is calls[1] or relation[0] == "--too"  # the local verdicts hand both copulas one sample
        table = rows(out)
        assert len(table) - 1 == len(calls[0])
        if relation[0] != "--too":
            assert table[0] == ["u1", "u2", "C1", "C2", "gap"]
            assert [float(x) for x in table[1][:2]] == list(calls[0][0])

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "verify", "spearman")
        assert code == cli.EXIT_OK
        assert all(r[2] == "pass" for r in rows(out)[1:])

    @pytest.mark.parametrize("name, header", [
        ("mo-clayton", ["t", "M", "C"]),
        ("glued-joe", ["w", "s", "C1", "C2", "gap"]),
        ("fig1-tdfs", ["t", "parabola", "piecewise", "envelope"]),
    ])
    def test_repro(self, capsys, name, header):
        code, out, _ = run(capsys, "repro", name)
        assert code == cli.EXIT_OK
        assert rows(out)[0] == header

    def test_ray_csv_matches_ray_by_ray_evaluation(self, capsys, tmp_path):
        # the rays go to cdf in one batch; the table must equal evaluating each ray alone
        paths = []
        for axis, desc in GLUED_JOE.items():
            paths.append(tmp_path / f"glued-{axis}.json")
            paths[-1].write_text(json.dumps(desc))
        c1, c2 = (descriptors.build_copula(GLUED_JOE[axis]) for axis in (1, 2))
        fan = [tuple(w) for w in taildep.simplex_directions(21)] + [(0.5, 1.0), (1.0, 0.5)]
        sched = taildep.LimitSchedule()
        assert run(capsys, "order", *map(str, paths), "--too", "--format", "csv")[1] == _ray_csv(c1, c2, fan, sched)
        published = [(0.5, 1.0), (1.0, 0.5)]
        assert run(capsys, "repro", "glued-joe")[1] == _ray_csv(c1, c2, published, sched)
        sched = taildep.LimitSchedule(0.01, 0.3, 5)
        assert run(capsys, "repro", "glued-joe", "--schedule", "0.01,0.3,5")[1] == _ray_csv(c1, c2, published, sched)

    @pytest.mark.parametrize("alpha, theta", [(0.5, 1.0), (0.3, 2.0), (0.7, 5.0), (0.5, 0.5)])
    def test_mo_clayton_table_matches_point_by_point_evaluation(self, capsys, alpha, theta):
        # the 199 points go to each copula in one batch; the CSV and JSON must equal evaluating each point alone
        mo = descriptors.build_copula(descriptors.parse_shorthand(f"marshall-olkin:{alpha}"))
        cl = descriptors.build_copula(descriptors.parse_shorthand(f"clayton:{theta}"))
        t = np.linspace(0.0, 1.0, 201)[1:-1].tolist()
        table = [(ti, mo.eval((ti, ti**alpha)), cl.eval((ti, ti**alpha))) for ti in t]
        want_csv = "t,M,C\n" + "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in table)
        want_json = json.dumps([dict(zip("tMC", row)) for row in table], indent=2) + "\n"
        params = ("--alpha", str(alpha), "--theta", str(theta))
        assert run(capsys, "repro", "mo-clayton", *params) == (cli.EXIT_OK, want_csv, "")
        assert run(capsys, "repro", "mo-clayton", *params, "--format", "json") == (cli.EXIT_OK, want_json, "")

    def test_validate(self, capsys):
        code, out, _ = run(capsys, "validate", "bertino:1.5")
        assert code == cli.EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_four_dimensional_simplex_grids(self, capsys):
        code, out, _ = run(capsys, "order", "independence:4", "comonotone:4", "--tdo")
        assert code == cli.EXIT_OK and json.loads(out)["status"] == "holds-strictly"
        code, out, _ = run(capsys, "order", "independence:4", "comonotone:4", "--too")
        assert code == cli.EXIT_OK
        directions = [v["direction"] for v in json.loads(out)]
        assert len(directions) == 8 * 7 * 6 // 6 and all(sum(w) == pytest.approx(1.0) for w in directions)
        code, out, _ = run(capsys, "tdf", "independence:4", "--simplex-grid", "3")
        assert code == cli.EXIT_OK
        table = rows(out)
        assert table[0] == ["w1", "w2", "w3", "w4", "value", "error", "converged"]
        assert len(table) - 1 == 10 and all(float(r[4]) == 0.0 for r in table[1:])


def _ray_csv(c1, c2, directions, sched):
    lines = ["w,s,C1,C2,gap"]
    for w in directions:
        s = 1.0 / max(w) * sched.ratio ** np.arange(sched.steps)
        pts = s[:, None] * np.asarray(w)[None, :]
        a, b = np.asarray(c1.cdf(pts)), np.asarray(c2.cdf(pts))
        lines += [",".join(("|".join(cli._fmt(float(x)) for x in w),
                            *(cli._fmt(float(x)) for x in (s[i], a[i], b[i], b[i] - a[i]))))
                  for i in range(len(s))]
    return "\n".join(lines) + "\n"


class TestContract:
    def test_csv_is_byte_identical_across_runs(self, capsys):
        first = run(capsys, "order", "clayton:1", "clayton:2", "--tdo", "--format", "csv")[1]
        second = run(capsys, "order", "clayton:1", "clayton:2", "--tdo", "--format", "csv")[1]
        assert first == second and first.endswith("\n") and "\r" not in first

    def test_out_writes_the_file(self, capsys, tmp_path):
        target = tmp_path / "mo.csv"
        code, out, _ = run(capsys, "repro", "mo-clayton", "--out", str(target))
        assert code == cli.EXIT_OK and out == ""
        assert target.read_bytes() == run(capsys, "repro", "mo-clayton")[1].encode()
        assert [p.name for p in tmp_path.iterdir()] == ["mo.csv"]

    def test_out_into_missing_directory_is_an_input_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "repro", "mo-clayton", "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == cli.EXIT_INPUT_ERROR and out == ""
        assert err.startswith("error: cannot write") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        code, _, err = run(capsys, "repro", "mo-clayton", "--out", str(tmp_path / "mo.csv"))
        assert code == cli.EXIT_INPUT_ERROR
        assert err.endswith(": disk full\n") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_out_writes_a_fifo_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening the writer does not block
        try:
            code, out, _ = run(capsys, "eval", "clayton:2", "-u", "0.3,0.4", "--out", str(fifo))
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert code == cli.EXIT_OK and out == ""
        assert data == run(capsys, "eval", "clayton:2", "-u", "0.3,0.4")[1].encode()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symbolic links")
    def test_out_writes_through_a_symlink(self, capsys, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old\n")
        link.symlink_to(real)
        code, out, _ = run(capsys, "eval", "clayton:2", "-u", "0.3,0.4", "--out", str(link))
        assert code == cli.EXIT_OK and out == ""
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_bytes() == run(capsys, "eval", "clayton:2", "-u", "0.3,0.4")[1].encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symbolic links")
    def test_out_into_a_symlink_loop_is_an_input_error(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.symlink_to(b)
        b.symlink_to(a)
        code, out, err = run(capsys, "eval", "clayton:2", "-u", "0.3,0.4", "--out", str(a))
        assert code == cli.EXIT_INPUT_ERROR and out == ""
        assert err.startswith(f"error: cannot write {str(a)!r}: ") and err.count("\n") == 1
        assert os.readlink(a) == str(b) and os.readlink(b) == str(a)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]

    def test_out_creates_a_file_with_the_mode_open_gives(self, capsys, tmp_path):
        target = tmp_path / "new.csv"
        old = os.umask(0o022)
        try:
            code = run(capsys, "repro", "mo-clayton", "--out", str(target))[0]
        finally:
            os.umask(old)
        assert code == cli.EXIT_OK
        assert stat.S_IMODE(target.stat().st_mode) == 0o644

    def test_out_keeps_an_existing_files_mode(self, capsys, tmp_path):
        target = tmp_path / "kept.csv"
        target.write_text("old\n")
        target.chmod(0o640)
        code = run(capsys, "repro", "mo-clayton", "--out", str(target))[0]
        assert code == cli.EXIT_OK
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert target.read_bytes() == run(capsys, "repro", "mo-clayton")[1].encode()

    @pytest.mark.parametrize("argv, default", [
        (("tdf", "clayton:2"), "csv"),
        (("order", "clayton:1", "clayton:2", "--tdo"), "json"),
        (("verify", "cone"), "csv"),
        (("repro", "fig1-tdfs"), "csv"),
        (("validate", "clayton:2", "--grid", "8"), "json"),
    ])
    def test_default_format(self, capsys, argv, default):
        implicit = run(capsys, *argv)
        assert implicit == run(capsys, *argv, "--format", default)  # byte for byte, exit code and stderr too
        assert implicit[0] in (cli.EXIT_OK, cli.EXIT_ORDER_FAILS)
        assert implicit != run(capsys, *argv, "--format", {"json": "csv", "csv": "json"}[default])

    @pytest.mark.parametrize("argv, choice", [(("verify", "nope"), "spearman"), (("repro", "nope"), "glued-joe")])
    def test_unknown_name_lists_the_choices(self, capsys, argv, choice):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_INPUT_ERROR and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and choice in err

    @pytest.mark.parametrize("argv", [
        ("eval", "frank:2", "-u", "0.5,0.5"),
        ("verify", "nope"),
        ("repro", "nope"),
        ("order", "clayton", "clayton:2", "--tdo"),
        ("tdf", "independence:3", "--simplex-grid", "1"),
        ("tdf", "independence:3", "--simplex-grid", "-3"),
        ("order", "clayton:1", "clayton:2", "--loc", "--grid", "4"),
        ("order", "clayton:1", "clayton:2", "--loc", "--simplex-grid", "3"),
        # options a subcommand never reads are rejected, not ignored
        ("eval", "clayton:2", "-u", "0.3,0.4", "--format", "json", "--grid", "3", "--eps", "-1"),
        ("eval", "clayton:2", "-u", "0.3,0.4", "--format", "json"),
        ("eval", "clayton:2", "-u", "0.3,0.4", "--schedule", "0.01,0.5,5"),
        ("verify", "expansion", "--grid", "1"),
        ("verify", "expansion", "--eps", "1e-3"),
        ("verify", "expansion", "--schedule", "0.01,0.5,5"),
        ("validate", "bertino:1.5", "--eps", "1e-3"),
        ("validate", "bertino:1.5", "--schedule", "0.01,0.5,5"),
        ("tdf", "clayton:2", "--grid", "8"),
        ("tdf", "clayton:2", "--eps", "1e-3"),
        ("repro", "mo-clayton", "--grid", "8"),
        ("repro", "mo-clayton", "--eps", "1e-3"),
        ("order", "clayton:1", "clayton:2"),
        ("order", "clayton:1", "clayton:2", "--too", "--grid", "8"),
        ("order", "clayton:1", "clayton:2", "--loc", "--grid", "64"),  # the default resolution, given
        ("order", "marshall-olkin:0.5", "clayton:1", "--cone", "0.2", "--grid", "16"),
        # each repro counterexample reads only its own options
        ("repro", "fig1-tdfs", "--schedule", "0.01,0.5,5"),
        ("repro", "mo-clayton", "--schedule", "0.01,0.5,5"),
        ("repro", "glued-joe", "--alpha", "0.3"),
        ("repro", "fig1-tdfs", "--theta", "3"),
        ("eval", "clayton:inf", "-u", "0.3,0.4"),
        ("order", "ev:clayton:nan", "ev:min", "--tdo"),
        # --eps is the radius of --loc and --cone; the other relations would ignore it
        ("order", "clayton:1", "clayton:2", "--tdo", "--eps", "0.1"),
        ("order", "clayton:1", "clayton:2", "--too", "--eps", "0.1"),
        ("order", "clayton:1", "clayton:2", "--diagonal", "--eps", "0.1"),
        # one direction or a simplex grid, not both
        ("tdf", "clayton:2", "--w", "1,0.5", "--simplex-grid", "3"),
        # a shorthand, or a fixture within one, that takes no parameter refuses one
        ("eval", "countermonotone:7", "-u", "0.3,0.4"),
        ("eval", "nonstrict-linear:5", "-u", "0.3,0.4"),
        ("eval", "ev:min:3", "-u", "0.3,0.4"),
        ("eval", "lev:fig1-parabola:9", "-u", "0.3,0.4"),
        ("eval", "lev:zero:abc", "-u", "0.3,0.4"),
        # an empty parameter after a colon is malformed, not the default
        ("eval", "countermonotone:", "-u", "0.3,0.4"),
        ("eval", "lev:zero:", "-u", "0.3,0.4"),
        ("eval", "independence:", "-u", "0.3,0.4"),
        # a malformed point or schedule, a parameter outside its family's range, and a file that does not exist
        ("eval", "clayton:2", "-u", "0.3,x"),
        ("order", "clayton:1", "clayton:2", "--too", "--schedule", "0.01,0.5"),
        ("eval", "marshall-olkin:2", "-u", "0.3,0.4"),
        ("eval", "no-such-file.json", "-u", "0.3,0.4"),
        # a truncated JSON file, and nestings deeper than the cap: one from descriptors, one that the decoder itself
        # refuses
        ("eval", "brace.json", "-u", "0.3,0.4"),
        ("eval", "survival-360.json", "-u", "0.3,0.4"),
        ("eval", "brackets.json", "-u", "0.3,0.4"),
    ])
    def test_input_errors(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        for name in BAD_FILES.keys() & set(argv):
            Path(name).write_text(BAD_FILES[name])
        code, _, err = run(capsys, *argv)
        assert code == cli.EXIT_INPUT_ERROR
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("relation", [("--loc",), ("--cone", "0.2"), ("--diagonal",), ("--tdo",)])
    def test_schedule_a_relation_would_ignore_is_an_input_error(self, capsys, relation):
        # Clayton copulas carry a closed-form tail dependence function, so --tdo estimates nothing
        code, out, err = run(capsys, "order", "clayton:1", "clayton:2", *relation, "--schedule", "0.01,0.5,5")
        assert (code, out) == (cli.EXIT_INPUT_ERROR, "")
        assert err.startswith("error: --schedule applies only to --too and to --tdo") and err.count("\n") == 1

    def test_schedule_is_read_where_limits_are_estimated(self, capsys, tmp_path):
        # survival copulas carry no closed form, so --tdo estimates the survival side's tail on the schedule
        path = tmp_path / "survival.json"
        path.write_text(json.dumps({"family": "survival", "inner": descriptors.parse_shorthand("gumbel:2")}))
        for argv in (("clayton:1", "clayton:2", "--too"), ("clayton:1", str(path), "--tdo")):
            default = run(capsys, "order", *argv)
            given = run(capsys, "order", *argv, "--schedule", "0.01,0.5,5")
            assert default[0] == given[0] == cli.EXIT_OK
            assert given[1] != default[1] and given[2] == ""

    def test_bad_dimension_parameter_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"family": "archimedean", "params": {"generator": {"name": "clayton", "theta": 2}, "d": "x"}}
        ))
        code, _, err = run(capsys, "eval", str(path), "-u", "0.5,0.5")
        assert code == cli.EXIT_INPUT_ERROR
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_internal_error_exits_5(self, capsys, monkeypatch):
        def boom(name):
            raise RuntimeError("suite exploded")

        monkeypatch.setattr(verify, "run_suite", boom)
        code, out, err = run(capsys, "verify", "cone")
        assert code == cli.EXIT_INTERNAL_ERROR == 5
        assert out == ""
        assert err == "error: internal error: RuntimeError: suite exploded\n"

    def test_help_lists_every_shorthand(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")
        with pytest.raises(SystemExit):
            cli.main(["eval", "--help"])
        out = capsys.readouterr().out
        for form in ("clayton:THETA", "marshall-olkin:ALPHA", "lev:FIXTURE", "fig1-piecewise"):
            assert form in out


# Run in a fresh interpreter: every command but the last needs no Gaussian
# copula, so none of them may load scipy; the Gaussian one must load it and
# print the digits it printed when scipy was imported with the package.
_SCIPY_PROBE = """
import contextlib, io, json, sys
from tailorder import cli
commands = [
    ["eval", "clayton:2", "-u", "0.3,0.4"],
    ["tdf", "clayton:2"],
    ["order", "clayton:1", "clayton:2", "--tdo"],
    ["order", "clayton:1", "clayton:2", "--loc", "--eps", "0.2"],
    ["order", "clayton:1", "clayton:2", "--too"],
    ["order", "marshall-olkin:0.5", "clayton:1", "--cone", "0.2"],
    ["order", "clayton:1", "clayton:2", "--diagonal"],
    ["repro", "mo-clayton"],
    ["repro", "glued-joe"],
    ["repro", "fig1-tdfs"],
    ["verify", "all"],
]
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
before = "scipy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()) as out:
    gaussian = cli.main(["eval", "gaussian:0.5", "-u", "0.3,0.4"])
print(json.dumps({"codes": codes, "before": before, "after": "scipy" in sys.modules,
                  "gaussian": [gaussian, out.getvalue()]}))
"""


def test_scipy_is_loaded_only_by_a_gaussian_evaluation():
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    record = json.loads(proc.stdout)
    assert record["codes"] == [cli.EXIT_OK] * 11
    assert record["before"] is False
    assert record["after"] is True
    assert record["gaussian"] == [cli.EXIT_OK, "0.19189068682491817\n"]


# Run in a fresh interpreter: the package, every extreme value and lower extreme value copula of the
# registry's tail dependence functions (each build audits its function), verify all and a lower extreme
# value order must all run without loading numpy.random.
_RANDOM_PROBE = """
import contextlib, io, json, sys
import tailorder
from tailorder import cli
loaded = ["numpy.random" in sys.modules]
for name in ("zero", "min", "clayton:2", "fig1-parabola", "fig1-piecewise"):
    for head in ("ev", "lev"):
        tailorder.build_copula(tailorder.parse_shorthand(f"{head}:{name}"))
loaded.append("numpy.random" in sys.modules)
codes = []
for argv in (["verify", "all"], ["order", "lev:clayton:2", "lev:fig1-parabola", "--loc"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
    loaded.append("numpy.random" in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_numpy_random_is_never_loaded():
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _RANDOM_PROBE], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    record = json.loads(proc.stdout)
    assert record["codes"] == [cli.EXIT_OK, cli.EXIT_ORDER_FAILS]
    assert record["loaded"] == [False] * 4


# Run in a fresh interpreter: the package's records are built without the dataclasses module, so importing
# the CLI and running an Archimedean suite and a local order must not load it (scipy.special, loaded by a
# Gaussian evaluation, imports it, so no Gaussian copula is evaluated here).
_DATACLASSES_PROBE = """
import contextlib, io, json, sys
from tailorder import cli
loaded = ["dataclasses" in sys.modules]
codes = []
for argv in (["verify", "archimedean"], ["order", "clayton:1", "clayton:2", "--loc"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
    loaded.append("dataclasses" in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded, "scipy": "scipy" in sys.modules}))
"""


def test_dataclasses_is_never_loaded():
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _DATACLASSES_PROBE], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert json.loads(proc.stdout) == {"codes": [cli.EXIT_OK, cli.EXIT_OK], "loaded": [False] * 3, "scipy": False}


def test_a_warning_is_one_line_on_stderr(capsys):
    # Gumbel copulas have tail dependence function 0, so the cone order's precondition is not strict
    argv = ["order", "gumbel:2", "gumbel:3", "--cone", "0.2"]
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "tailorder.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == cli.EXIT_OK
    assert proc.stderr.splitlines() == ["warning: cone ordering expects a strictly ordered pair; "
                                        "tail dependence check says indistinguishable"]
    assert ".py:" not in proc.stderr
    with pytest.warns(RuntimeWarning, match="strictly ordered pair"):  # a warning in-process, as before
        assert run(capsys, *argv)[:2] == (cli.EXIT_OK, proc.stdout)
    assert warnings.formatwarning is not cli._format_warning


def package_imports(module):
    """The (module, name) pairs a ``tailorder`` module takes from the package: ``from .m import name`` gives
    (m, name), and ``from . import m`` gives (m, None) and (m, attr) for every attribute it reads of m."""
    tree = ast.parse(Path(cli.__file__).with_name(f"{module}.py").read_text())
    pairs, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            pairs += [(node.module, a.name) if node.module else (a.name, None) for a in node.names]
            modules |= set() if node.module else {a.asname or a.name for a in node.names}
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)]
    return pairs + [(node.value.id, node.attr) for node in reads if node.value.id in modules]


def test_module_boundaries():
    # the orders read each evaluator's own accuracy pair, and the CLI uses only public names
    assert [p for p in package_imports("orders") if p[0] == "descriptors"] == []
    assert [p for p in package_imports("cli") if p[1] and p[1].startswith("_")] == []
    assert {("descriptors", "build_copula"), ("taildep", "estimate_tdfs")} <= set(package_imports("cli"))
    # the boundary rule is core's own: no other module reads a private attribute of a Copula
    private = {name for name in vars(core.Copula) if name.startswith("_") and not name.endswith("__")}
    for path in Path(cli.__file__).parent.glob("*.py"):
        if path.stem != "core":
            nodes = ast.walk(ast.parse(path.read_text()))
            assert [n.attr for n in nodes if isinstance(n, ast.Attribute) and n.attr in private] == [], path.stem
