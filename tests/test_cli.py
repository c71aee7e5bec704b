import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tailorder import cli, core, descriptors, taildep, verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


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
    ])
    def test_order(self, capsys, argv, expected):
        code, out, _ = run(capsys, "order", *argv)
        assert code == expected
        if expected != cli.EXIT_DIMENSION_ERROR:
            assert "status" in json.loads(out)

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
            calls.append(u)
            return original(c, u)

        monkeypatch.setattr(core.Copula, "cdf", counting)
        code, out, _ = run(capsys, "order", "marshall-olkin:0.5", "clayton:1", *relation, "--format", "csv")
        assert code in (cli.EXIT_OK, cli.EXIT_ORDER_FAILS)
        assert len(calls) == 2  # one batch per copula, written without evaluating again
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

    def test_validate(self, capsys):
        code, out, _ = run(capsys, "validate", "bertino:1.5")
        assert code == cli.EXIT_OK
        assert json.loads(out)["passed"] is True


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

    @pytest.mark.parametrize("argv", [
        ("eval", "frank:2", "-u", "0.5,0.5"),
        ("verify", "nope"),
        ("repro", "nope"),
        ("order", "clayton", "clayton:2", "--tdo"),
        ("tdf", "independence:3", "--simplex-grid", "1"),
        ("tdf", "independence:3", "--simplex-grid", "-3"),
        ("order", "clayton:1", "clayton:2", "--loc", "--grid", "4"),
        ("order", "clayton:1", "clayton:2", "--loc", "--tau", "1e-3"),
    ])
    def test_input_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == cli.EXIT_INPUT_ERROR
        assert err.startswith("error: ")

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
