"""Command-line front end: descriptor ingestion, order checks, and CSV/JSON emission.

Subcommands: eval, tdf, order, verify, repro, validate.  Exit codes:
0 success/order holds, 1 order fails, 2 input error, 3 dimension error,
4 indistinguishable at tolerance, 5 internal error (any other exception,
reported as one ``error:`` line on stderr).  Output is fully deterministic;
CSV uses 17 significant digits, '.' decimals, and LF line endings, and
files are assembled in memory and written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import core, families, orders, taildep, verify
from .core import CopulaError, DimensionError, GridConfig
from .descriptors import (
    SHORTHAND_USAGE,
    DescriptorError,
    analytic_tdf_of,
    build_copula,
    load_descriptor,
)
from .taildep import LimitSchedule

EXIT_OK = 0
EXIT_ORDER_FAILS = 1
EXIT_INPUT_ERROR = 2
EXIT_DIMENSION_ERROR = 3
EXIT_INDISTINGUISHABLE = 4
EXIT_INTERNAL_ERROR = 5


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", newline="\n") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:  # a missing or unwritable target is bad input, not an internal error
        raise DescriptorError(f"cannot write {out!r}: {exc.strerror or exc}") from exc


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.asarray([float(x) for x in text.split(",")], dtype=float)
    except ValueError as exc:
        raise DescriptorError(f"bad point {text!r}: {exc}") from exc


def _parse_schedule(text: str | None) -> LimitSchedule:
    if text is None:
        return LimitSchedule()
    try:
        s0, ratio, steps = text.split(",")
        return LimitSchedule(float(s0), float(ratio), int(steps))
    except (ValueError, core.DomainError) as exc:
        raise DescriptorError(f"bad schedule {text!r}: expected s0,ratio,steps ({exc})") from exc


def _grid_config(args) -> GridConfig:
    return GridConfig(resolution=args.grid, tau=args.tau)


_GRID, _TAU = 64, 1e-6


def _add_common(sub):
    sub.add_argument("--grid", type=int, default=_GRID,
                     help="grid resolution per axis; order --loc and --cone sample a fixed log-polar set "
                          "instead (--cone uses it for its tail dependence precondition, --loc rejects it)")
    sub.add_argument("--tau", type=float, default=_TAU,
                     help="absolute order/strictness tolerance; order --loc and --cone use the relative "
                          f"threshold C2 - C1 < -{orders.KAPPA:g} * max(|C1|, |C2|) instead (--loc rejects it)")
    sub.add_argument("--schedule", default=None, help="limit schedule as s0,ratio,steps")
    sub.add_argument("--out", default=None, help="output file (default: stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default=None, help="output format")


def cmd_eval(args) -> int:
    c = build_copula(load_descriptor(args.descriptor))
    lines = []
    for text in args.point:
        pt = _parse_point(text)
        lines.append(_fmt(c.eval(pt)))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_tdf(args) -> int:
    c = build_copula(load_descriptor(args.descriptor))
    sched = _parse_schedule(args.schedule)
    fmt = args.format or "csv"
    if args.simplex_grid is not None:
        dirs = taildep.simplex_directions(args.simplex_grid, c.dimension)
        rows = []
        for w in dirs:
            if w.max() == 0:
                continue
            est = taildep.estimate_tdf(c, w, sched)
            rows.append(([float(x) for x in w], est.value, est.error_estimate, est.converged))
        if fmt == "json":
            payload = [{"w": w, "value": v, "error": e, "converged": ok} for w, v, e, ok in rows]
            _emit(json.dumps(payload, indent=2) + "\n", args.out)
        else:
            header = tuple(f"w{k + 1}" for k in range(c.dimension)) + ("value", "error", "converged")
            _emit(_csv([(*w, *rest) for w, *rest in rows], header), args.out)
        return EXIT_OK
    w = _parse_point(args.w) if args.w else np.ones(c.dimension)
    est = taildep.estimate_tdf(c, w, sched)
    if fmt == "json":
        payload = {
            "value": est.value,
            "error_estimate": est.error_estimate,
            "converged": est.converged,
            "trace": [{"s": s, "ratio": r} for s, r in est.trace],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        rows = []
        prev = None
        for s, r in est.trace:
            rows.append((s, r, "" if prev is None else _fmt(abs(r - prev)), est.converged))
            prev = r
        _emit(_csv(rows, ("s", "ratio", "diff", "converged")), args.out)
    return EXIT_OK


def _exit_from_status(status: str) -> int:
    if status in (orders.HOLDS, orders.HOLDS_STRICTLY):
        return EXIT_OK
    if status == orders.INDISTINGUISHABLE:
        return EXIT_INDISTINGUISHABLE
    return EXIT_ORDER_FAILS


def _tdf_of(c, sched) -> taildep.TailDepFunction:
    lam = analytic_tdf_of(c)
    return lam if lam is not None else taildep.estimated_tdf(c, sched)


def _ray_rows(results) -> list:
    # one row per sampled scale of every ray: "w1|w2|...", s, C1, C2, gap
    return [("|".join(_fmt(x) for x in w), float(s), float(a), float(b), float(b - a))
            for w, v in results for s, a, b in zip(v.samples.scale, v.samples.lhs, v.samples.rhs)]


def cmd_order(args) -> int:
    c1 = build_copula(load_descriptor(args.descriptor1))
    c2 = build_copula(load_descriptor(args.descriptor2))
    g = _grid_config(args)
    sched = _parse_schedule(args.schedule)
    fmt = args.format or "json"

    if args.too:
        results = orders.check_too(c1, c2, schedule=sched, grid=g)
        if fmt == "csv":
            _emit(_csv(_ray_rows(results), ("w", "s", "C1", "C2", "gap")), args.out)
        else:
            payload = [{"direction": list(w), **v.as_dict()} for w, v in results]
            _emit(json.dumps(payload, indent=2) + "\n", args.out)
        statuses = [v.status for _, v in results]
        if any(s == orders.FAILS for s in statuses):
            return EXIT_ORDER_FAILS
        if all(s == orders.INDISTINGUISHABLE for s in statuses):
            return EXIT_INDISTINGUISHABLE
        return EXIT_OK

    coords = tuple(f"u{k + 1}" for k in range(c1.dimension))
    if args.tdo:
        verdict = orders.check_tdo(_tdf_of(c1, sched), _tdf_of(c2, sched), g)
        header = tuple(f"w{k + 1}" for k in range(c1.dimension)) + ("L1", "L2")
    elif args.diagonal:
        verdict = orders.check_diagonal_order(families.diagonal_of(c1), families.diagonal_of(c2), g)
        header = ("t", "C1", "C2")
    elif args.cone is not None:
        lam1, lam2 = analytic_tdf_of(c1), analytic_tdf_of(c2)
        verdict = orders.check_cone_order(
            c1, c2, orders.ConeSpec(args.cone), args.eps, g, lam1=lam1, lam2=lam2
        )
        header = coords + ("C1", "C2")
    else:  # --loc
        if (args.grid, args.tau) != (_GRID, _TAU):
            raise DescriptorError("--grid and --tau do not apply to --loc, which samples a fixed log-polar set")
        verdict = orders.check_loc(c1, c2, args.eps)
        header = coords + ("C1", "C2")
    if fmt == "csv":
        pts, a, b = verdict.samples.points, verdict.samples.lhs, verdict.samples.rhs
        rows = [(*map(float, pts[i]), float(a[i]), float(b[i]), float(b[i] - a[i])) for i in range(len(pts))]
        _emit(_csv(rows, header + ("gap",)), args.out)
    else:
        _emit(json.dumps(verdict.as_dict(), indent=2) + "\n", args.out)
    return _exit_from_status(verdict.status)


def cmd_verify(args) -> int:
    try:
        outcomes = verify.run_suite(args.suite)
    except KeyError as exc:
        sys.stderr.write(f"error: {exc.args[0]}\n")
        return EXIT_INPUT_ERROR
    fmt = args.format or "csv"
    if fmt == "json":
        payload = [
            {"suite": o.suite, "check": o.name, "passed": o.passed, "detail": o.detail}
            for o in outcomes
        ]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        rows = [(o.suite, o.name, "pass" if o.passed else "FAIL", o.detail) for o in outcomes]
        _emit(_csv(rows, ("suite", "check", "status", "detail")), args.out)
    return EXIT_OK if all(o.passed for o in outcomes) else EXIT_ORDER_FAILS


def _repro_mo_clayton(alpha: float, theta: float):
    mo = families.marshall_olkin(alpha)
    cl = families.archimedean(families.clayton_generator(theta))
    t = np.linspace(0.0, 1.0, 201)[1:-1]
    rows = []
    for ti in t:
        pt = (float(ti), float(ti**alpha))
        rows.append((float(ti), mo.eval(pt), cl.eval(pt)))
    return rows, ("t", "M", "C")


def _repro_fig1():
    parab = taildep.parabola_section()
    piece = taildep.capped_slope_section()
    t = np.linspace(0.0, 1.0, 201)
    rows = [
        (float(ti), float(parab(ti)), float(piece(ti)), float(min(ti, 1.0 - ti)))
        for ti in t
    ]
    return rows, ("t", "parabola", "piecewise", "envelope")


def _repro_glued_joe(schedule: LimitSchedule):
    joe = families.archimedean(families.joe_generator(2.0))
    cp = core.comonotone()
    results = orders.check_too(core.glue(joe, cp, 1, 0.5), core.glue(joe, cp, 2, 0.5),
                               directions=[(0.5, 1.0), (1.0, 0.5)], schedule=schedule)
    return _ray_rows(results), ("w", "s", "C1", "C2", "gap")


def cmd_repro(args) -> int:
    sched = _parse_schedule(args.schedule)
    if args.name == "mo-clayton":
        rows, header = _repro_mo_clayton(args.alpha, args.theta)
    elif args.name == "fig1-tdfs":
        rows, header = _repro_fig1()
    elif args.name == "glued-joe":
        rows, header = _repro_glued_joe(sched)
    else:
        sys.stderr.write(f"error: unknown counterexample {args.name!r}\n")
        return EXIT_INPUT_ERROR
    if (args.format or "csv") == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(_csv(rows, header), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    c = build_copula(load_descriptor(args.descriptor))
    report = core.validate_copula(c, GridConfig(resolution=args.grid, tau=args.tau))
    if (args.format or "json") == "csv":
        rows = [(chk.name, chk.passed, chk.worst) for chk in report.checks]
        _emit(_csv(rows, ("check", "passed", "worst")), args.out)
    else:
        _emit(json.dumps(report.as_dict(), indent=2) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_ORDER_FAILS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailorder",
        description="Copula tail dependence functions and local stochastic orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptor_help = f"JSON descriptor file or shorthand: {SHORTHAND_USAGE}"

    p = sub.add_parser("eval", help="evaluate a copula at points")
    p.add_argument("descriptor", help=descriptor_help)
    p.add_argument("-u", "--point", action="append", required=True, help="point as u1,u2[,u3]")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tdf", help="estimate the tail dependence function")
    p.add_argument("descriptor", help=descriptor_help)
    p.add_argument("--w", default=None, help="direction as w1,w2[,w3] (default: all ones)")
    p.add_argument("--simplex-grid", type=int, default=None, help="estimate on an n-point simplex grid")
    _add_common(p)
    p.set_defaults(func=cmd_tdf)

    p = sub.add_parser("order", help="check a stochastic order between two copulas")
    p.add_argument("descriptor1", help=descriptor_help)
    p.add_argument("descriptor2", help=descriptor_help)
    rel = p.add_mutually_exclusive_group(required=True)
    rel.add_argument("--tdo", action="store_true", help="tail dependence order")
    rel.add_argument("--loc", action="store_true", help="local lower orthant order")
    rel.add_argument("--too", action="store_true", help="tail orthant order along rays")
    rel.add_argument("--cone", type=float, default=None, metavar="C", help="cone order with min w >= C * ||w||_1")
    rel.add_argument("--diagonal", action="store_true", help="diagonal order near 0")
    p.add_argument("--eps", type=float, default=None,
                   help="ball radius of --loc and --cone (default: the largest verified 2^-k, k <= 20)")
    _add_common(p)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help="all | " + " | ".join(verify.SUITES))
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("repro", help="reproduce a counterexample as CSV")
    p.add_argument("name", help="mo-clayton | glued-joe | fig1-tdfs")
    p.add_argument("--alpha", type=float, default=0.5, help="Marshall-Olkin parameter")
    p.add_argument("--theta", type=float, default=1.0, help="Clayton parameter")
    _add_common(p)
    p.set_defaults(func=cmd_repro)

    p = sub.add_parser("validate", help="audit the copula axioms for a descriptor")
    p.add_argument("descriptor", help=descriptor_help)
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DescriptorError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    except DimensionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DIMENSION_ERROR
    except CopulaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    except Exception as exc:  # exit 1 means "order fails", so no failure may escape with it
        sys.stderr.write(f"error: internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
