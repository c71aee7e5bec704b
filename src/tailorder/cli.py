"""Command-line front end: descriptor ingestion, order checks, and CSV/JSON emission.

Subcommands: eval, tdf, order, verify, repro, validate, each taking only the
options it reads.  Every subcommand but eval (one value per line) builds one
JSON payload and one CSV table and hands both to ``_write``, the one writer
that picks the format; the default is csv for tdf, verify and repro and json
for order and validate.  Exit codes: 0 success/order holds, 1 order fails,
2 input or usage error, 3 dimension error, 4 indistinguishable at tolerance,
5 internal error (any other exception); every error is one ``error:`` line on stderr, and
every warning one ``warning:`` line.
Output is deterministic: CSV uses 17 significant digits, '.' decimals and LF
line endings, and files are assembled in memory and written atomically through
a symlink to its target, keeping an existing file's mode and giving a new one
the mode open() would; an ``--out`` target that exists and is not a regular
file (a FIFO, a device) is written in place instead, and a symlink loop is
an input error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import stat
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import core, families, orders, taildep, verify
from .core import CopulaError, DimensionError, GridConfig
from .descriptors import (
    SHORTHAND_USAGE,
    DescriptorError,
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


def _umask() -> int:
    mask = os.umask(0o22)  # the only way to read it is to set it
    os.umask(mask)
    return mask


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(os.path.realpath(out))  # through a symlink to its target, as open() writes
    try:
        # a symlink loop stays a link under realpath, so it exists, and stat fails on it as open() would
        mode = os.stat(path).st_mode if os.path.lexists(path) else None
        if mode is not None and not stat.S_ISREG(mode):
            # a FIFO or device: renaming a file over it would replace the node itself
            path.write_text(text, newline="\n")
            return
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            # mkstemp creates mode 0600: keep an existing file's bits, else the mode open() would give
            os.fchmod(fd, stat.S_IMODE(mode) if mode is not None else 0o666 & ~_umask())
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


_OPTIONS = {
    "grid": dict(type=int, default=None,
                 help="grid resolution per axis (default: 64); order --loc, --too and --cone reject it, and every "
                      "sample above 10^6 points is refused. A verdict's JSON 'tolerance' holds each side's "
                      "accuracy pair [rel, abs], or [rel, abs, region] with abs only at points in the named "
                      "region: a point violates when C2 - C1 < -(rel1 |C1| + rel2 |C2| + abs1 + abs2)"),
    "schedule": dict(default=None, help="limit schedule as s0,ratio,steps; order --too reads only ratio and steps, "
                                        "since each ray starts where s*w meets a face of the cube, --tdo reads it "
                                        "only to estimate a tail dependence function with no closed form, "
                                        "--loc, --cone and --diagonal reject it, and of repro only glued-joe reads it"),
    "out": dict(default=None, help="output file (default: stdout)"),
    "format": dict(choices=("json", "csv"), help="output format (default: %(default)s)"),
}


def _add_common(sub, *names):
    # only the options the subcommand reads, so argparse rejects the others
    for name in names:
        sub.add_argument(f"--{name}", **_OPTIONS[name])


def _grid(args) -> GridConfig | None:
    return None if args.grid is None else GridConfig(resolution=args.grid)


def _write(args, payload, header, rows) -> None:
    """The one output rule: ``--format json`` writes ``payload``, csv writes ``header`` over ``rows``."""
    _emit(json.dumps(payload, indent=2) + "\n" if args.format == "json" else _csv(rows, header), args.out)


def cmd_eval(args) -> int:
    c = build_copula(load_descriptor(args.descriptor))
    _emit("".join(_fmt(c.eval(_parse_point(text))) + "\n" for text in args.point), args.out)
    return EXIT_OK


def cmd_tdf(args) -> int:
    c = build_copula(load_descriptor(args.descriptor))
    sched = _parse_schedule(args.schedule)
    if args.simplex_grid is not None:
        # the schedule's points over the grid are refused before the grid is built
        sched.check(sched.s0, taildep.simplex_size(args.simplex_grid, c.dimension))
        dirs = taildep.simplex_directions(args.simplex_grid, c.dimension)
        est = taildep.estimate_tdfs(c, dirs, sched)
        cols = list(zip(dirs.tolist(), est.value.tolist(), est.error_estimate.tolist(), est.converged.tolist()))
        payload = [{"w": w, "value": v, "error": e, "converged": ok} for w, v, e, ok in cols]
        header = tuple(f"w{k + 1}" for k in range(c.dimension)) + ("value", "error", "converged")
        _write(args, payload, header, [(*w, v, e, ok) for w, v, e, ok in cols])
        return EXIT_OK
    w = _parse_point(args.w) if args.w else np.ones(c.dimension)
    est = taildep.estimate_tdf(c, w, sched)
    payload = {
        "value": est.value,
        "error_estimate": est.error_estimate,
        "converged": est.converged,
        "trace": [{"s": s, "ratio": r} for s, r in est.trace],
    }
    rows = [(s, r, abs(r - est.trace[k - 1][1]) if k else "", est.converged) for k, (s, r) in enumerate(est.trace)]
    _write(args, payload, ("s", "ratio", "diff", "converged"), rows)
    return EXIT_OK


def _exit_code(statuses: set) -> int:
    # any failing verdict fails; only indistinguishable ones are indistinguishable; otherwise it holds
    if orders.FAILS in statuses:
        return EXIT_ORDER_FAILS
    return EXIT_INDISTINGUISHABLE if statuses <= {orders.INDISTINGUISHABLE} else EXIT_OK


def _ray_table(results) -> tuple[tuple, list]:
    # one row per sampled scale of every ray: "w1|w2|...", s, C1, C2, gap
    return ("w", "s", "C1", "C2", "gap"), [
        ("|".join(_fmt(x) for x in w), float(s), float(a), float(b), float(b - a))
        for w, v in results for s, a, b in zip(v.samples.scale, v.samples.lhs, v.samples.rhs)]


def cmd_order(args) -> int:
    c1 = build_copula(load_descriptor(args.descriptor1))
    c2 = build_copula(load_descriptor(args.descriptor2))
    if args.grid is not None and (args.loc or args.too or args.cone is not None):
        raise DescriptorError("--grid does not apply to --loc, --too and --cone, which sample fixed sets")
    d, sched, g = c1.dimension, _parse_schedule(args.schedule), _grid(args)
    if args.eps is not None and (args.tdo or args.too or args.diagonal):
        raise DescriptorError("--eps applies only to --loc and --cone, which check a ball or cone radius")
    if args.schedule is not None and not (args.too or args.tdo and (c1.tdf is None or c2.tdf is None)):
        raise DescriptorError("--schedule applies only to --too and to --tdo with a copula that has no closed-form "
                              "tail dependence function, which estimate limits")

    if args.too:
        results = orders.check_too(c1, c2, schedule=sched)
        payload = [{"direction": list(w), **v.as_dict()} for w, v in results]
        _write(args, payload, *_ray_table(results))
        return _exit_code({v.status for _, v in results})

    header = tuple(f"u{k + 1}" for k in range(d)) + ("C1", "C2")  # --cone and --loc
    if args.tdo:
        verdict = orders.check_tdo(*(c.tdf or taildep.estimated_tdf(c, sched) for c in (c1, c2)), g)
        header = tuple(f"w{k + 1}" for k in range(d)) + ("L1", "L2")
    elif args.diagonal:
        verdict = orders.check_diagonal_order(families.diagonal_of(c1), families.diagonal_of(c2), g)
        header = ("t", "C1", "C2")
    elif args.cone is not None:
        verdict = orders.check_cone_order(c1, c2, orders.ConeSpec(args.cone), args.eps)
    else:  # --loc
        verdict = orders.check_loc(c1, c2, args.eps)
    s = verdict.samples  # json writes no rows, so they are built only for csv
    rows = np.column_stack([s.points, s.lhs, s.rhs, s.rhs - s.lhs]).tolist() if args.format == "csv" else ()
    _write(args, verdict.as_dict(), header + ("gap",), rows)
    return _exit_code({verdict.status})


def cmd_verify(args) -> int:
    outcomes = verify.run_suite(args.suite)
    payload = [{"suite": o.suite, "check": o.name, "passed": o.passed, "detail": o.detail} for o in outcomes]
    rows = [(o.suite, o.name, "pass" if o.passed else "FAIL", o.detail) for o in outcomes]
    _write(args, payload, ("suite", "check", "status", "detail"), rows)
    return EXIT_OK if all(o.passed for o in outcomes) else EXIT_ORDER_FAILS


def _repro_mo_clayton(args):
    alpha = 0.5 if args.alpha is None else args.alpha
    mo = families.marshall_olkin(alpha)
    cl = families.archimedean(families.clayton_generator(1.0 if args.theta is None else args.theta))
    t = np.linspace(0.0, 1.0, 201)[1:-1].tolist()
    pts = np.array([(ti, ti**alpha) for ti in t])
    return ("t", "M", "C"), list(zip(t, mo.cdf(pts).tolist(), cl.cdf(pts).tolist()))


def _repro_fig1(args):
    t = np.linspace(0.0, 1.0, 201)
    lams = (taildep.fig1_parabola(), taildep.fig1_piecewise(), taildep.min_tdf())
    sections = map(taildep.simplex_restriction, lams)
    return ("t", "parabola", "piecewise", "envelope"), np.column_stack([t, *(f(t) for f in sections)]).tolist()


def _repro_glued_joe(args):
    joe = families.archimedean(families.joe_generator(2.0))
    cp = core.comonotone()
    results = orders.check_too(core.glue(joe, cp, 1, 0.5), core.glue(joe, cp, 2, 0.5),
                               directions=[(0.5, 1.0), (1.0, 0.5)], schedule=_parse_schedule(args.schedule))
    return _ray_table(results)


# each counterexample and the options of its own that it reads
_REPROS = {"mo-clayton": (_repro_mo_clayton, ("alpha", "theta")), "glued-joe": (_repro_glued_joe, ("schedule",)),
           "fig1-tdfs": (_repro_fig1, ())}


def cmd_repro(args) -> int:
    build, reads = _REPROS[args.name]
    for name in ("alpha", "theta", "schedule"):
        if getattr(args, name) is not None and name not in reads:
            raise DescriptorError(f"repro {args.name} would ignore --{name}")
    header, rows = build(args)
    _write(args, [dict(zip(header, row)) for row in rows], header, rows)
    return EXIT_OK


def cmd_validate(args) -> int:
    c = build_copula(load_descriptor(args.descriptor))
    report = core.validate_copula(c, _grid(args))
    rows = [(chk.name, chk.passed, chk.worst) for chk in report.checks]
    _write(args, report.as_dict(), ("check", "passed", "worst"), rows)
    return EXIT_OK if report.passed else EXIT_ORDER_FAILS


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads '-...' as an option unless it is a plain number like -1.5; a point like -1e-13,0.5 is a value
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # a usage error is bad input: exit 2 with one ``error:`` line
        raise DescriptorError(f"{message} (see {self.prog} --help)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tailorder",
        description="Copula tail dependence functions and local stochastic orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptor_help = f"JSON descriptor file or shorthand: {SHORTHAND_USAGE}"

    p = sub.add_parser("eval", help="evaluate a copula at points")
    p.add_argument("descriptor", help=descriptor_help)
    p.add_argument("-u", "--point", action="append", required=True, help="point as u1,u2[,u3]")
    _add_common(p, "out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tdf", help="estimate the tail dependence function")
    p.add_argument("descriptor", help=descriptor_help)
    where = p.add_mutually_exclusive_group()
    where.add_argument("--w", default=None, help="direction as w1,w2[,w3] (default: all ones)")
    where.add_argument("--simplex-grid", type=int, default=None, help="estimate on an n-point simplex grid")
    _add_common(p, "schedule", "out", "format")
    p.set_defaults(func=cmd_tdf, format="csv")

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
    _add_common(p, "grid", "schedule", "out", "format")
    p.set_defaults(func=cmd_order, format="json")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=verify.suite_names())
    _add_common(p, "out", "format")
    p.set_defaults(func=cmd_verify, format="csv")

    p = sub.add_parser("repro", help="reproduce a counterexample")
    p.add_argument("name", choices=_REPROS)
    p.add_argument("--alpha", type=float, default=None, help="Marshall-Olkin parameter of mo-clayton (default: 0.5)")
    p.add_argument("--theta", type=float, default=None, help="Clayton parameter of mo-clayton (default: 1.0)")
    _add_common(p, "schedule", "out", "format")
    p.set_defaults(func=cmd_repro, format="csv")

    p = sub.add_parser("validate", help="audit the copula axioms for a descriptor")
    p.add_argument("descriptor", help=descriptor_help)
    _add_common(p, "grid", "out", "format")
    p.set_defaults(func=cmd_validate, format="json")

    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    # a warning keeps its filters and category, and prints as one line without a source path
    previous, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DimensionError as exc:
        code, message = EXIT_DIMENSION_ERROR, str(exc)
    except CopulaError as exc:  # DescriptorError included
        code, message = EXIT_INPUT_ERROR, str(exc)
    except Exception as exc:  # exit 1 means "order fails", so no failure may escape with it
        code, message = EXIT_INTERNAL_ERROR, f"internal error: {type(exc).__name__}: {exc}"
    finally:
        warnings.formatwarning = previous
    sys.stderr.write(f"error: {message}\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
