"""Child-process side of the benchmark; ``run.py`` starts it with a pinned environment.

Modes (the last line of standard output is a JSON object):

  warm                      import everything once so the bytecode cache is filled
  setup --workload W        time a fresh ``import tailorder`` plus the workload's build
  run --workload W ...      the surface or verdicts loop, oracle-checked
  probe --seed N            per-layer probes of ``core`` and ``families``
  importprobe               import time of numpy, scipy.special and tailorder.cli
  cli --spans PATH -- ARGS  ``python -m tailorder.cli ARGS`` with spans recorded
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time

import summary

WORKER = os.path.abspath(__file__)
# setups per run, spread evenly through the untraced loop so that their
# median samples the same stretch of machine time as the operations
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60


def _emit(payload: dict):
    sys.stdout.write(json.dumps(payload) + "\n")


def _setup(workload: str):
    """Import and build what the workload needs; returns its context."""
    import workloads

    if workload == "surface":
        import tailorder  # noqa: F401
        return workloads.build_surface_copulas()
    if workload == "verdicts":
        import tailorder  # noqa: F401
        return workloads.verdict_context()
    import tailorder.cli  # noqa: F401
    return None


# kernel runs timed around each set-up, before and after (about 10 ms each)
SETUP_REFERENCE_REPEATS = 5


def mode_setup(args):
    """Time one set-up in CPU seconds, which waiting for a busy core does not inflate.

    The pure-Python reference kernel is timed in CPU time in this same
    process just before and just after, and the set-up is reported scaled to
    the nominal kernel speed.
    """
    before = summary.python_kernel_time(SETUP_REFERENCE_REPEATS, time.process_time)
    wall, cpu = time.perf_counter(), time.process_time()
    _setup(args.workload)
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    after = summary.python_kernel_time(SETUP_REFERENCE_REPEATS, time.process_time)
    _emit({"setup_s": summary.scaled_seconds(cpu, (before + after) / 2), "setup_cpu_s": cpu, "setup_wall_s": wall})


def mode_warm(args):
    import mpmath  # noqa: F401
    import tailorder.cli  # noqa: F401

    import oracles  # noqa: F401
    import spans  # noqa: F401
    import workloads  # noqa: F401
    _emit({"warm": True})


class Setups:
    """Fresh-interpreter set-ups of one workload, spread through a timed loop.

    :meth:`poll` runs the next set-up once its share of the loop's time has
    passed; :meth:`finish` runs any left.  ``spent`` is the wall time they
    took, which the loop leaves out of its own clock.
    """

    def __init__(self, workload: str, seconds: float, env: dict | None = None):
        self.workload = workload
        self.every = seconds / SETUP_REPEATS
        self.env = env
        self.scaled: list[float] = []
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self.spent = 0.0

    def poll(self, elapsed: float):
        if len(self.scaled) < SETUP_REPEATS and elapsed >= len(self.scaled) * self.every:
            self.run()

    def finish(self):
        while len(self.scaled) < SETUP_REPEATS:
            self.run()

    def run(self):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, WORKER, "setup", "--workload", self.workload],
                              env=self.env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        self.spent += time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"setup exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.scaled.append(result["setup_s"])
        self.cpu.append(result["setup_cpu_s"])
        self.wall.append(result["setup_wall_s"])


class Tally:
    """Operations attempted and failed, with the first message of each failing operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: dict[str, str] = {}

    def record(self, name: str, ok: bool, message: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.setdefault(name, message)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "messages": self.messages}


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Surface:
    """15 copulas, each evaluated on its own seeded 65,536-point batch per pass."""

    def __init__(self, seed: int, copulas):
        import workloads

        self.labels = workloads.SURFACE_LABELS
        self.copulas = copulas
        self.batches = [workloads.surface_batch(seed, i, c.dimension) for i, c in enumerate(copulas)]
        self.reference = [None] * len(copulas)

    def first_pass(self, tally: Tally, defects: Tally):
        import oracles

        for i, (label, c, pts) in enumerate(zip(self.labels, self.copulas, self.batches)):
            try:
                vals = c.cdf(pts)
            except Exception as exc:  # a raising operation is a failed operation
                tally.record(label, False, _describe(exc))
                continue
            problems = oracles.check_surface(label, pts, vals)
            tally.record(label, not problems, "; ".join(problems))
            self.reference[i] = vals

    def timed_pass(self, tally: Tally, rng: random.Random, rec=None, op: str = "") -> list[tuple]:
        import numpy as np

        samples = []
        for i, (label, c, pts) in enumerate(zip(self.labels, self.copulas, self.batches)):
            if rec is not None:
                rec.op = f"{op}/{label}"
            ref = summary.reference_time()
            start = time.perf_counter()
            try:
                vals = c.cdf(pts)
            except Exception as exc:
                samples.append((label, time.perf_counter() - start, ref))
                tally.record(label, False, _describe(exc))
                continue
            samples.append((label, time.perf_counter() - start, ref))
            same = self.reference[i] is not None and np.array_equal(vals, self.reference[i])
            tally.record(label, same, "values differ from the first pass")
        return samples


class Verdicts:
    """The verdict sheet, always run whole; one sample is one whole sheet."""

    def __init__(self, seed: int, ctx):
        import workloads

        self.rows = workloads.VERDICT_SHEET
        self.ctx = ctx
        self.reference: dict[str, str] = {}

    def _run_row(self, row):
        try:
            result = row.call(self.ctx)
        except Exception as exc:
            return False, type(exc).__name__, f"{_describe(exc)}; see {row.source}"
        ok = bool(row.expect(result))
        return ok, row.fingerprint(result), "" if ok else f"answered {row.fingerprint(result)}; see {row.source}"

    def first_pass(self, tally: Tally, defects: Tally):
        import workloads

        for row in self.rows:
            ok, fp, message = self._run_row(row)
            self.reference[row.name] = fp
            tally.record(row.name, ok, message)
        for row in workloads.DEFECT_SHEET:
            ok, _, message = self._run_row(row)
            defects.record(row.name, ok, f"[{row.defect}] {message}")

    def timed_pass(self, tally: Tally, rng: random.Random, rec=None, op: str = "") -> list[tuple]:
        order = list(self.rows)
        rng.shuffle(order)
        sheet = 0.0
        ref = summary.reference_time()
        for row in order:
            if rec is not None:
                rec.op = f"{op}/{row.name}"
            start = time.perf_counter()
            ok, fp, message = self._run_row(row)
            sheet += time.perf_counter() - start
            if fp != self.reference[row.name]:
                tally.record(row.name, False, f"answer changed between passes: {fp}")
            else:
                tally.record(row.name, ok, message)
        return [("sheet", sheet, ref)]


def _loop(load, tally: Tally, rng: random.Random, seconds: float, min_ops: int,
          setups: Setups | None = None, rec=None):
    """Whole passes until ``seconds`` of loop time have passed and at least ``min_ops`` samples exist.

    Each sample is (kind, operation seconds, reference seconds just
    before it).  Set-ups run between passes and are not loop time.
    """
    samples: list[tuple] = []
    passes = 0
    start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - start - (setups.spent if setups else 0.0)

    while passes == 0 or elapsed() < seconds or len(samples) < min_ops:
        if setups is not None:
            setups.poll(elapsed())
        samples += load.timed_pass(tally, rng, rec, f"pass{passes}")
        passes += 1
    if setups is not None:
        setups.finish()
    return samples, passes


# enough samples for a p75 with ten beyond it
MIN_OPS = 40


def mode_run(args):
    ctx = _setup(args.workload)
    load = (Surface if args.workload == "surface" else Verdicts)(args.seed, ctx)
    tally, defects = Tally(), Tally()
    load.first_pass(tally, defects)
    rng = random.Random(args.seed)
    setups = Setups(args.workload, args.seconds)
    samples, _ = _loop(load, tally, rng, args.seconds, MIN_OPS, setups)
    result = {"samples": samples, "setups": [setups.scaled, setups.cpu, setups.wall],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "defects": defects.as_dict()}
    if args.trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
        rec.op = "setup"
        _setup(args.workload)
        setup_spans = list(rec.spans)
        rec.spans.clear()
        traced, traced_passes = _loop(load, tally, rng, args.seconds, 1, rec=rec)
        rec.dump(args.spans)
        result.update(
            traced_samples=traced,
            layer=spans.layer_metrics(rec.spans, traced_passes),
            build_copula_s=spans.layer_metrics(setup_spans, 1)["descriptors.build_copula_s"],
        )
    result.update(tally.as_dict())
    _emit(result)


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return summary.median(times)


def mode_probe(args):
    """Single-layer probes: per-call and per-point costs of ``core``, throughput of each family."""
    import numpy as np
    from tailorder import core, descriptors

    import workloads

    out = {}
    clayton = descriptors.build_copula(descriptors.parse_shorthand("clayton:2"))
    point = np.array([0.3, 0.4])
    calls = 2000
    out["core.single_point_us"] = _median_time(lambda: [clayton.cdf(point) for _ in range(calls)], 5) / calls * 1e6

    pts = workloads.surface_batch(args.seed, 0, 2)
    n = pts.shape[0]
    guarded = core.independence()
    raw = core.copula_from_callable(lambda p: p.prod(axis=1), 2)
    t_guarded = _median_time(lambda: guarded.cdf(pts), 9)
    t_numpy = _median_time(lambda: pts.prod(axis=1), 9)
    t_raw = _median_time(lambda: raw.cdf(pts), 9)
    out["core.guard_ns_per_point"] = (t_guarded - t_numpy) / n * 1e9
    out["core.boundary_ns_per_point"] = (t_guarded - t_raw) / n * 1e9

    for i, (label, c) in enumerate(zip(workloads.SURFACE_LABELS, workloads.build_surface_copulas())):
        batch = workloads.surface_batch(args.seed, i, c.dimension)
        out[f"families.{label}.mpts_per_s"] = batch.shape[0] / _median_time(lambda: c.cdf(batch), 3) / 1e6
    _emit(out)


def mode_importprobe(args):
    start = time.perf_counter()
    import numpy  # noqa: F401
    after_numpy = time.perf_counter()
    import scipy.special  # noqa: F401
    after_scipy = time.perf_counter()
    import tailorder.cli  # noqa: F401
    end = time.perf_counter()
    _emit({"cli.import_numpy_s": after_numpy - start, "cli.import_scipy_s": after_scipy - after_numpy,
           "cli.import_own_s": end - after_scipy})


def mode_cli(args):
    """Run the CLI as ``python -m tailorder.cli`` would, recording spans to --spans."""
    start = time.perf_counter_ns()
    import tailorder.cli
    imported = time.perf_counter_ns()

    import spans

    rec = spans.Recorder()
    rec.spans.append({"id": 0, "name": "cli.import", "parent": None, "op": args.op,
                      "start": start, "end": imported})
    spans.install(rec)
    rec.op = args.op
    try:
        code = rec.call("cli.main", tailorder.cli.main, (args.argv,), {}, {})
    finally:
        rec.dump(args.spans)
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("warm").set_defaults(func=mode_warm)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.set_defaults(func=mode_setup)
    p = sub.add_parser("run")
    p.add_argument("--workload", choices=("surface", "verdicts"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None)
    p.set_defaults(func=mode_run)
    p = sub.add_parser("probe")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=mode_probe)
    sub.add_parser("importprobe").set_defaults(func=mode_importprobe)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("--op", default="")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=mode_cli)
    args = parser.parse_args()
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    args.func(args)


if __name__ == "__main__":
    main()
