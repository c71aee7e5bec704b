"""Benchmark of ``tailorder``: one workload, one seed, one run.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload {surface,verdicts,cli} --seed N --seconds S --trace {0,1}

The program is measured from outside: each run starts fresh interpreters
with a pinned environment (one BLAS/OpenMP thread, ``PYTHONPATH=src``, a
bytecode cache under ``.bench_build/`` warmed before timing) and checks every
answer against an oracle or an expected answer.  The last line of standard
output is one JSON object; the lines before it give the run's figures under
the names the README uses.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
WORK = os.path.join(".bench_build", "perfbench")
# keep this process's own bytecode out of the source tree
sys.pycache_prefix = os.path.join(ROOT, WORK, "pycache")

import summary  # noqa: E402
import workloads  # noqa: E402
from worker import Setups, Tally  # noqa: E402

WORKER = os.path.join("perfbench", "worker.py")
IMPORT_PROBE_REPEATS = 3
CLI_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
# cli: at least two whole passes, so each output is compared with a repeat
CLI_MIN_PASSES = 2


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONPYCACHEPREFIX=os.path.join(ROOT, WORK, "pycache"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def worker(env: dict, *args: str, timeout: float = WORKER_TIMEOUT_S) -> dict:
    """Run one worker process to completion and return its JSON result."""
    proc = subprocess.run([sys.executable, WORKER, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- cli loop


def run_child(argv: list[str], env: dict) -> tuple[int, bytes, bytes, float, float]:
    """Run one command to its end: (exit code, stdout, stderr, seconds, peak RSS in MB).

    The child is reaped with ``os.wait4`` so that its own peak memory is read.
    """
    out_path, err_path = os.path.join(WORK, "child.out"), os.path.join(WORK, "child.err")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), elapsed, usage.ru_maxrss / 1024.0


class CliLoad:
    """The CLI script, one fresh interpreter per command, one at a time."""

    def __init__(self, env: dict, seed: int):
        self.env = env
        self.rng = random.Random(seed)
        self.reference: dict[int, tuple] = {}
        self.tally = Tally()
        self.peak_rss_mb = 0.0
        self.span_files: list[tuple[str, float]] = []
        os.makedirs(os.path.join(WORK, "out"), exist_ok=True)
        for name, desc in workloads.GLUED_JOE_FILES.items():
            with open(os.path.join(WORK, name), "w") as handle:
                json.dump(desc, handle)

    def argv(self, cmd: workloads.Command, traced: bool, op: str) -> list[str]:
        args = [a.format(work=WORK) for a in cmd.args]
        if not traced:
            return [sys.executable, "-m", "tailorder.cli", *args]
        spans_path = os.path.join(WORK, f"cli-spans-{len(self.span_files)}.jsonl")
        return [sys.executable, WORKER, "cli", "--spans", spans_path, "--op", op, "--", *args]

    def run(self, cmd: workloads.Command, traced: bool, op: str) -> tuple:
        """Run one command; returns (code, stdout, --out bytes, stderr, seconds, reference seconds, peak RSS in MB)."""
        argv = self.argv(cmd, traced, op)
        out_path = os.path.join(WORK, cmd.out) if cmd.out else None
        if out_path and os.path.exists(out_path):
            os.unlink(out_path)
        ref = summary.reference_time()
        code, stdout, stderr, elapsed, rss = run_child(argv, self.env)
        if traced:
            self.span_files.append((argv[argv.index("--spans") + 1], elapsed))
        written = b""
        if out_path:
            with open(out_path, "rb") as handle:
                written = handle.read()
        return code, stdout, written, stderr, elapsed, ref, rss

    def timed(self, index: int, cmd: workloads.Command, traced: bool, op: str) -> tuple:
        """Run one script command and check it; returns the sample (kind, seconds, reference seconds)."""
        code, stdout, written, stderr, elapsed, ref, rss = self.run(cmd, traced, op)
        if not traced:
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
        # stderr is left out: a traceback names the frames of the traced wrapper
        fingerprint = (code, stdout, written)
        name = " ".join(cmd.args)
        if fingerprint != self.reference.setdefault(index, fingerprint):
            self.tally.record(name, False, "output differs from the first pass")
        else:
            self.tally.record(name, code == cmd.exit_code, _exit_message(code, cmd, stderr))
        return index, elapsed, ref

    def check_defects(self, defects: Tally):
        """The known-wrong commands, once each and untimed."""
        for cmd in workloads.DEFECT_SCRIPT:
            code, _, _, stderr, _, _, _ = self.run(cmd, False, "defects")
            defects.record(" ".join(cmd.args), code == cmd.exit_code,
                           f"[{cmd.defect}] " + _exit_message(code, cmd, stderr))

    def loop(self, seconds: float, min_passes: int, traced: bool,
             setups: Setups | None = None) -> tuple[list[tuple], int]:
        samples: list[tuple] = []
        passes = 0
        start = time.perf_counter()

        def elapsed():
            return time.perf_counter() - start - (setups.spent if setups else 0.0)

        while passes < min_passes or elapsed() < seconds:
            order = list(enumerate(workloads.CLI_SCRIPT))
            self.rng.shuffle(order)
            for index, cmd in order:
                if setups is not None:
                    setups.poll(elapsed())
                samples.append(self.timed(index, cmd, traced, f"pass{passes}/{index}"))
            passes += 1
        if setups is not None:
            setups.finish()
        return samples, passes


def _exit_message(code: int, cmd: workloads.Command, stderr: bytes) -> str:
    last = (stderr.decode(errors="replace").strip().splitlines() or [""])[-1]
    return f"exit {code}, expected {cmd.exit_code} ({cmd.source}) {last}".rstrip()


def cli_layer_metrics(files: list[tuple[str, float]], passes: int) -> tuple[dict, list[dict]]:
    """Merge the spans of traced CLI children; per-pass counts, per-command medians."""
    import spans as spanlib

    merged, spawn, imports, mains = [], [], [], []
    for path, wall in files:
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        os.unlink(path)
        base = len(merged)
        for r in records:
            r["id"] += base
            if r["parent"] is not None:
                r["parent"] += base
        merged += records
        imp = next(r for r in records if r["name"] == "cli.import")
        main = next(r for r in records if r["name"] == "cli.main")
        imports.append((imp["end"] - imp["start"]) / 1e9)
        mains.append((main["end"] - main["start"]) / 1e9)
        spawn.append(wall - imports[-1] - mains[-1])
    out = spanlib.layer_metrics(merged, passes)
    out.update({"cli.spawn_s": summary.median(spawn), "cli.import_s": summary.median(imports),
                "cli.main_s": summary.median(mains)})
    return out, merged


# ---------------------------------------------------------------- metrics


def end_to_end(setup: list[float], samples: list[tuple], peak_rss_mb: float) -> dict:
    """The bounded figures: {name: (value, unit)}."""
    rel = summary.balanced(samples)
    return {
        "setup_s": (summary.median(setup), "s"),
        "op_p50_ref": (summary.median(rel), "ref"),
        "op_p75_ref": (summary.percentile(rel, 0.75), "ref"),
        "op_mean_ref": (sum(t for _, t, _ in samples) / sum(r for _, _, r in samples), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# wall-clock operation figures: name prefix, unit, seconds -> unit
WALL_NAMES = {"surface": ("eval_batch", "ms", 1e3), "verdicts": ("verdict_sheet", "ms", 1e3),
              "cli": ("cli_cmd", "s", 1.0)}


def report_lines(workload: str, setup: list[list[float]], samples: list[tuple],
                 tally: Tally, defects: Tally) -> list[str]:
    """The workload's figures under the README's names, in wall-clock units.

    ``setup`` holds the set-up times scaled to the nominal kernel speed, in CPU seconds, and in wall seconds.
    """
    times = [t for _, t, _ in samples]
    name, unit, scale = WALL_NAMES[workload]
    try:
        p90 = f"{summary.percentile(times, 0.9) * scale:.6g} {unit}"
    except summary.TooFewSamples as exc:
        p90 = f"not reported: {exc}"
    scaled, cpu, wall = (summary.median(values) for values in setup)
    lines = [f"setup_s = {scaled:.6g} s at the nominal kernel speed; {cpu:.6g} s CPU, {wall:.6g} s wall "
             f"(medians of {len(setup[0])})",
             f"failed_ratio = {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})",
             f"{name}_p50_{unit} = {summary.median(times) * scale:.6g} {unit} over {len(times)} operations",
             f"{name}_p90_{unit} = {p90}",
             f"reference median (both kernels) = {summary.median([r for _, _, r in samples]) * 1e3:.6g} ms"]
    if workload == "surface":
        mpts = workloads.BATCH_POINTS * len(times) / sum(times) / 1e6
        lines.insert(2, f"eval_mpts_per_s = {mpts:.6g} Mpts/s")
    if defects.attempted:
        lines.append(f"known-defect rows, untimed: {defects.failed}/{defects.attempted} failed")
    return lines


def per_layer(env: dict, workload: str, seed: int, loop_layer: dict, build_copula_s: float | None,
              untraced: list[tuple], traced: list[tuple]) -> dict:
    """Per-layer figures: the traced loop (zero for layers it never enters) and single-layer probes."""
    layer = worker(env, "probe", "--seed", str(seed))
    layer.update(loop_layer)
    if build_copula_s is not None:
        layer["descriptors.build_copula_s"] = build_copula_s
    layer.setdefault("cli.spawn_s", 0.0)
    layer.setdefault("cli.import_s", 0.0)
    layer.setdefault("cli.main_s", 0.0)
    probes = [worker(env, "importprobe") for _ in range(IMPORT_PROBE_REPEATS)]
    for key in probes[0]:
        layer[key] = summary.median([p[key] for p in probes])
    ratio = summary.median(summary.balanced(traced)) / summary.median(summary.balanced(untraced))
    layer["trace.overhead_pct"] = (ratio - 1.0) * 100.0
    return layer


LAYER_UNITS = {"_us": "us", "_ns_per_point": "ns", "mpts_per_s": "Mpts/s", "_pct": "%", "_s": "s"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="tailorder benchmark")
    parser.add_argument("--workload", choices=("surface", "verdicts", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tailorder", "__init__.py")):
        sys.stderr.write("error: run from the root of a tailorder checkout (src/tailorder not found)\n")
        return 2
    os.makedirs(WORK, exist_ok=True)
    env = pinned_env()
    worker(env, "warm", timeout=600)

    # a traced run spends half its time untraced, for the overhead, then half traced
    seconds = args.seconds / 2 if args.trace else args.seconds
    trace_path = os.path.join(WORK, f"trace-{args.workload}.jsonl")
    defects = Tally()
    if args.workload == "cli":
        load = CliLoad(env, args.seed)
        load.check_defects(defects)
        setups = Setups("cli", seconds, env)
        samples, _ = load.loop(seconds, 1 if args.trace else CLI_MIN_PASSES, False, setups)
        peak_rss_mb, setup = load.peak_rss_mb, [setups.scaled, setups.cpu, setups.wall]
        if args.trace:
            traced, traced_passes = load.loop(seconds, 1, True)
            loop_layer, merged = cli_layer_metrics(load.span_files, traced_passes)
            with open(trace_path, "w") as handle:
                for record in merged:
                    handle.write(json.dumps(record) + "\n")
            build_s = None
        tally = load.tally
    else:
        result = worker(env, "run", "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(seconds), "--trace", str(args.trace), "--spans", trace_path)
        samples, peak_rss_mb = result["samples"], result["peak_rss_mb"]
        setup = result["setups"]
        tally = Tally()
        vars(tally).update({k: result[k] for k in vars(tally)})
        vars(defects).update(result["defects"])
        if args.trace:
            traced, loop_layer, build_s = result["traced_samples"], result["layer"], result["build_copula_s"]

    print(f"workload {args.workload}, seed {args.seed}")
    for line in report_lines(args.workload, setup, samples, tally, defects):
        print("  " + line)
    for name, message in {**tally.messages, **defects.messages}.items():
        print(f"  FAILED {name}: {message}")

    if args.trace:
        layer = per_layer(env, args.workload, args.seed, loop_layer, build_s, samples, traced)
        print(f"  tracing overhead on the median operation: {layer['trace.overhead_pct']:.3g}%")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layer.items())}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(setup[0], samples, peak_rss_mb).items()}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
