"""Timing statistics.

A tail percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it; with fewer it says more about one sample than about the tail.

The benchmark runs on shared machines whose speed drifts by 10-30% over
seconds to minutes, in pure Python and in numpy, though not always by the
same amount.  So every timed operation is paired with :func:`reference_time`,
the geometric mean of a fixed pure-Python kernel and a fixed numpy kernel
timed just before it, and the bounded figures are operation times in units
of that reference ("ref").  The drift scales both, so most of it cancels in
the ratio.  :func:`balanced` then gives every kind of operation the same
weight, so that no single kind sets a percentile."""

from __future__ import annotations

import math
import time
from collections import defaultdict

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than MIN_BEYOND samples beyond it."""


def _interpolate(ordered: list[float], q: float) -> float:
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the interpolation position of quantile q in n."""
    return n - 1 - math.floor(q * (n - 1))


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise TooFewSamples("median of no samples")
    return _interpolate(ordered, 0.5)


def percentile(values, q: float) -> float:
    """Linear-interpolation quantile q, refused without MIN_BEYOND samples beyond it."""
    ordered = sorted(values)
    beyond = samples_beyond(len(ordered), q)
    if not ordered or beyond < MIN_BEYOND:
        raise TooFewSamples(f"p{100 * q:g} needs {MIN_BEYOND} samples beyond it; "
                            f"{len(ordered)} samples leave {max(beyond, 0)}")
    return _interpolate(ordered, q)


def balanced(samples) -> list[float]:
    """Operation times in reference units, every kind of operation weighted the same.

    ``samples`` are (kind, seconds, reference seconds).  A sample's ratio is
    scaled by G / m, where m is the median ratio of its kind and G is the
    geometric mean of those medians over the kinds.  The median of the result
    stays near G, so a k-fold speed-up of any one of n kinds lowers it by
    about k^(1/n), whichever kind it is; what is left of the spread is the
    spread within kinds.
    """
    ratios = defaultdict(list)
    for kind, seconds, ref in samples:
        ratios[kind].append(seconds / ref)
    medians = {kind: median(values) for kind, values in ratios.items()}
    g = math.exp(sum(math.log(m) for m in medians.values()) / len(medians))
    return [seconds / ref * g / medians[kind] for kind, seconds, ref in samples]


PYTHON_KERNEL_ITERATIONS = 30_000
NUMPY_KERNEL_REPEATS = 8
# what one run of the pure-Python kernel takes on a quiet machine; set-up
# times are reported at this kernel speed (see scaled_seconds)
NOMINAL_PYTHON_KERNEL_S = 1.5e-3
_numpy_input = None


def python_kernel_time(repeats: int = 1, clock=time.perf_counter) -> float:
    """Seconds per run of the pure-Python kernel now, timed over ``repeats`` runs back to back."""
    start = clock()
    total = 0
    for i in range(PYTHON_KERNEL_ITERATIONS * repeats):
        total += i * i
    return (clock() - start) / repeats


def numpy_kernel_time() -> float:
    """Seconds the numpy kernel takes now: logs of 65,536 numbers and a sort of 8,192, repeated."""
    global _numpy_input
    import numpy as np

    if _numpy_input is None:
        _numpy_input = np.random.default_rng(0).random(65_536)
    start = time.perf_counter()
    for _ in range(NUMPY_KERNEL_REPEATS):
        np.log(_numpy_input)
        np.sort(_numpy_input[:8192])
    return time.perf_counter() - start


def reference_time() -> float:
    """The reference an operation is measured in: the geometric mean of both kernels' times.

    Numpy-bound work (``surface``) tracks the numpy kernel and import-bound
    work (``cli``) the Python one; the mean follows both well enough.
    """
    return math.sqrt(python_kernel_time() * numpy_kernel_time())


def scaled_seconds(seconds: float, python_kernel: float) -> float:
    """``seconds`` measured while the pure-Python kernel took ``python_kernel``, at its nominal speed.

    This keeps a time in seconds while cancelling most of the machine's
    drift, as the "ref" units do for operations.  Set-up is import-bound, and
    numpy is not loaded before it, so the pure-Python kernel is the one used.
    """
    return seconds / python_kernel * NOMINAL_PYTHON_KERNEL_S
