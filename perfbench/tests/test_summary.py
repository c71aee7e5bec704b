import numpy as np
import pytest

import summary


def test_median_interpolates():
    assert summary.median([3.0, 1.0, 2.0]) == 2.0
    assert summary.median([4.0, 1.0, 2.0, 3.0]) == 2.5


@pytest.mark.parametrize("q", [0.75, 0.9, 0.95, 0.99])
def test_percentile_reported_only_with_ten_samples_beyond(q):
    for n in range(1, 1100):
        values = np.arange(n, dtype=float)
        reference = float(np.percentile(values, 100 * q))
        beyond = int((values > reference).sum())
        if beyond >= summary.MIN_BEYOND:
            assert summary.percentile(values.tolist(), q) == pytest.approx(reference)
        else:
            with pytest.raises(summary.TooFewSamples):
                summary.percentile(values.tolist(), q)


def test_percentile_boundaries():
    assert summary.percentile(range(40), 0.75) == pytest.approx(29.25)
    with pytest.raises(summary.TooFewSamples):
        summary.percentile(range(40), 0.9)
    assert summary.percentile(range(100), 0.9) == pytest.approx(89.1)
    with pytest.raises(summary.TooFewSamples):
        summary.percentile([], 0.75)


def test_reference_kernels_take_measurable_time():
    assert 0.0 < summary.python_kernel_time() < 1.0
    assert 0.0 < summary.numpy_kernel_time() < 1.0
    assert 0.0 < summary.reference_time() < 1.0


def test_scaled_seconds_cancels_the_kernel_speed():
    nominal = summary.NOMINAL_PYTHON_KERNEL_S
    assert summary.scaled_seconds(0.3, 2 * nominal) == pytest.approx(0.15)
    assert summary.scaled_seconds(0.3, nominal) == pytest.approx(0.3)


def test_balanced_weights_every_kind_the_same():
    samples = [("fast", 1.0, 1.0)] * 3 + [("slow", 100.0, 1.0)] * 3
    assert summary.balanced(samples) == pytest.approx([10.0] * 6)
    # halving either kind lowers the median by the same factor
    for kind in ("fast", "slow"):
        faster = [(k, t / 2 if k == kind else t, r) for k, t, r in samples]
        assert summary.median(summary.balanced(faster)) == pytest.approx(10.0 / 2**0.5)


def test_balanced_keeps_the_spread_within_kinds():
    samples = [("a", t, 2.0) for t in (1.0, 2.0, 4.0)] + [("b", 30.0, 1.0)]
    out = summary.balanced(samples)
    assert out[0] / out[1] == pytest.approx(0.5) and out[2] / out[1] == pytest.approx(2.0)
