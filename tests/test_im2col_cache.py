"""The thread-local buffer cache behind the inference gather.

``strided_im2col`` gathers the ``kw`` horizontal taps of the zero-padded
input into a ``(N, C*kw, Hp*Wp)`` matrix and recycles its (padded, columns)
working buffers per thread and shape signature; these tests pin the
properties the recycling must not break — the matrix stays bit-identical to a
plain loop gather call after call, the pad border stays zero across reuses,
dtypes get their own buffers, and worker threads never share storage.
"""

import threading

import numpy as np
import pytest

from repro.nn import clear_im2col_buffer_cache, im2col_buffer_cache_info
from repro.nn.conv import strided_im2col


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_im2col_buffer_cache()
    yield
    clear_im2col_buffer_cache()


def _reference_im2col(x, kernel_size, dilation=(1, 1), padding=(0, 0)):
    """Horizontal taps gathered one (channel, tap) row at a time.

    Each channel is zero-padded, flattened row-major and followed by
    ``(kw - 1) * dil_w`` zeros; row ``c*kw + kx`` is that flat channel read
    from offset ``kx * dil_w``.
    """
    num, channels, height, width = x.shape
    (kernel_h, kernel_w), (dil_h, dil_w), (pad_h, pad_w) = kernel_size, dilation, padding
    padded = np.pad(x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    plane = padded.shape[2] * padded.shape[3]
    slack = np.zeros((num, channels, (kernel_w - 1) * dil_w), dtype=x.dtype)
    flat = np.concatenate([padded.reshape(num, channels, plane), slack], axis=2)
    columns = np.empty((num, channels * kernel_w, plane), dtype=x.dtype)
    row = 0
    for c in range(channels):
        for kx in range(kernel_w):
            columns[:, row] = flat[:, c, kx * dil_w : kx * dil_w + plane]
            row += 1
    return columns


CASES = [
    dict(kernel_size=(1, 7), padding=(0, 3)),
    dict(kernel_size=(7, 1), padding=(3, 0)),
    dict(kernel_size=(5, 5), padding=(8, 2), dilation=(4, 1)),
    dict(kernel_size=(3, 3), padding=(0, 0)),
    dict(kernel_size=(3, 3), padding=(1, 2), dilation=(1, 2)),
    dict(kernel_size=(1, 1)),
]


@pytest.mark.parametrize("case", CASES)
def test_matches_fancy_index_reference(case):
    """strided_im2col is bit-identical to the loop gather."""
    x = np.random.default_rng(0).normal(size=(2, 3, 12, 9))
    np.testing.assert_array_equal(
        strided_im2col(x, **case), _reference_im2col(x, **case)
    )


def test_buffer_reuse_stays_bit_identical_and_border_stays_zero():
    rng = np.random.default_rng(1)
    case = dict(kernel_size=(5, 5), padding=(2, 2))
    for _ in range(4):  # every call after the first hits the warm buffers
        x = rng.normal(size=(3, 2, 10, 8))
        np.testing.assert_array_equal(
            strided_im2col(x, **case), _reference_im2col(x, **case)
        )
    assert im2col_buffer_cache_info()["entries"] == 1


def test_distinct_signatures_get_distinct_entries():
    x = np.zeros((1, 1, 8, 8))
    strided_im2col(x, (3, 3), padding=(1, 1))
    strided_im2col(x, (3, 3), padding=(0, 0))
    strided_im2col(np.zeros((2, 1, 8, 8)), (3, 3), padding=(1, 1))
    assert im2col_buffer_cache_info()["entries"] == 3
    clear_im2col_buffer_cache()
    assert im2col_buffer_cache_info()["entries"] == 0


def test_dtype_keys_buffers_under_float32_policy():
    x64 = np.random.default_rng(2).normal(size=(1, 2, 9, 7))
    columns64 = strided_im2col(x64, (3, 3), padding=(1, 1)).copy()
    x32 = x64.astype(np.float32)
    columns32 = strided_im2col(x32, (3, 3), padding=(1, 1))
    assert columns32.dtype == np.float32
    np.testing.assert_array_equal(columns32, _reference_im2col(x32, (3, 3), padding=(1, 1)))
    # The float32 call allocated its own buffers; the float64 entry is intact.
    assert im2col_buffer_cache_info()["entries"] == 2
    np.testing.assert_array_equal(
        strided_im2col(x64, (3, 3), padding=(1, 1)), columns64
    )


def test_cache_is_thread_local():
    x = np.random.default_rng(3).normal(size=(1, 1, 6, 6))
    strided_im2col(x, (3, 3), padding=(1, 1))
    seen = {}

    def worker():
        seen["before"] = im2col_buffer_cache_info()["entries"]
        result = strided_im2col(x, (3, 3), padding=(1, 1))
        seen["columns"] = result.copy()
        seen["after"] = im2col_buffer_cache_info()["entries"]

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert seen["before"] == 0  # the worker starts with an empty store
    assert seen["after"] == 1
    np.testing.assert_array_equal(
        seen["columns"], _reference_im2col(x, (3, 3), padding=(1, 1))
    )
    assert im2col_buffer_cache_info()["entries"] == 1  # main thread untouched


def test_shape_churn_guard_resets_store():
    for size in range(8, 8 + 40):  # exceed _IM2COL_CACHE_MAX_KEYS signatures
        strided_im2col(np.zeros((1, 1, size, size)), (3, 3), padding=(1, 1))
    assert im2col_buffer_cache_info()["entries"] <= 32


def test_empty_output_raises():
    with pytest.raises(ValueError):
        strided_im2col(np.zeros((1, 1, 2, 2)), (5, 5))
