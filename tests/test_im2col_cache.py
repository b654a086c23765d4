"""The per-thread workspace behind the inference gather.

``strided_im2col`` gathers the ``kw`` horizontal taps of the input, zero-padded
at the sides only, into a ``(N, C*kw, H*Wp)`` matrix in this thread's convolution
workspace, whose buffers are keyed on everything but the block height and
grow to the largest request; these tests pin the properties the recycling
must not break — the matrix stays bit-identical to a plain loop gather call
after call, whatever heights went before, dtypes get their own
buffers, worker threads never share storage, and the workspace stays within
its byte cap.
"""

import threading

import numpy as np
import pytest

import repro.nn.conv as conv_module
from repro.core.config import NECConfig
from repro.core.selector import Selector
from repro.nn import Conv2d, clear_im2col_buffer_cache, im2col_buffer_cache_info
from repro.nn.conv import strided_im2col


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_im2col_buffer_cache()
    yield
    clear_im2col_buffer_cache()


def _reference_im2col(x, kernel_size, dilation=(1, 1), pad_w=0):
    """Horizontal taps gathered one (channel, tap) row at a time.

    Each channel is zero-padded at both sides, flattened row-major and
    followed by ``(kw - 1) * dil_w`` zeros; row ``c*kw + kx`` is that flat
    channel read from offset ``kx * dil_w``.
    """
    num, channels, height, width = x.shape
    kernel_w, dil_w = kernel_size[1], dilation[1]
    padded = np.pad(x, ((0, 0), (0, 0), (0, 0), (pad_w, pad_w)))
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
    dict(kernel_size=(1, 7), pad_w=3),
    dict(kernel_size=(7, 1)),
    dict(kernel_size=(5, 5), pad_w=2, dilation=(4, 1)),
    dict(kernel_size=(3, 3)),
    dict(kernel_size=(3, 3), pad_w=2, dilation=(1, 2)),
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
    case = dict(kernel_size=(5, 5), pad_w=2)
    for _ in range(4):  # every call after the first hits the warm buffers
        x = rng.normal(size=(3, 2, 10, 8))
        np.testing.assert_array_equal(
            strided_im2col(x, **case), _reference_im2col(x, **case)
        )
    assert im2col_buffer_cache_info()["entries"] == 1


def test_distinct_signatures_get_distinct_entries():
    """Every part of the signature but the height gets its own entry.

    Heights and the kernel's height and row dilation share one entry.
    """
    for height, kernel_h in ((8, 3), (5, 5), (11, 1), (8, 3)):
        strided_im2col(np.zeros((1, 1, height, 8)), (kernel_h, 3), pad_w=1)
    assert im2col_buffer_cache_info()["entries"] == 1
    strided_im2col(np.zeros((1, 1, 8, 8)), (3, 3), (2, 1), pad_w=1)  # dil_h
    assert im2col_buffer_cache_info()["entries"] == 1
    strided_im2col(np.zeros((1, 1, 8, 8)), (3, 3), pad_w=0)  # side
    strided_im2col(np.zeros((1, 1, 8, 9)), (3, 3), pad_w=1)  # width
    strided_im2col(np.zeros((2, 1, 8, 8)), (3, 3), pad_w=1)  # rows per pass
    strided_im2col(np.zeros((1, 2, 8, 8)), (3, 3), pad_w=1)  # channels
    strided_im2col(np.zeros((1, 1, 8, 8)), (3, 5), pad_w=2)  # kw
    strided_im2col(np.zeros((1, 1, 8, 8)), (3, 3), (1, 2), pad_w=2)  # dil_w
    assert im2col_buffer_cache_info()["entries"] == 7
    clear_im2col_buffer_cache()
    assert im2col_buffer_cache_info() == {"entries": 0, "bytes": 0}


def test_tall_short_tall_gathers_stay_bit_identical():
    """Shorter blocks between two tall ones read no stale rows.

    The shared buffers keep the tall block's contents, and a short block's
    plane ends its rows and starts its slack at other offsets, so every call
    must zero the side columns and the slack again.
    """
    rng = np.random.default_rng(4)
    case = dict(kernel_size=(5, 5), dilation=(2, 1), pad_w=2)
    for height in (20, 7, 9, 20):
        x = rng.normal(size=(1, 3, height, 9))
        np.testing.assert_array_equal(strided_im2col(x, **case), _reference_im2col(x, **case))
    assert im2col_buffer_cache_info()["entries"] == 1


def test_dtype_keys_buffers_under_float32_policy():
    x64 = np.random.default_rng(2).normal(size=(1, 2, 9, 7))
    columns64 = strided_im2col(x64, (3, 3), pad_w=1).copy()
    x32 = x64.astype(np.float32)
    columns32 = strided_im2col(x32, (3, 3), pad_w=1)
    assert columns32.dtype == np.float32
    np.testing.assert_array_equal(columns32, _reference_im2col(x32, (3, 3), pad_w=1))
    # The float32 call allocated its own buffers; the float64 entry is intact.
    assert im2col_buffer_cache_info()["entries"] == 2
    np.testing.assert_array_equal(
        strided_im2col(x64, (3, 3), pad_w=1), columns64
    )


def test_cache_is_thread_local():
    x = np.random.default_rng(3).normal(size=(1, 1, 6, 6))
    strided_im2col(x, (3, 3), pad_w=1)
    seen = {}

    def worker():
        seen["before"] = im2col_buffer_cache_info()["entries"]
        result = strided_im2col(x, (3, 3), pad_w=1)
        seen["columns"] = result.copy()
        seen["after"] = im2col_buffer_cache_info()["entries"]

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert seen["before"] == 0  # the worker starts with an empty store
    assert seen["after"] == 1
    np.testing.assert_array_equal(
        seen["columns"], _reference_im2col(x, (3, 3), pad_w=1)
    )
    assert im2col_buffer_cache_info()["entries"] == 1  # main thread untouched


def test_shape_churn_guard_resets_store(monkeypatch):
    """The byte cap bounds the workspace: past it, a growing entry drops the others.

    The bytes count every buffer of an entry, the accumulator too.  Inference
    pads no row: the plane is the input's 16 rows, 18 columns wide.
    """
    layer = Conv2d(4, 4, (3, 3), padding=1)
    layer.infer(np.zeros((1, 4, 16, 16)))
    padded, columns, accumulator = 4 * (16 * 18 + 2), 4 * 3 * 16 * 18, 3 * 4 * 16 * 18
    one_entry = 8 * (padded + columns + accumulator)
    assert im2col_buffer_cache_info() == {"entries": 1, "bytes": one_entry}
    monkeypatch.setattr(conv_module, "_WORKSPACE_MAX_BYTES", 3 * one_entry)
    for width in range(17, 17 + 12):  # a new, larger signature per width
        layer.infer(np.zeros((1, 4, 16, width)))
        assert im2col_buffer_cache_info()["bytes"] <= 3 * one_entry
    assert im2col_buffer_cache_info()["entries"] < 3
    # A signature larger than the cap on its own still runs, and is all that is kept.
    layer.infer(np.zeros((1, 4, 64, 64)))
    assert im2col_buffer_cache_info()["entries"] == 1


def test_selector_blocks_leave_the_whole_pass_workspace():
    """At default(), the grid's blocks run one at a time hold what a whole pass holds.

    The accumulator counts in the bytes; each block height reuses the buffers
    of its key instead of keeping a set of its own.
    """
    config = NECConfig.default()
    selector = Selector(config, seed=0)
    rng = np.random.default_rng(5)
    frames = config.num_frames
    segment = np.abs(rng.normal(size=(1, config.frequency_bins, frames))).astype(np.float32)
    d_vector = rng.normal(size=config.embedding_dim).astype(np.float32)
    selector.forward_batch(segment, d_vector)
    whole = im2col_buffer_cache_info()
    clear_im2col_buffer_cache()
    state = selector.open_pass(d_vector, np.float32)
    start = 0
    for end in selector.block_bounds(frames):
        for _ in selector.row_block(state, segment[:, :, start:end], last=end == frames):
            pass
        start = end
    selector.forward_batch(segment, d_vector)
    assert im2col_buffer_cache_info() == whole
    assert whole["entries"] == 3  # the 1x7, the 7x1 and every 5x5 layer


def test_empty_output_raises():
    with pytest.raises(ValueError):
        strided_im2col(np.zeros((1, 1, 2, 2)), (5, 5))
