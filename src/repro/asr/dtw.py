"""Dynamic time warping over feature sequences.

Two kernels live here:

- :func:`dtw_distance` — the evaluation fast path: the DTW recurrence swept
  along anti-diagonals, so each sweep step is one vectorised ``np.minimum``
  over a whole diagonal instead of a Python-level inner loop.  Every cell is
  still computed as ``local_cost + min(three predecessors)`` — min and add are
  order-exact — so the result is **bit-identical** to the seed's pure-Python
  double loop (the oracle in ``tests/oracles.py``, pinned in
  ``tests/test_fastpath.py``).
- :func:`dtw_distance_many` — one segment against a whole template bank: the
  pairwise frame distances of *all* templates come from a single stacked Gram
  product (``features @ templates.T``) and the accumulation runs batched over
  templates along shared anti-diagonals, with optional early abandoning by the
  running best distance.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


def _as_sequence(sequence: np.ndarray, name: str = "sequence") -> np.ndarray:
    array = np.asarray(sequence, dtype=np.float64)
    if array.ndim == 1:
        array = array[:, None]
    if array.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {array.shape}")
    if array.shape[0] == 0:
        raise ValueError("DTW requires non-empty sequences")
    return array


def _local_cost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean frame distances, computed with broadcasting."""
    squared = (
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.sqrt(np.maximum(squared, 0.0))


def dtw_distance(sequence_a: np.ndarray, sequence_b: np.ndarray) -> float:
    """Normalised DTW distance between two ``(frames, features)`` sequences.

    Local cost is the Euclidean distance between frames; the optimal alignment
    cost is normalised by the combined length so that short and long words are
    comparable.

    Vectorised anti-diagonal formulation: cells on diagonal ``i + j = d``
    depend only on diagonals ``d - 1`` and ``d - 2``, so each diagonal is one
    fused ``np.minimum`` + add over the whole frontier.  Bit-identical to the
    double-loop oracle in ``tests/oracles.py``.
    """
    a = _as_sequence(sequence_a)
    b = _as_sequence(sequence_b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("feature dimensionality mismatch")

    local = _local_cost(a, b)
    rows, cols = local.shape
    accumulated = np.full((rows + 1, cols + 1), np.inf)
    accumulated[0, 0] = 0.0
    for diagonal in range(2, rows + cols + 1):
        i_low = max(1, diagonal - cols)
        i_high = min(rows, diagonal - 1)
        if i_low > i_high:
            continue
        i = np.arange(i_low, i_high + 1)
        j = diagonal - i
        best_previous = np.minimum(
            np.minimum(accumulated[i - 1, j], accumulated[i, j - 1]),
            accumulated[i - 1, j - 1],
        )
        accumulated[i, j] = local[i - 1, j - 1] + best_previous
    return float(accumulated[rows, cols] / (rows + cols))


def dtw_distance_many(
    features: np.ndarray,
    templates: Sequence[np.ndarray],
    early_abandon: bool = False,
    initial_bound: float = np.inf,
) -> np.ndarray:
    """Normalised DTW distances of one segment against a whole template bank.

    All pairwise frame distances come from **one** stacked Gram product
    ``features @ concat(templates).T`` and the accumulation recurrence runs
    batched over templates along shared anti-diagonals (templates are padded
    with ``+inf`` local cost to the longest length, which never leaks into the
    valid region).  Matches ``[dtw_distance(features, t) for t in templates]``
    to within BLAS-blocking float noise (~1e-15; pinned at 1e-10 by tests).

    With ``early_abandon=True`` templates whose accumulated frontier can no
    longer beat the running best distance are dropped (their entry in the
    result is ``+inf``): every path from the frontier onwards only adds
    non-negative local costs, and diagonals ``d`` and ``d - 1`` together cut
    every monotone alignment, so ``min(frontier) / (rows + cols)`` is a valid
    lower bound.  The returned minimum and its (first-occurrence) index are
    exact either way.  ``initial_bound`` seeds the running best — e.g. a
    rejection threshold above which the caller does not care about the value.
    """
    a = _as_sequence(features, "features")
    prepared: List[np.ndarray] = []
    for index, template in enumerate(templates):
        t = _as_sequence(template, f"templates[{index}]")
        if t.shape[1] != a.shape[1]:
            raise ValueError("feature dimensionality mismatch")
        prepared.append(t)
    num_templates = len(prepared)
    if num_templates == 0:
        return np.zeros(0)

    rows = a.shape[0]
    cols = np.array([t.shape[0] for t in prepared])
    max_cols = int(cols.max())

    # One shared Gram over the whole bank; per-template cost blocks are slices.
    stacked = np.concatenate(prepared, axis=0)
    gram = a @ stacked.T
    a_sq = np.sum(a**2, axis=1)
    t_sq = np.sum(stacked**2, axis=1)
    offsets = np.concatenate([[0], np.cumsum(cols)])
    local = np.full((num_templates, rows, max_cols), np.inf)
    for p in range(num_templates):
        block = (
            a_sq[:, None]
            + t_sq[offsets[p] : offsets[p + 1]][None, :]
            - 2.0 * gram[:, offsets[p] : offsets[p + 1]]
        )
        local[p, :, : cols[p]] = np.sqrt(np.maximum(block, 0.0))

    # Skewed ("diagonal-packed") layout: skew[p, r, d] is the local cost of
    # cell (r, d - r), so an anti-diagonal is the plain slice
    # skew[:, i_low-1:i_high, d-2] — no gather/scatter inside the sweep.
    skew = np.full((num_templates, rows, rows + max_cols - 1), np.inf)
    for r in range(rows):
        skew[:, r, r : r + max_cols] = local[:, r, :]

    # The sweep keeps only the last two diagonals of the accumulation matrix,
    # as (num_templates, rows + 1) buffers indexed by the row coordinate i.
    out = np.full(num_templates, np.inf)
    prev2 = np.full((num_templates, rows + 1), np.inf)  # diagonal d - 2
    prev1 = np.full((num_templates, rows + 1), np.inf)  # diagonal d - 1
    prev2[:, 0] = 0.0  # accumulated[0, 0]
    present = np.arange(num_templates)
    present_cols = cols.copy()
    alive = np.ones(num_templates, dtype=bool)
    running_best = float(initial_bound)
    previous_frontier_min: Optional[np.ndarray] = None
    current_max_cols = max_cols
    for diagonal in range(2, rows + max_cols + 1):
        if not alive.any():
            break
        i_low = max(1, diagonal - current_max_cols)
        i_high = min(rows, diagonal - 1)
        current = np.full((present.size, rows + 1), np.inf)
        if i_low <= i_high:
            span = slice(i_low, i_high + 1)
            shifted = slice(i_low - 1, i_high)
            best_previous = np.minimum(
                np.minimum(prev1[:, shifted], prev1[:, span]), prev2[:, shifted]
            )
            current[:, span] = skew[:, shifted, diagonal - 2] + best_previous
            frontier_min = current[:, span].min(axis=1)
        else:  # pragma: no cover - unreachable while any template is alive
            frontier_min = None
        prev2, prev1 = prev1, current

        for index in np.nonzero(rows + present_cols == diagonal)[0]:
            value = float(current[index, rows] / (rows + present_cols[index]))
            out[present[index]] = value
            running_best = min(running_best, value)
            alive[index] = False

        if early_abandon and frontier_min is not None:
            # Any remaining alignment crosses diagonal d or d-1 and then only
            # accumulates non-negative cost, so this is a true lower bound.
            bound = frontier_min
            if previous_frontier_min is not None:
                bound = np.minimum(bound, previous_frontier_min)
            alive &= bound / (rows + present_cols) < running_best
        previous_frontier_min = frontier_min

        # Physically drop dead templates only once enough accumulate — the
        # compaction copies the skewed cost tensor, which is only worth it
        # when it removes a sizeable slab of every later diagonal's work.
        dead = present.size - int(np.count_nonzero(alive))
        if dead and (2 * dead >= present.size or not alive.any()):
            skew = skew[alive]
            prev1 = prev1[alive]
            prev2 = prev2[alive]
            present = present[alive]
            present_cols = present_cols[alive]
            if previous_frontier_min is not None:
                previous_frontier_min = previous_frontier_min[alive]
            alive = np.ones(present.size, dtype=bool)
            current_max_cols = int(present_cols.max()) if present.size else 0
    return out
