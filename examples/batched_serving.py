#!/usr/bin/env python3
"""Serving NEC: protect, protect_batch and streaming.

Three ways to drive the same inference engine:

1. ``protect``       — one clip, all segments through one batched STFT,
   the Selector and one batched iSTFT;
2. ``protect_batch`` — many clips per call (segments of all clips share the
   STFT and iSTFT calls), the serving entry point;
3. ``StreamingProtector`` — chunked audio in, shadow waves out, with
   carried-over state — the deployment-shaped interface.

All three are bit-identical to protecting one segment at a time; this
script times them and checks the equality.  Each timed path is warmed up
once and then reported as the median of five calls, so a slow first call
(cold caches after the host sat idle) does not decide the comparison.

Run with:  python examples/batched_serving.py
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Tuple

import numpy as np

from repro.audio.signal import AudioSignal
from repro.core import NECConfig, NECSystem, StreamingProtector

#: Timed calls per path; the median is reported.
REPEATS = 5


def median_ms(call: Callable[[], object]) -> Tuple[object, float]:
    """Warm ``call`` up once, then return its result and median wall-clock (ms)."""
    result = call()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return result, 1000.0 * statistics.median(times)


def main() -> None:
    config = NECConfig.default()
    rng = np.random.default_rng(0)
    system = NECSystem(config, seed=0)
    system.enroll(
        [AudioSignal(rng.normal(scale=0.1, size=config.segment_samples), config.sample_rate)]
    )

    # -- 1. one long clip vs its segments one call each --------------------
    segment = config.segment_samples
    clip = AudioSignal(rng.normal(scale=0.1, size=4 * segment), config.sample_rate)
    pieces, looped_ms = median_ms(lambda: [
        system.protect(AudioSignal(clip.data[offset : offset + segment], config.sample_rate))
        for offset in range(0, clip.num_samples, segment)
    ])
    batched, batched_ms = median_ms(lambda: system.protect(clip))
    identical = np.array_equal(
        np.concatenate([piece.shadow_wave.data for piece in pieces]), batched.shadow_wave.data
    )
    print(f"protect, {clip.duration:.0f} s clip ({len(pieces)} segments), "
          f"median of {REPEATS} calls:")
    print(f"  one call per segment {looped_ms:8.1f} ms")
    print(f"  one call per clip    {batched_ms:8.1f} ms   (bit-identical: {identical})")

    # -- 2. many short clips in one call -----------------------------------
    clips = [
        AudioSignal(
            rng.normal(scale=0.1, size=config.segment_samples), config.sample_rate
        )
        for _ in range(6)
    ]
    results, batch_ms = median_ms(lambda: system.protect_batch(clips))
    print(f"\nprotect_batch, {len(clips)} one-segment clips in one call, "
          f"median of {REPEATS} calls:")
    print(f"  {batch_ms:8.1f} ms total, {batch_ms / len(clips):.1f} ms per clip")
    print(f"  predicted suppression per clip: "
          + ", ".join(f"{r.predicted_suppression_db:.2f} dB" for r in results))

    # -- 3. streaming: microphone-sized chunks with carried-over state -----
    protector = StreamingProtector(system)
    chunk_samples = config.sample_rate // 10  # 100 ms chunks
    stream = clip.data
    emitted = []
    for start_idx in range(0, len(stream), chunk_samples):
        for result in protector.feed(stream[start_idx : start_idx + chunk_samples]):
            emitted.append(result.shadow_wave.data)
    tail = protector.flush()
    if tail is not None:
        emitted.append(tail.shadow_wave.data)
    stream_wave = np.concatenate(emitted)
    print(f"\nStreamingProtector, 100 ms chunks over the same {clip.duration:.0f} s stream:")
    print(f"  segments emitted: {protector.segments_emitted}")
    print(f"  stream output == protect output: "
          f"{np.array_equal(stream_wave, batched.shadow_wave.data)}")


if __name__ == "__main__":
    main()
