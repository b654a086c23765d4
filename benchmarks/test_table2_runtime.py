"""Table II: per-module latency of NEC vs VoiceFilter."""

from repro.core.config import NECConfig
from repro.eval.runtime import run_runtime_analysis


def test_table2_runtime_analysis(benchmark):
    result = benchmark.pedantic(
        lambda: run_runtime_analysis(config=NECConfig.default(), audio_seconds=1.0, repetitions=2),
        rounds=1,
        iterations=1,
    )
    print("\n[Table II] Time consumption for a 1 s mixed audio:")
    print(result.table())
    print(f"  selector speed-up vs VoiceFilter: {result.selector_speedup:.2f}x (paper: ~2.4x on GPU)")
    # The comparison the paper makes: NEC's selector is faster than VoiceFilter
    # on the same platform, and the broadcast stage is a small constant cost.
    assert result.nec.selector_ms < result.voicefilter.selector_ms
    assert result.nec.broadcast_ms < 1000.0

