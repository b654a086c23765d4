"""One NEC benchmark workload in a fresh process; ``perfbench/run.py`` drives it.

Two sub-commands, both given the workload, seed and run length::

    python3 perfbench/workload.py inputs --workload live --seed 1 --seconds 10 --workdir DIR
    python3 perfbench/workload.py run --workload live --seed 1 --seconds 10 --workdir DIR \
        --spawned-at T [--trace --spans FILE] [--setup-only]

``inputs`` synthesises every input from the seed before anything is timed:
per tenant three enrollment clips and corpus speech mixtures (the tenant
talking over another speaker, with the corpus' pauses plus pauses between
sentences), and saves a registry holding the seeded model checkpoints.
``run`` loads them, sets up, runs the workload for ``--seconds`` and checks its
outputs; its last stdout line is one JSON object.  Set-up is timed from
``--spawned-at`` (the parent's ``time.monotonic()`` when it started this
process) to the first timed operation.  ``--trace`` installs the span tracer
of ``perfbench/spans.py`` before set-up; ``--setup-only`` stops after set-up.

Every workload runs at ``NECConfig.default()`` through the public
``repro.serving`` and ``repro.core`` APIs, with the service's defaults and the
host's default BLAS threads.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import heapq
import json
import os
import platform
import resource
import shutil
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from repro.audio.corpus import SyntheticCorpus  # noqa: E402
from repro.audio.mixing import mix_at_snr  # noqa: E402
from repro.audio.signal import AudioSignal  # noqa: E402
from repro.core.config import NECConfig, TrainingConfig  # noqa: E402
from repro.core.encoder import SpectralEncoder  # noqa: E402
from repro.core.pipeline import NECSystem  # noqa: E402
from repro.core.seeding import derive_seed  # noqa: E402
from repro.core.selector import Selector  # noqa: E402
from repro.core.training import ExampleStream, SelectorTrainer, TrainingExample  # noqa: E402
from repro.serving.registry import EnrollmentRegistry  # noqa: E402
from repro.serving.service import ProtectionService  # noqa: E402

import spans as tracing  # noqa: E402  (perfbench/spans.py)

TENANTS = 4
LIVE_SESSIONS = 12
SATURATE_SESSIONS = 16
CHUNK_S = 0.1
#: The paper's overshadowing tolerance (Sec. IV-C2): a shadow later than
#: its segment's end plus this is a deadline miss.
DEADLINE_MS = 300.0
#: A live run whose generator fed chunks later than this (p95) is flagged.
GENERATOR_LAG_BOUND_MS = 20.0
SATURATE_TRACK_SEGMENTS = 12
#: Live set-up warms these tick sizes, each this many times.
LIVE_WARMUP_TICK_SIZES = (1, 2, 3, 4)
LIVE_WARMUP_PASSES = 3
#: Offline clip lengths: 16 segments in all (one Selector chunk), with
#: zero-padded tails on two of the four clips.
OFFLINE_CLIP_SECONDS = (3.0, 4.5, 5.0, 2.5)
#: Pre-built training examples: three default batches, cycled.
TRAIN_EXAMPLES = 24
#: Reference protects in the correctness checks run this many segments per
#: call, which bounds their im2col working set.
CHECK_PIECE_SEGMENTS = 4
RELATIVE_TOLERANCE = 1e-12
WAIT_TIMEOUT_S = 60.0


def tenant_id(index: int) -> str:
    return f"tenant{index:02d}"


def live_segments_per_session(seconds: int) -> int:
    """Segments per live session: the last session starts 11/12 s late."""
    return max(int(seconds) - 1, 1)


# -- inputs ------------------------------------------------------------------
def speech_mixture(
    corpus: SyntheticCorpus, target: str, other: str, num_samples: int, rng
) -> np.ndarray:
    """``target`` talking over ``other`` at a random SNR in [-3, 3] dB."""

    def talk(speaker: str) -> AudioSignal:
        pieces: List[np.ndarray] = []
        total = 0
        while total < num_samples:
            utterance = corpus.utterance(speaker, seed=int(rng.integers(2**31)))
            pause = np.zeros(int(rng.uniform(0.2, 0.8) * corpus.sample_rate))
            pieces += [utterance.audio.data, pause]
            total += utterance.audio.num_samples + pause.size
        return AudioSignal(np.concatenate(pieces)[:num_samples], corpus.sample_rate)

    mixed, _ = mix_at_snr(talk(target), talk(other), float(rng.uniform(-3.0, 3.0)))
    return mixed.data[:num_samples]


def seeded_corpus(config: NECConfig, seed: int):
    """The seed's corpus and its target and interfering speakers."""
    corpus = SyntheticCorpus(
        num_speakers=2 * TENANTS, sample_rate=config.sample_rate, seed=seed
    )
    targets, others = corpus.split_speakers(TENANTS, TENANTS)
    return corpus, targets, others


def example_stream(config: NECConfig, seed: int) -> ExampleStream:
    """The default ``ExampleStream`` of the seed, its d-vectors computed."""
    corpus, targets, others = seeded_corpus(config, seed)
    stream = ExampleStream(
        corpus, SpectralEncoder(config, seed=seed), config, targets, others,
        training=TrainingConfig(), seed=seed,
    )
    for target in targets:  # enrollment: the stream caches each d-vector
        stream.d_vector_for(target)
    return stream


def make_inputs(workload: str, seed: int, seconds: int, workdir: Path) -> None:
    config = NECConfig.default()
    segment = config.segment_samples
    if workload == "train":
        examples = example_stream(config, seed).take(TRAIN_EXAMPLES)
        np.savez(
            workdir / "inputs.npz",
            train_mixed=np.stack([example.mixed_spectrogram for example in examples]),
            train_background=np.stack([example.background_spectrogram for example in examples]),
            train_d_vectors=np.stack([example.d_vector for example in examples]),
        )
        return
    corpus, targets, others = seeded_corpus(config, seed)
    rng = np.random.default_rng(derive_seed(seed, 1))
    arrays: Dict[str, np.ndarray] = {}
    if workload == "live":
        track_segments = live_segments_per_session(seconds) + LIVE_SESSIONS // TENANTS - 1
    else:
        track_segments = SATURATE_TRACK_SEGMENTS
    for index, (target, other) in enumerate(zip(targets, others)):
        references = corpus.reference_audios(
            target, count=config.num_reference_audios, seconds=config.reference_seconds
        )
        arrays[f"refs_{index}"] = np.stack([reference.data for reference in references])
        if workload == "offline":
            for clip, clip_seconds in enumerate(OFFLINE_CLIP_SECONDS):
                arrays[f"clip_{index}_{clip}"] = speech_mixture(
                    corpus, target, other, int(clip_seconds * config.sample_rate), rng
                )
        else:
            arrays[f"track_{index}"] = speech_mixture(
                corpus, target, other, track_segments * segment, rng
            )
    np.savez(workdir / "inputs.npz", **arrays)
    registry = EnrollmentRegistry(workdir / "registry", config=config)
    registry.save_models(NECSystem(config, seed=seed))


# -- measurement helpers -------------------------------------------------------
def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(seconds: Sequence[float], q: float) -> float:
    return 1000.0 * float(np.percentile(seconds, q)) if len(seconds) else 0.0


def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy loaded, via its own getter."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def host_fingerprint() -> Dict[str, object]:
    with open("/proc/meminfo") as meminfo:
        total_kb = next(int(line.split()[1]) for line in meminfo if line.startswith("MemTotal"))
    blas = getattr(np, "__config__").CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(total_kb / 1024.0**2, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
    }


def matches(actual: np.ndarray, expected: np.ndarray) -> bool:
    """Equal within :data:`RELATIVE_TOLERANCE` of the expected peak."""
    if actual.shape != expected.shape:
        return False
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    return float(np.max(np.abs(actual - expected), initial=0.0)) <= RELATIVE_TOLERANCE * max(
        scale, np.finfo(np.float64).tiny
    )


def reference_shadow(system: NECSystem, audio: np.ndarray, segment: int) -> np.ndarray:
    """``system.protect`` over ``audio``, a few whole segments per call.

    Segments are protected independently, so protecting consecutive
    whole-segment pieces gives exactly the whole-clip shadow.
    """
    piece = CHECK_PIECE_SEGMENTS * segment
    return np.concatenate([
        system.protect(AudioSignal(audio[start : start + piece], system.config.sample_rate))
        .shadow_wave.data
        for start in range(0, audio.size, piece)
    ])


def tenant_systems(base: NECSystem, registry: EnrollmentRegistry) -> List[NECSystem]:
    """One ``NECSystem`` view per tenant sharing ``base``'s weights."""
    views = []
    for index in range(TENANTS):
        view = NECSystem(base.config, encoder=base.encoder, selector=base.selector)
        view.set_embedding(registry.embedding(tenant_id(index)))
        views.append(view)
    return views


class Context:
    """What every workload shares: arguments, inputs, clock marks, tracer."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.seconds = int(args.seconds)
        self.config = NECConfig.default()
        self.segment = self.config.segment_samples
        self.tracer: Optional[tracing.Tracer] = None
        if args.trace:
            self.tracer = tracing.Tracer()
            tracing.install(self.tracer)
        inputs_path = Path(args.workdir) / "inputs.npz"
        self.inputs: Dict[str, np.ndarray] = {}
        if inputs_path.exists():
            with np.load(inputs_path) as archive:
                self.inputs = {key: archive[key] for key in archive.files}
        self.setup_end: Optional[float] = None
        self.registry_root = Path(args.workdir) / f"registry-{os.getpid()}"

    def request(self, request_id: str):
        return self.tracer.request(request_id) if self.tracer else contextlib.nullcontext()

    def mark_setup_end(self) -> None:
        self.setup_end = time.monotonic()

    def end_window(self) -> None:
        """Stop tracing, so the correctness checks record no spans."""
        if self.tracer:
            self.tracer.uninstall()

    def open_registry(self) -> EnrollmentRegistry:
        """A private copy of the seeded registry, loaded as a restart would."""
        shutil.copytree(Path(self.args.workdir) / "registry", self.registry_root)
        return EnrollmentRegistry(self.registry_root)

    def references(self, index: int) -> List[np.ndarray]:
        return list(self.inputs[f"refs_{index}"])


def unexplained_ms(
    tracer: tracing.Tracer, op_seconds: Dict[str, float], count_queue_wait: bool
) -> List[float]:
    """Per operation: its latency minus the traced time on its blocking path.

    The blocking path is the op's feeds, the ticks that ran its segments
    (plus their queue wait when ``count_queue_wait``) and its collects.
    """
    spans = tracer.spans
    busy: Dict[str, float] = {}
    for record in spans:
        if record[tracing.REQUEST] in op_seconds and record[tracing.NAME] in (
            "serving.feed", "serving.collect"
        ):
            key = record[tracing.REQUEST]
            busy[key] = busy.get(key, 0.0) + record[tracing.END] - record[tracing.START]
    ticks: Dict[str, set] = {}
    for _, wait, request_id, tick in tracer.queue_waits:
        if request_id in op_seconds:
            ticks.setdefault(request_id, set()).add(tick)
            if count_queue_wait:
                busy[request_id] = busy.get(request_id, 0.0) + wait
    remainder = []
    for request_id, latency in op_seconds.items():
        if request_id not in busy or request_id not in ticks:
            continue
        tick_time = sum(spans[i][tracing.END] - spans[i][tracing.START] for i in ticks[request_id])
        remainder.append(1000.0 * (latency - busy[request_id] - tick_time))
    return remainder


# -- workloads -----------------------------------------------------------------
def open_service(ctx: Context):
    registry = ctx.open_registry()
    service = ProtectionService(registry)  # loads the checkpointed system
    for index in range(TENANTS):
        service.enroll(tenant_id(index), ctx.references(index))
    if ctx.tracer:
        ctx.tracer.name_convs(service.system.selector)
    return registry, service


def check_streams(
    ctx: Context,
    systems: List[NECSystem],
    streams: List[tuple],
    waves: List[List[np.ndarray]],
) -> Dict[str, object]:
    """Each session's shadow, segment by segment, against ``protect``.

    ``streams`` holds ``(tenant, segment indices into its track)`` per
    session.  The tenant's whole track is protected once; one session is
    also checked against ``protect`` of its own audio.
    """
    segment = ctx.segment
    expected = {
        tenant: reference_shadow(systems[tenant], ctx.inputs[f"track_{tenant}"], segment)
        for tenant in sorted({tenant for tenant, _ in streams})
    }
    mismatched = 0
    for (tenant, indices), session_waves in zip(streams, waves):
        for position, index in enumerate(indices):
            want = expected[tenant][index * segment : (index + 1) * segment]
            if position >= len(session_waves) or not matches(session_waves[position], want):
                mismatched += 1
    tenant, indices = streams[0]
    count = min(len(indices), CHECK_PIECE_SEGMENTS, len(waves[0]))
    track = ctx.inputs[f"track_{tenant}"]
    own_audio = np.concatenate([track[i * segment : (i + 1) * segment] for i in indices[:count]])
    direct = systems[tenant].protect(AudioSignal(own_audio, ctx.config.sample_rate))
    direct_ok = count > 0 and matches(np.concatenate(waves[0][:count]), direct.shadow_wave.data)
    return {"mismatched_segments": mismatched, "direct_protect_matches": bool(direct_ok)}


def run_live(ctx: Context) -> Dict[str, object]:
    """Open loop: 12 sessions over 4 tenants fed 100 ms chunks in real time.

    Session ``i`` starts ``i/12`` s after the first, so segment boundaries
    are staggered evenly across the 1 s segment.  This thread is the only
    generator: it feeds each chunk when it falls due and collects shadows as
    ticks finish them, blocking on ``service.loop.wait_for`` in between.
    """
    registry, service = open_service(ctx)
    segment, rate = ctx.segment, ctx.config.sample_rate
    chunk = int(round(CHUNK_S * rate))
    chunks_per_segment = segment // chunk
    tracks = [ctx.inputs[f"track_{index}"] for index in range(TENANTS)]

    # Ticks here run one segment, and up to four after a stall.  Every tick
    # size keeps its own im2col buffers and takes a few passes to warm up (the
    # allocator settles); a cold size met mid-run made later ticks slower and
    # larger until the run's p90 latency tripled.  So set-up warms each size.
    warmers = [
        service.open_session(tenant_id(index % TENANTS), stream_id=f"warmup{index}")
        for index in range(1 + LIVE_WARMUP_TICK_SIZES[-1])
    ]
    track_segments = tracks[0].size // segment
    rounds = 0
    for size in LIVE_WARMUP_TICK_SIZES:
        for _ in range(LIVE_WARMUP_PASSES):
            # Size 1 plays the lead alone; size n plays the lead, then n more.
            players = warmers[: 1 + size] if size > 1 else warmers[:1]
            position = rounds % track_segments
            play_round(
                service,
                players,
                [tracks[index % TENANTS][position * segment : (position + 1) * segment]
                 for index in range(len(players))],
            )
            rounds += 1
    for warmer in warmers:
        warmer.close()
    ctx.mark_setup_end()
    if ctx.args.setup_only:
        service.shutdown()
        return {}

    per_session = live_segments_per_session(ctx.seconds)
    streams = []
    for index in range(LIVE_SESSIONS):
        tenant, offset = index % TENANTS, index // TENANTS
        streams.append((tenant, list(range(offset, offset + per_session))))
    sessions = [
        service.open_session(tenant_id(tenant), stream_id=f"live{index:02d}")
        for index, (tenant, _) in enumerate(streams)
    ]
    audio = [
        tracks[tenant][indices[0] * segment : (indices[-1] + 1) * segment]
        for tenant, indices in streams
    ]
    stagger = 1.0 / LIVE_SESSIONS
    total_chunks = per_session * chunks_per_segment
    attempted = LIVE_SESSIONS * per_session

    start = time.perf_counter() + 0.05
    heap = [(start + index * stagger + CHUNK_S, index, 0) for index in range(LIVE_SESSIONS)]
    heapq.heapify(heap)
    collected = [0] * LIVE_SESSIONS
    waves: List[List[np.ndarray]] = [[] for _ in sessions]
    latency_s: Dict[str, float] = {}
    lags: List[float] = []
    errors = 0
    give_up = start + per_session + 2 + WAIT_TIMEOUT_S
    cpu_start = cpu_seconds()

    def ready() -> bool:
        return any(session.protector.next_result_ready for session in sessions)

    try:
        while True:
            while heap and heap[0][0] <= time.perf_counter():
                due, index, number = heapq.heappop(heap)
                lags.append(time.perf_counter() - due)
                completes = number % chunks_per_segment == chunks_per_segment - 1
                request = f"{index}/{number // chunks_per_segment}" if completes else "feed"
                with ctx.request(request):
                    try:
                        sessions[index].feed(audio[index][number * chunk : (number + 1) * chunk])
                    except Exception:  # noqa: BLE001 - counted, the stream goes on
                        errors += 1
                if number + 1 < total_chunks:
                    heapq.heappush(heap, (due + CHUNK_S, index, number + 1))
            for index, session in enumerate(sessions):
                if not session.protector.next_result_ready:
                    continue
                with ctx.request(f"{index}/{collected[index]}"):
                    results = session.collect()
                got = time.perf_counter()
                for result in results:
                    number = collected[index]
                    due = start + index * stagger + (number + 1) * 1.0
                    latency_s[f"{index}/{number}"] = got - due
                    waves[index].append(result.shadow_wave.data)
                    collected[index] += 1
            now = time.perf_counter()
            if (not heap and sum(collected) + errors >= attempted) or now > give_up:
                break
            timeout = heap[0][0] - now if heap else give_up - now
            if timeout > 0:
                service.loop.wait_for(ready, timeout=timeout)
    except RuntimeError:  # the tick loop failed; the rest counts as failed
        pass
    end = time.perf_counter()
    cpu = cpu_seconds() - cpu_start
    peak = peak_rss_mb()
    ctx.end_window()
    for session in sessions:
        session.close(timeout=WAIT_TIMEOUT_S)
    service.shutdown()

    check = check_streams(ctx, tenant_systems(service.system, registry), streams, waves)
    done = sum(collected)
    failed = (attempted - done) + check["mismatched_segments"] + (0 if check["direct_protect_matches"] else 1)
    failed = min(failed, attempted)
    latencies = list(latency_s.values())
    late = sum(1 for value in latencies if value > DEADLINE_MS / 1000.0)
    lag_p95 = percentile_ms(lags, 95)
    audio_s = done * segment / rate
    result = {
        "attempted": attempted,
        "failed": failed,
        "checks": check,
        "flags": {"generator_lag_over_bound": lag_p95 > GENERATOR_LAG_BOUND_MS},
        "window": (start, end),
        "segments": done,
        "metrics": {
            "latency_p50_ms": percentile_ms(latencies, 50),
            "latency_p90_ms": percentile_ms(latencies, 90),
            "throughput_audio_s_per_s": audio_s / (end - start),
            "cpu_s_per_audio_s": cpu / audio_s if audio_s else 0.0,
            "peak_rss_mb": peak,
        },
        "report": {
            "shadow_latency_p50_ms": (percentile_ms(latencies, 50), "ms"),
            "shadow_latency_p95_ms": (percentile_ms(latencies, 95), "ms"),
            "deadline_miss_ratio": ((late + attempted - done) / attempted, "ratio"),
            "generator_lag_p95_ms": (lag_p95, "ms"),
            "latency_samples": (len(latencies), "segments"),
        },
    }
    if ctx.tracer:
        result["unexplained_ms"] = unexplained_ms(ctx.tracer, latency_s, count_queue_wait=True)
    return result


def wait_until_ticking(service: ProtectionService) -> None:
    """Block until the tick loop has taken every submitted segment."""
    give_up = time.monotonic() + WAIT_TIMEOUT_S
    while service.batch.pending_requests:
        if time.monotonic() > give_up:
            raise TimeoutError("the tick loop did not pick up a segment")
        time.sleep(0.0005)


def play_round(
    service: ProtectionService,
    sessions: Sequence,
    segments: Sequence[np.ndarray],
    waves: Optional[List[List[np.ndarray]]] = None,
) -> List[float]:
    """Feed one segment to each session and collect every shadow.

    The first session's segment goes alone: the round waits until the tick
    loop has taken it, so the other segments queue behind that one-segment
    tick and coalesce into the next.  Every round of ``n`` sessions thus runs
    ticks of 1 and ``n - 1`` segments.  Fed all at once, the loop's first
    tick takes however many segments were submitted when it woke; every tick
    size it meets keeps its own im2col buffers, and the peak RSS of a 10 s
    saturate run reached 5.7 GB instead of 2.9 GB.  Returns each shadow's
    latency from the start of the round, in seconds.
    """
    begun = time.perf_counter()
    for index, (session, samples) in enumerate(zip(sessions, segments)):
        session.feed(samples)
        if index == 0:
            wait_until_ticking(service)
    waiting = set(range(len(sessions)))
    latencies = []
    while waiting:
        if not service.loop.wait_for(
            lambda: any(sessions[i].protector.next_result_ready for i in waiting),
            timeout=WAIT_TIMEOUT_S,
        ):
            raise TimeoutError("a round's shadows did not arrive")
        for index in sorted(waiting):
            if sessions[index].protector.next_result_ready:
                results = sessions[index].collect()
                latencies.append(time.perf_counter() - begun)
                if waves is not None:
                    waves[index].extend(result.shadow_wave.data for result in results)
                waiting.discard(index)
    return latencies


def run_saturate(ctx: Context) -> Dict[str, object]:
    """Closed loop: every round feeds one whole segment to each of 16 sessions
    over 4 tenants and starts only after all 16 shadows are collected.

    Session ``j`` of a tenant plays the tenant's track from segment ``j``,
    wrapping around, so the sessions of a tick carry distinct audio.  Every
    round ticks 1 and then 15 segments (see :func:`play_round`).  Round 0 is
    the set-up's warm-up; its shadows are checked with the rest.
    """
    registry, service = open_service(ctx)
    segment, rate = ctx.segment, ctx.config.sample_rate
    tracks = [ctx.inputs[f"track_{index}"] for index in range(TENANTS)]
    track_segments = tracks[0].size // segment
    sessions = [
        service.open_session(tenant_id(index % TENANTS), stream_id=f"sat{index:02d}")
        for index in range(SATURATE_SESSIONS)
    ]
    offsets = [index // TENANTS for index in range(SATURATE_SESSIONS)]
    waves: List[List[np.ndarray]] = [[] for _ in sessions]

    def saturate_round(number: int) -> List[float]:
        segments = []
        for index in range(SATURATE_SESSIONS):
            position = (offsets[index] + number) % track_segments
            segments.append(tracks[index % TENANTS][position * segment : (position + 1) * segment])
        with ctx.request(f"round{number}"):
            return play_round(service, sessions, segments, waves)

    saturate_round(0)
    ctx.mark_setup_end()
    if ctx.args.setup_only:
        service.shutdown()
        return {}

    latencies: List[float] = []
    rounds: Dict[str, float] = {}
    failed_rounds = 0
    start = time.perf_counter()
    cpu_start = cpu_seconds()
    number = 1
    while time.perf_counter() - start < ctx.seconds:
        begun = time.perf_counter()
        try:
            latencies += saturate_round(number)
        except (RuntimeError, TimeoutError):
            failed_rounds += 1
            break
        rounds[f"round{number}"] = time.perf_counter() - begun
        number += 1
    end = time.perf_counter()
    cpu = cpu_seconds() - cpu_start
    peak = peak_rss_mb()
    ctx.end_window()
    for session in sessions:
        session.close(timeout=WAIT_TIMEOUT_S)
    service.shutdown()

    streams = [
        (index % TENANTS, [(offsets[index] + r) % track_segments for r in range(number)])
        for index in range(SATURATE_SESSIONS)
    ]
    check = check_streams(ctx, tenant_systems(service.system, registry), streams, waves)
    timed_rounds = number - 1
    attempted = SATURATE_SESSIONS * (timed_rounds + failed_rounds)
    done = len(latencies)
    failed = min(
        attempted,
        (attempted - done) + check["mismatched_segments"]
        + (0 if check["direct_protect_matches"] else 1),
    )
    audio_s = done * segment / rate
    round_rates = [SATURATE_SESSIONS * segment / rate / seconds for seconds in rounds.values()]
    result = {
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "checks": check,
        "window": (start, end),
        "segments": done,
        "metrics": {
            "latency_p50_ms": percentile_ms(latencies, 50),
            "latency_p90_ms": percentile_ms(latencies, 90),
            "throughput_audio_s_per_s": float(np.median(round_rates)) if round_rates else 0.0,
            "cpu_s_per_audio_s": cpu / audio_s if audio_s else 0.0,
            "peak_rss_mb": peak,
        },
        "report": {
            "shadow_latency_p50_ms": (percentile_ms(latencies, 50), "ms"),
            "shadow_latency_p95_ms": (percentile_ms(latencies, 95), "ms"),
            "throughput_audio_s_per_s_overall": (audio_s / (end - start), "audio_s/s"),
            "rounds": (timed_rounds, "rounds"),
        },
    }
    if ctx.tracer:
        result["unexplained_ms"] = unexplained_ms(ctx.tracer, rounds, count_queue_wait=False)
    return result


def run_offline(ctx: Context) -> Dict[str, object]:
    """``NECSystem.protect_batch`` over each tenant's clip set in turn, no service.

    Set-up's warm-up and the timed loop run on one worker thread: the im2col
    buffers are per thread, so they are warm for the loop and freed before
    the check protects clip by clip on this thread.
    """
    registry = ctx.open_registry()
    system = registry.load_system()
    for index in range(TENANTS):
        registry.enroll(tenant_id(index), ctx.references(index), system.encoder)
    if ctx.tracer:
        ctx.tracer.name_convs(system.selector)
    systems = tenant_systems(system, registry)
    rate = ctx.config.sample_rate
    clips = [
        [AudioSignal(ctx.inputs[f"clip_{index}_{clip}"], rate) for clip in range(len(OFFLINE_CLIP_SECONDS))]
        for index in range(TENANTS)
    ]
    clip_set_s = sum(OFFLINE_CLIP_SECONDS)
    outcome: Dict[str, object] = {"durations": [], "calls": [0] * TENANTS, "last": {}}

    def protect_loop() -> None:
        systems[0].protect_batch(clips[0])  # warm-up at the one batch shape
        ctx.mark_setup_end()
        if ctx.args.setup_only:
            return
        start = time.perf_counter()
        cpu_start = cpu_seconds()
        call = 0
        while True:
            tenant = call % TENANTS
            begun = time.perf_counter()
            results = systems[tenant].protect_batch(clips[tenant])
            ended = time.perf_counter()
            outcome["durations"].append(ended - begun)
            outcome["calls"][tenant] += 1
            outcome["last"][tenant] = results
            call += 1
            if ended - start >= ctx.seconds and call >= TENANTS:
                break
        outcome.update(window=(start, ended), cpu=cpu_seconds() - cpu_start, peak=peak_rss_mb())
        ctx.end_window()

    def guarded() -> None:
        try:
            protect_loop()
        except Exception as error:  # noqa: BLE001 - reported as failed operations
            outcome["error"] = repr(error)

    worker = threading.Thread(target=guarded, name="offline-protect")
    worker.start()
    worker.join()
    if ctx.args.setup_only:
        return {}
    if "error" in outcome:
        raise RuntimeError(outcome["error"])

    mismatched = 0
    for tenant in range(TENANTS):
        for clip, result in zip(clips[tenant], outcome["last"][tenant]):
            if not matches(result.shadow_wave.data, systems[tenant].protect(clip).shadow_wave.data):
                mismatched += outcome["calls"][tenant]
    durations = outcome["durations"]
    calls = len(durations)
    start, end = outcome["window"]
    audio_s = calls * clip_set_s
    return {
        "attempted": calls * len(OFFLINE_CLIP_SECONDS),
        "failed": mismatched,
        "checks": {"mismatched_clips": mismatched},
        "window": (start, end),
        "segments": 0,
        "metrics": {
            "latency_p50_ms": percentile_ms(durations, 50),
            "latency_p90_ms": percentile_ms(durations, 90),
            "throughput_audio_s_per_s": clip_set_s / float(np.median(durations)),
            "cpu_s_per_audio_s": outcome["cpu"] / audio_s,
            "peak_rss_mb": outcome["peak"],
        },
        "report": {
            "protect_batch_p50_ms": (percentile_ms(durations, 50), "ms"),
            "throughput_audio_s_per_s_overall": (audio_s / (end - start), "audio_s/s"),
            "calls": (calls, "calls"),
        },
    }


class ExampleCycle:
    """Pre-built training examples served the way ``fit_streaming`` reads a
    stream, cycling when a run takes more steps than were built."""

    def __init__(self, examples: List[TrainingExample]) -> None:
        self.examples = examples

    def iterate(self, start: int = 0, count: Optional[int] = None, prefetch=None):
        for index in range(start, start + count):
            yield self.examples[index % len(self.examples)]


def probe_example_synthesis(ctx: Context) -> Dict[str, float]:
    """Traced runs only: one default step on a live ``ExampleStream``.

    With the default ``prefetch=0`` the step builds its examples inline, so
    the time spent in ``ExampleStream.example_at`` is the time the step
    waited for data.  A fresh trainer takes the step, so the loss check of
    the timed trainer is unaffected.
    """
    stream = example_stream(ctx.config, int(ctx.args.seed))
    trainer = SelectorTrainer(Selector(ctx.config, seed=int(ctx.args.seed)), config=TrainingConfig())
    begun = time.perf_counter()
    trainer.fit_streaming(stream, steps=1)
    ended = time.perf_counter()
    examples = [
        record[tracing.END] - record[tracing.START]
        for record in ctx.tracer.spans
        if record[tracing.NAME] == "training.example" and begun <= record[tracing.START] < ended
    ]
    return {
        "training.example_ms": 1000.0 * float(np.mean(examples)),
        "training.data_wait_ratio": sum(examples) / (ended - begun),
    }


def run_train(ctx: Context) -> Dict[str, object]:
    """``SelectorTrainer.fit_streaming`` one step at a time, default recipe.

    The examples were synthesised by ``ExampleStream`` in the inputs step, so
    the timed steps measure autograd, ``fftconv`` and the optimiser only:
    inline synthesis cost 0.8-1.6 s per batch depending on the noise drawn,
    which made the step time a property of the seed.  The traced run measures
    synthesis on its own, after the timed steps
    (:func:`probe_example_synthesis`).  The loss check compares the mean loss
    of the first timed batch before and after the timed steps.
    """
    config = ctx.config
    training = TrainingConfig()
    trainer = SelectorTrainer(Selector(config, seed=int(ctx.args.seed)), config=training)
    if ctx.tracer:
        ctx.tracer.name_convs(trainer.selector)
    batch = training.batch_size
    stream = ExampleCycle([
        TrainingExample(mixed, background, d_vector)
        for mixed, background, d_vector in zip(
            ctx.inputs["train_mixed"], ctx.inputs["train_background"], ctx.inputs["train_d_vectors"]
        )
    ])
    # Warm-up on the last pre-built batch; the timed steps start at the first.
    trainer.fit_streaming(stream, steps=1, start_index=len(stream.examples) - batch)
    ctx.mark_setup_end()
    if ctx.args.setup_only:
        return {}

    losses: List[float] = []
    durations: List[float] = []
    start = time.perf_counter()
    cpu_start = cpu_seconds()
    step = 0
    while time.perf_counter() - start < ctx.seconds:
        begun = time.perf_counter()
        history = trainer.fit_streaming(stream, steps=1, start_index=step * batch)
        durations.append(time.perf_counter() - begun)
        losses += history.losses
        step += 1
    end = time.perf_counter()
    cpu = cpu_seconds() - cpu_start
    peak = peak_rss_mb()
    synthesis = probe_example_synthesis(ctx) if ctx.tracer else {}
    ctx.end_window()

    initial_loss = losses[0]
    final_loss = trainer.evaluate(stream.examples[:batch], batch_size=1)
    finite = bool(np.all(np.isfinite(losses))) and bool(np.isfinite(final_loss))
    improved = finite and final_loss < initial_loss
    examples = step * batch
    audio_s = examples * config.segment_seconds
    return {
        "attempted": examples,
        "failed": 0 if improved else examples,
        "checks": {
            "losses_finite": finite,
            "initial_loss": initial_loss,
            "final_loss": final_loss,
            "loss_decreased": improved,
        },
        "window": (start, end),
        "segments": 0,
        "layer_extras": synthesis,
        "metrics": {
            "latency_p50_ms": percentile_ms(durations, 50),
            "latency_p90_ms": percentile_ms(durations, 90),
            "throughput_audio_s_per_s": audio_s / (end - start),
            "cpu_s_per_audio_s": cpu / audio_s,
            "peak_rss_mb": peak,
        },
        "report": {
            "train_examples_per_s": (examples / (end - start), "1/s"),
            "steps": (step, "steps"),
        },
    }


WORKLOADS: Dict[str, Callable[[Context], Dict[str, object]]] = {
    "live": run_live,
    "saturate": run_saturate,
    "offline": run_offline,
    "train": run_train,
}


def run(args: argparse.Namespace) -> Dict[str, object]:
    ctx = Context(args)
    try:
        result = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(ctx.registry_root, ignore_errors=True)
    result["setup_s"] = ctx.setup_end - float(args.spawned_at)
    result["host"] = host_fingerprint()
    if ctx.tracer and not args.setup_only:
        ctx.tracer.uninstall()
        ctx.tracer.write(Path(args.spans))
        unexplained = result.pop("unexplained_ms", [])
        if unexplained:
            result["report"]["unexplained_p50_ms"] = (float(np.median(unexplained)), "ms")
        result["layers"] = tracing.layer_metrics(
            ctx.tracer,
            tuple(result["window"]),
            int(result["segments"]),
            unexplained,
            tracing.conv_costs(ctx.tracer.selector, ctx.config),
        )
        result["layers"].update(result.get("layer_extras", {}))
    result.pop("layer_extras", None)
    result.pop("window", None)
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("inputs", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="JSON-lines span file (traced runs)")
    args = parser.parse_args(argv)
    if args.command == "inputs":
        make_inputs(args.workload, args.seed, args.seconds, Path(args.workdir))
        print(json.dumps({"inputs": args.workload}))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
