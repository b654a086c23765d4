"""Span tracing for the traced benchmark run, installed from outside the program.

:func:`install` swaps public methods and module attributes of the NEC layers
for timing wrappers; nothing under ``src/`` is edited.  Each span is kept in
memory as ``[name, start, end, parent, request, rows, rss_growth_kb]`` and
written out as JSON lines when the run ends.  Spans opened on one thread nest,
so the children of a span never overlap: its self time is its duration minus
the durations of its children.

``ru_maxrss`` is process-wide, so growth is credited once: every span start
and end reads it under the tracer's lock, and an increase over the last read
goes to the innermost span open on the reading thread.  The per-span figures
therefore add up to at most the process's real peak growth; growth caused on
one thread may be credited to a span on another that read it first.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import resource
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

NAME, START, END, PARENT, REQUEST, ROWS, RSS_KB = range(7)

#: Layers that memory growth is credited to; a span's layer is the first part
#: of its name (``istft.*`` spans belong to ``stft``).
RSS_LAYERS = (
    "serving", "selector", "conv", "stft", "pipeline",
    "registry", "encoder", "training", "fftconv",
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rows_of(position: int) -> Callable:
    return lambda args, result: int(args[position].shape[0])


class Tracer:
    """In-memory spans plus the serving queue waits they cannot show."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: ``(submitted_at, wait_s, request id, tick span index)`` per request.
        self.queue_waits: List[Tuple[float, float, Optional[str], int]] = []
        self.selector = None
        self.conv_names: Dict[int, str] = {}
        self.im2col_cache_entries = 0
        self._submitted: List[tuple] = []
        self._local = threading.local()
        # Re-entrant: submit holds it across the wrapped call, which records a span.
        self._lock = threading.RLock()
        self._patches: List[tuple] = []
        self._peak_kb = _maxrss_kb()

    # -- recording -----------------------------------------------------------
    @contextlib.contextmanager
    def request(self, request_id: str):
        """Tag the spans this thread opens inside the block with ``request_id``."""
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _credit_rss(self, index: int) -> None:
        """Credit growth of the peak since the last read to span ``index``.

        Called with the lock held; ``index`` -1 (no open span) drops it.
        """
        now = _maxrss_kb()
        if now > self._peak_kb:
            if index >= 0:
                self.spans[index][RSS_KB] += now - self._peak_kb
            self._peak_kb = now

    def call(self, name: str, function: Callable, args, kwargs, rows: Optional[Callable] = None):
        """Run ``function`` inside a span; ``rows(args, result)`` counts its rows."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, 0.0, 0.0, parent, getattr(self._local, "request", None), 0, 0]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
            self._credit_rss(parent)
        stack.append(index)
        record[START] = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            with self._lock:
                self._credit_rss(index)
            stack.pop()
            self._local.last = index
        if rows is not None:
            record[ROWS] = rows(args, result)
        return result

    def wrap(self, owner, attribute: str, name, rows: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` with a wrapper recording one span per call.

        ``name`` is a span name or a function of the call's arguments.
        """
        original = getattr(owner, attribute)
        label = name if callable(name) else (lambda args: name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(label(args), original, args, kwargs, rows)

        self._patch(owner, attribute, wrapper)

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def name_convs(self, selector) -> None:
        self.selector = selector
        self.conv_names = {id(layer): name for name, layer in conv_layers(selector)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every traced layer."""
    # By module path: package namespaces can shadow a submodule (``repro.dsp``
    # exports the function ``stft``).
    (pipeline, selector, training, encoder, stft, conv, optim, tensor, registry, session) = (
        importlib.import_module(f"repro.{name}")
        for name in (
            "core.pipeline", "core.selector", "core.training", "core.encoder", "dsp.stft",
            "nn.conv", "nn.optim", "nn.tensor", "serving.registry", "serving.session",
        )
    )

    tracer.wrap(session.ProtectionSession, "feed", "serving.feed")
    tracer.wrap(
        session.ProtectionSession, "collect", "serving.collect",
        rows=lambda args, result: len(result),
    )
    _wrap_stream_batch(tracer, selector.StreamBatch)
    tracer.wrap(selector.Selector, "forward_batch", "selector.forward_batch", rows=_rows_of(1))
    tracer.wrap(
        conv.Conv2d, "infer",
        lambda args: f"conv.{tracer.conv_names.get(id(args[0]), 'other')}.infer",
        rows=_rows_of(1),
    )
    _wrap_im2col(tracer, conv)
    tracer.wrap(stft.StreamingSTFT, "feed", "stft.streaming_feed")
    tracer.wrap(stft.StreamingISTFT, "feed", "istft.streaming")
    tracer.wrap(stft.StreamingISTFT, "flush", "istft.streaming")
    # The pipeline calls these through its own module namespace.
    tracer.wrap(pipeline, "batch_stft", "stft.batch_stft", rows=_rows_of(0))
    tracer.wrap(pipeline, "batch_istft", "stft.batch_istft", rows=_rows_of(0))
    tracer.wrap(pipeline.NECSystem, "protect_batch", "pipeline.protect_batch")
    tracer.wrap(registry.EnrollmentRegistry, "load_system", "registry.load_system")
    tracer.wrap(encoder.SpectralEncoder, "embed", "encoder.embed")
    tracer.wrap(training.ExampleStream, "example_at", "training.example")
    tracer.wrap(training.SelectorTrainer, "step_batch", "training.step")
    tracer.wrap(training.SelectorTrainer, "batch_loss", "training.forward")
    tracer.wrap(tensor.Tensor, "backward", "training.backward")
    tracer.wrap(optim.Adam, "step", "training.optimizer")
    _wrap_fftconv(tracer, conv)


def _wrap_stream_batch(tracer: Tracer, batch_class) -> None:
    """Spans for submit and tick, plus each request's submit → tick-start wait."""
    submit_original = batch_class.submit
    tick_original = batch_class.tick

    def submit(*args, **kwargs):
        submitted = time.perf_counter()
        # Held across the call so that a tick finishing this request cannot
        # look for it before it is registered.
        with tracer._lock:
            request = tracer.call("serving.submit", submit_original, args, kwargs)
            tracer._submitted.append(
                (request, submitted, getattr(tracer._local, "request", None))
            )
        return request

    def tick(*args, **kwargs):
        started = time.perf_counter()
        result = tracer.call(
            "serving.tick", tick_original, args, kwargs, rows=lambda a, ticked: ticked
        )
        index = tracer._local.last
        with tracer._lock:
            waiting = []
            for entry in tracer._submitted:
                request, submitted, request_id = entry
                if request.done:
                    tracer.queue_waits.append(
                        (submitted, max(started - submitted, 0.0), request_id, index)
                    )
                else:
                    waiting.append(entry)
            tracer._submitted = waiting
        return result

    tracer._patch(batch_class, "submit", submit)
    tracer._patch(batch_class, "tick", tick)


def _wrap_im2col(tracer: Tracer, conv) -> None:
    original = conv.strided_im2col

    def strided_im2col(*args, **kwargs):
        result = tracer.call("conv.im2col", original, args, kwargs, rows=_rows_of(0))
        entries = conv.im2col_buffer_cache_info()["entries"]  # the calling thread's cache
        tracer.im2col_cache_entries = max(tracer.im2col_cache_entries, entries)
        return result

    tracer._patch(conv, "strided_im2col", strided_im2col)


def _wrap_fftconv(tracer: Tracer, conv) -> None:
    """Time ``fft_conv2d`` (as ``Conv2d.forward_fft`` calls it) and its backward."""
    original = conv.fft_conv2d

    def fft_conv2d(*args, **kwargs):
        out = tracer.call("fftconv.forward", original, args, kwargs)
        backward = out._backward
        if backward is not None:
            out._backward = lambda grad: tracer.call("fftconv.backward", backward, (grad,), {})
        return out

    tracer._patch(conv, "fft_conv2d", fft_conv2d)


def conv_layers(selector) -> List[Tuple[str, object]]:
    """The Selector's convolutions in forward order, with their metric names."""
    return [
        ("conv_freq", selector.conv_freq),
        ("conv_time", selector.conv_time),
        *((f"dilated.{index}", layer) for index, layer in enumerate(selector.dilated)),
        ("conv_out", selector.conv_out),
    ]


def conv_costs(selector, config) -> Dict[str, float]:
    """Per-segment FLOPs and im2col column bytes of each layer, from shapes."""
    costs: Dict[str, float] = {}
    for name, layer in conv_layers(selector):
        # The Selector's image is (N, 1, frames, frequency bins).
        out_h, out_w = layer.output_size(config.num_frames, config.frequency_bins)
        taps = layer.in_channels * layer.kernel_size[0] * layer.kernel_size[1]
        costs[f"conv.{name}.flops_per_segment"] = 2.0 * layer.out_channels * taps * out_h * out_w
        costs[f"conv.{name}.column_bytes_per_segment"] = 8.0 * taps * out_h * out_w
    return costs


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def layer_metrics(
    tracer: Tracer,
    window: Tuple[float, float],
    segments: int,
    unexplained_ms: Sequence[float],
    costs: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics over the spans that started inside ``window``.

    ``segments`` counts the segments the streaming front protected in the
    window; set-up spans (registry load, enrollment) and memory growth are
    taken over the whole run.
    """
    spans = tracer.spans
    child_s: Dict[int, float] = defaultdict(float)
    for record in spans:
        if record[PARENT] >= 0:
            child_s[record[PARENT]] += record[END] - record[START]
    everywhere: Dict[str, List[int]] = defaultdict(list)
    timed: Dict[str, List[int]] = defaultdict(list)
    for index, record in enumerate(spans):
        everywhere[record[NAME]].append(index)
        if window[0] <= record[START] < window[1]:
            timed[record[NAME]].append(index)

    def durations(name: str, where=timed) -> List[float]:
        return [1000.0 * (spans[i][END] - spans[i][START]) for i in where[name]]

    def total(name: str) -> float:
        return sum(durations(name))

    def self_total(name: str) -> float:
        return sum(
            1000.0 * (spans[i][END] - spans[i][START] - child_s[i]) for i in timed[name]
        )

    def rows(name: str) -> int:
        return sum(spans[i][ROWS] for i in timed[name])

    def mean(values: Sequence[float]) -> float:
        return float(np.mean(values)) if len(values) else 0.0

    ticks = timed["serving.tick"]
    busy_ticks = [i for i in ticks if spans[i][ROWS] > 0]
    waits = [1000.0 * wait for submitted, wait, _, _ in tracer.queue_waits
             if window[0] <= submitted < window[1]]
    collects = [1000.0 * (spans[i][END] - spans[i][START])
                for i in timed["serving.collect"] if spans[i][ROWS] > 0]
    forward_rows = rows("selector.forward_batch")
    names = list(tracer.conv_names.values())
    conv_infers = [f"conv.{name}.infer" for name in names]
    steps = len(timed["training.step"])

    metrics: Dict[str, float] = {
        "serving.queue_wait_ms.p50": _percentile(waits, 50),
        "serving.queue_wait_ms.p95": _percentile(waits, 95),
        "serving.tick_ms.p50": _percentile(
            [1000.0 * (spans[i][END] - spans[i][START]) for i in busy_ticks], 50
        ),
        "serving.batch_segments.mean": mean([spans[i][ROWS] for i in busy_ticks]),
        "serving.empty_tick_ratio": _per(len(ticks) - len(busy_ticks), len(ticks)),
        "serving.feed_ms.p50": _percentile(durations("serving.feed"), 50),
        "serving.collect_ms.p50": _percentile(collects, 50),
        "serving.unexplained_ms.p50": _percentile(unexplained_ms, 50),
        "selector.forward_ms_per_segment": _per(total("selector.forward_batch"), forward_rows),
        "selector.head_ms_per_segment": _per(self_total("selector.forward_batch"), forward_rows),
    }
    for name, infer in zip(names, conv_infers):
        metrics[f"conv.{name}.infer_ms_per_segment"] = _per(total(infer), rows(infer))
    metrics["conv.im2col_ms_per_segment"] = _per(total("conv.im2col"), forward_rows)
    metrics["conv.gemm_ms_per_segment"] = _per(
        sum(self_total(infer) for infer in conv_infers), forward_rows
    )
    metrics.update(costs)
    metrics["conv.im2col_cache_entries"] = float(tracer.im2col_cache_entries)
    metrics.update({
        "stft.streaming_feed_ms": _per(total("stft.streaming_feed"), segments),
        "istft.streaming_ms_per_segment": _per(total("istft.streaming"), segments),
        "stft.batch_stft_ms_per_segment": _per(total("stft.batch_stft"), rows("stft.batch_stft")),
        "stft.batch_istft_ms_per_segment": _per(
            total("stft.batch_istft"), rows("stft.batch_istft")
        ),
        "registry.load_system_ms": mean(durations("registry.load_system", everywhere)),
        "encoder.embed_ms": mean(durations("encoder.embed", everywhere)),
        # The timed steps read pre-built examples; the traced train run
        # measures synthesis after them and reports these two itself.
        "training.example_ms": 0.0,
        "training.data_wait_ratio": 0.0,
        "training.forward_ms": _per(total("training.forward"), steps),
        "training.backward_ms": _per(total("training.backward"), steps),
        "training.optimizer_ms": _per(total("training.optimizer"), steps),
        "fftconv.ms_per_step": _per(total("fftconv.forward") + total("fftconv.backward"), steps),
    })
    growth_kb: Dict[str, int] = defaultdict(int)
    for record in spans:
        layer = record[NAME].split(".")[0]
        growth_kb["stft" if layer == "istft" else layer] += record[RSS_KB]
    for layer in RSS_LAYERS:
        metrics[f"{layer}.rss_growth_mb"] = growth_kb[layer] / 1024.0
    return metrics
