"""One protected stream: the (tenant, stream) unit of the serving layer.

A :class:`ProtectionSession` is what a connected client holds: a
:class:`~repro.core.pipeline.StreamingProtector` attached to the service's
shared :class:`~repro.core.selector.StreamBatch`, configured with the
tenant's enrolled d-vector.  The session's job is lifecycle — ``feed`` while
open, ``flush`` the partial tail, drain outstanding inference on ``close`` —
plus the per-session latency ledger
(:class:`~repro.core.pipeline.StreamLatencyStats`).

Sessions never run inference themselves: feeding only buffers samples and
queues each segment to the shared batch as one request (each early block
of the Selector's grid as soon as its frames exist, the closing block when
the segment closes); the
service's :class:`~repro.serving.loop.TickLoop` runs the Selector pass and
the session picks results up with :meth:`collect`.  A submit alone wakes the
loop (the batch notifies under the lock that queues it), so a session never
signals the loop itself.  ``close`` makes one wait on the loop for every
submitted segment to be ticked, then one collect.
Because each request's shadow is the same whichever sessions share a tick,
the shadow waves a session collects are bit-identical to a dedicated
:class:`~repro.core.pipeline.StreamingProtector` fed the same chunks.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, List, Optional, Union

import numpy as np

from repro.audio.signal import AudioSignal
from repro.core.pipeline import (
    NECSystem,
    ProtectionResult,
    StreamingProtector,
    StreamLatencyStats,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service owns sessions)
    from repro.serving.service import ProtectionService


class SessionState(enum.Enum):
    """Lifecycle of a session: open → draining → closed."""

    OPEN = "open"
    DRAINING = "draining"
    CLOSED = "closed"


_STREAM_COUNTER = itertools.count()


class ProtectionSession:
    """One (tenant, stream) attached to the shared serving batch.

    Constructed by :meth:`ProtectionService.open_session`, not directly.
    Typical client loop::

        with service.open_session("alice") as session:
            for chunk in microphone:
                session.feed(chunk)
                for result in session.collect():
                    speaker.broadcast(result.shadow_wave)
        # close() flushed the tail and drained remaining results into
        # session.drained_results — or call close() explicitly.
    """

    def __init__(
        self,
        service: "ProtectionService",
        tenant_id: str,
        system: NECSystem,
        stream_id: Optional[str] = None,
    ) -> None:
        self.service = service
        self.tenant_id = tenant_id
        self.stream_id = (
            stream_id if stream_id is not None else f"{tenant_id}/{next(_STREAM_COUNTER)}"
        )
        self.protector = StreamingProtector(system, stream_batch=service.batch)
        self.state = SessionState.OPEN
        #: Results drained by :meth:`close`; clients that close before
        #: collecting everything find the remainder here, in stream order.
        self.drained_results: List[ProtectionResult] = []

    # -- state -------------------------------------------------------------
    @property
    def latency(self) -> StreamLatencyStats:
        """Per-session samples-in → shadow-out accounting."""
        return self.protector.latency

    # -- lifecycle ---------------------------------------------------------
    def feed(self, chunk: Union[AudioSignal, np.ndarray]) -> None:
        """Buffer a chunk; due early blocks and completed segments join the next tick.

        Never returns results (the shared batch ticks on the service's
        loop); pick them up with :meth:`collect`.  Raises once the session
        left the OPEN state — a drained/closed stream accepts no more audio.
        """
        if self.state is not SessionState.OPEN:
            raise RuntimeError(
                f"session {self.stream_id} is {self.state.value}; cannot feed"
            )
        self.protector.feed(chunk)

    def collect(
        self, wait: bool = False, timeout: Optional[float] = None
    ) -> List[ProtectionResult]:
        """Finished results in stream order (possibly empty).

        With ``wait=True`` blocks — re-checking as each shadow is made — until at
        least one result is ready, every fed segment has been collected, or
        ``timeout`` elapses.
        """
        if wait and self.protector.pending_inference_segments:
            self.service.loop.wait_for(
                lambda: self.protector.next_result_ready
                or not self.protector.pending_inference_segments,
                timeout=timeout,
            )
        return self.protector.collect()

    def flush(self) -> None:
        """Queue the buffered partial segment (zero-padded, trimmed on emit)."""
        if self.state is SessionState.CLOSED:
            raise RuntimeError(f"session {self.stream_id} is closed; cannot flush")
        self.protector.flush()

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> List[ProtectionResult]:
        """Flush the tail, drain outstanding inference, detach from the service.

        Returns the results collected while draining (also kept in
        :attr:`drained_results`).  With ``drain`` it waits for every submitted
        segment to be ticked: it raises :class:`TimeoutError` if ``timeout``
        passes while the loop runs, and collects what finished if the loop
        has stopped.  With ``drain=False`` un-ticked segments are abandoned —
        only correct when the whole service is being torn down.  Idempotent:
        closing a closed session returns ``[]``.
        """
        if self.state is SessionState.CLOSED:
            return []
        if self.state is SessionState.OPEN:
            self.protector.flush()
            self.state = SessionState.DRAINING
        if drain and not self.protector.all_ticked:
            loop = self.service.loop
            ticked = loop.wait_for(lambda: self.protector.all_ticked, timeout=timeout)
            if not ticked and loop.running:
                raise TimeoutError(f"session {self.stream_id} did not drain within the timeout")
        drained = self.protector.collect()
        self.drained_results.extend(drained)
        self.state = SessionState.CLOSED
        self.service._session_closed(self)
        return drained

    # -- context manager ---------------------------------------------------
    def __enter__(self) -> "ProtectionSession":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close(drain=exc_type is None)
