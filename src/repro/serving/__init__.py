"""Multi-tenant protection serving on top of the shared inference queue.

The paper's system protects *live* conversations, which in production means
many concurrent enrolled speakers streaming at once.  This package is the
long-lived serving layer around the :class:`~repro.core.selector.StreamBatch`
scheduler primitive:

* :mod:`repro.serving.registry` — :class:`EnrollmentRegistry`: persistent
  multi-tenant enrollment state (per-speaker d-vectors, Selector and encoder
  checkpoints) via :mod:`repro.nn.serialization`; save → fresh-process load →
  protect is bit-identical.
* :mod:`repro.serving.session` — :class:`ProtectionSession`: one
  (tenant, stream) with open/feed/flush/close lifecycle, wrapping a
  :class:`~repro.core.pipeline.StreamingProtector` attached to the shared
  batch, with per-session :class:`~repro.core.pipeline.StreamLatencyStats`.
* :mod:`repro.serving.loop` — :class:`TickLoop`: the tick-driving event loop
  (a stdlib thread) that runs the pending segments of every session, tick by
  tick, and drains gracefully on shutdown.
* :mod:`repro.serving.service` — :class:`ProtectionService`: the front door
  tying registry, sessions and loop together.

Sharing a tick never changes a number (every request's shadow is
bit-identical to a dedicated per-stream pass), so protection through the
service equals direct :class:`~repro.core.pipeline.StreamingProtector` use
bit for bit — the equivalence the test-suite pins.
"""

from repro.serving.loop import TickLoop
from repro.serving.registry import EnrollmentRegistry
from repro.serving.service import ProtectionService, ServiceStats
from repro.serving.session import ProtectionSession, SessionState

__all__ = [
    "EnrollmentRegistry",
    "ProtectionService",
    "ProtectionSession",
    "ServiceStats",
    "SessionState",
    "TickLoop",
]
