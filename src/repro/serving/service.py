"""The protection service: registry + shared batch + tick loop + sessions.

:class:`ProtectionService` is the process-level front door of multi-tenant
NEC serving.  One Selector (and one encoder) is shared by every tenant — the
Selector is speaker-conditioned through its d-vector input, so multi-tenancy
costs no extra weights:

- the :class:`~repro.serving.registry.EnrollmentRegistry` supplies (and
  persists) per-tenant d-vectors and the model checkpoints;
- every open :class:`~repro.serving.session.ProtectionSession` submits each
  segment as one request to one shared
  :class:`~repro.core.selector.StreamBatch`, carrying that tenant's
  d-vector: its early blocks before the segment ends, its closing block
  when it closes;
- the :class:`~repro.serving.loop.TickLoop` thread, started with the
  service, runs every pending request — across sessions and tenants — one
  tick at a time.  The batch is the one place serving synchronises: a
  submit wakes the loop, and each finished request wakes the sessions
  waiting on it.

Each request's shadow equals the dedicated single-stream pass exactly, so
the service's shadow waves are bit-identical to running a private
:class:`~repro.core.pipeline.StreamingProtector` per stream.  The tick
counters live on :attr:`ProtectionService.batch`; :class:`ServiceStats`
counts sessions.  Shutdown is graceful: the loop drains every submitted
segment, the batch is closed to new submits (:meth:`StreamBatch.close`), and
closed sessions can still collect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.audio.signal import AudioSignal
from repro.core.config import NECConfig
from repro.core.pipeline import NECSystem
from repro.core.selector import StreamBatch
from repro.serving.loop import TickLoop
from repro.serving.registry import EnrollmentRegistry
from repro.serving.session import ProtectionSession, SessionState


@dataclass
class ServiceStats:
    """Session counts; the live tick counters are on :attr:`ProtectionService.batch`."""

    sessions_opened: int = 0
    sessions_closed: int = 0


class ProtectionService:
    """Multi-tenant protection serving on one shared StreamBatch.

    Bootstrap and serve::

        registry = EnrollmentRegistry(root, config=config)
        service = ProtectionService(registry, system=system)   # or registry-only
        service.enroll("alice", reference_clips)
        with service:
            session = service.open_session("alice")
            session.feed(chunk)
            results = session.collect(wait=True)
            session.close()

    Restart from disk (bit-identical weights and d-vectors)::

        service = ProtectionService(EnrollmentRegistry(root))

    When no ``system`` is passed, the registry must hold saved model
    checkpoints (:meth:`EnrollmentRegistry.save_models`) and the service is
    reconstructed from them via :meth:`EnrollmentRegistry.load_system`.
    """

    def __init__(
        self,
        registry: EnrollmentRegistry,
        system: Optional[NECSystem] = None,
    ) -> None:
        self.registry = registry
        if system is None:
            system = registry.load_system()
        if system.config != registry.config:
            raise ValueError("system config does not match the registry config")
        self.system = system
        self.config: NECConfig = system.config
        self.batch = StreamBatch(system.selector)
        self.loop = TickLoop(self.batch)
        self.stats = ServiceStats()
        self._sessions: Dict[str, ProtectionSession] = {}
        self._shutdown = False
        self.loop.start()

    # -- enrollment --------------------------------------------------------
    def enroll(
        self,
        tenant_id: str,
        reference_audios: Sequence[Union[AudioSignal, np.ndarray]],
    ) -> np.ndarray:
        """Enroll a tenant through the registry (persisted when rooted)."""
        return self.registry.enroll(tenant_id, reference_audios, self.system.encoder)

    def tenants(self) -> List[str]:
        return self.registry.tenants()

    # -- sessions ----------------------------------------------------------
    def open_session(
        self,
        tenant_id: str,
        stream_id: Optional[str] = None,
    ) -> ProtectionSession:
        """A new protected stream for an enrolled tenant.

        Each session gets its own lightweight :class:`NECSystem` view —
        sharing the service's Selector, encoder and config, carrying only the
        tenant's d-vector — so concurrent tenants share the same ticks while
        each request keeps its own conditioning vector.
        """
        if self._shutdown:
            raise RuntimeError("service is shut down; cannot open sessions")
        tenant_system = NECSystem(
            self.config, encoder=self.system.encoder, selector=self.system.selector
        )
        tenant_system.set_embedding(self.registry.embedding(tenant_id))
        session = ProtectionSession(self, tenant_id, tenant_system, stream_id=stream_id)
        if session.stream_id in self._sessions:
            raise ValueError(f"stream id '{session.stream_id}' is already open")
        self._sessions[session.stream_id] = session
        self.stats.sessions_opened += 1
        return session

    def sessions(self) -> List[ProtectionSession]:
        return list(self._sessions.values())

    def _session_closed(self, session: ProtectionSession) -> None:
        if self._sessions.pop(session.stream_id, None) is not None:
            self.stats.sessions_closed += 1

    # -- lifecycle ---------------------------------------------------------
    @property
    def running(self) -> bool:
        return self.loop.running and not self._shutdown

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Graceful teardown: close sessions, drain the loop, close the batch.

        With ``drain`` (default) every open session is flushed and drained —
        its remaining results land in ``session.drained_results`` — and every
        submitted segment gets its Selector pass before the tick thread exits.
        The batch is always closed to new submits (:meth:`StreamBatch.close`).
        Idempotent.
        """
        if self._shutdown:
            return
        self._shutdown = True
        for session in list(self._sessions.values()):
            if session.state is not SessionState.CLOSED:
                session.close(drain=drain, timeout=timeout)
        self.loop.shutdown(drain=drain, timeout=timeout)
        self.batch.close()

    def __enter__(self) -> "ProtectionService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown(drain=exc_type is None)
