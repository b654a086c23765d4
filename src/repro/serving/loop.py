"""The tick-driving event loop: one background thread runs all inference.

Sessions feed audio from wherever their traffic arrives (request handlers,
reader threads, a benchmark loop); each segment becomes one request in the
shared :class:`~repro.core.selector.StreamBatch`, queued as the Selector
grid's early blocks before the segment ends and its closing block when it
closes.  The
:class:`TickLoop` thread is the only place inference runs: it sleeps in
:meth:`StreamBatch.wait_for` until a stage is queued, then runs one
:meth:`~repro.core.selector.StreamBatch.tick` over every queued stage across
every session, in submit order.  The batch is where all waking happens:
each submit wakes the loop, and each finished request wakes the waiters,
under the queue's own lock, so no wake-up is lost and no producer signals
the loop.  That single-ticker design keeps the scheduling trivially fair
(FIFO) and keeps concurrent sessions from racing each other for the
Selector.  A tick that raises stops the loop and is re-raised to every
waiter; the batch keeps the failed request and those behind it queued.

Shutdown is graceful by default: the loop keeps ticking until no request is
pending (draining every submitted segment so no session is left waiting on
audio it already fed), then exits.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.core.selector import StreamBatch


class TickLoop:
    """Background thread driving :meth:`StreamBatch.tick` over pending work."""

    def __init__(self, batch: StreamBatch) -> None:
        self.batch = batch
        self._thread: Optional[threading.Thread] = None
        self._stopping = False
        self._drain_on_stop = True
        #: Set once no tick will run again: the loop exited, or was shut down unstarted.
        self._stopped = False
        self._error: Optional[BaseException] = None

    # -- state -------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and not self._stopped

    @property
    def error(self) -> Optional[BaseException]:
        """The exception that stopped the loop, if any."""
        return self._error

    # -- control -----------------------------------------------------------
    def start(self) -> "TickLoop":
        if self.running:
            return self
        if self._stopping or self._stopped:
            raise RuntimeError("TickLoop cannot be restarted after it stopped")
        self._thread = threading.Thread(target=self._run, name="nec-tick-loop", daemon=True)
        self._thread.start()
        return self

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the loop; with ``drain`` (default), tick until nothing is pending.

        Draining guarantees every segment submitted before shutdown gets its
        Selector pass — sessions can still :meth:`collect` their
        results after the loop is gone.  With ``drain=False`` pending requests
        are left unticked (their waiters see the loop stopped and give up).
        A loop that is not running just stops; nothing ticks on the caller's
        thread.
        """
        self._drain_on_stop = drain
        self._stopping = True
        if self._thread is None:
            self._stopped = True
        self.batch.notify()
        if self._thread is None:
            return
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - join timeout
            raise RuntimeError("TickLoop failed to stop within the timeout")
        self._thread = None

    # -- waiting -----------------------------------------------------------
    def wait_for(
        self, predicate: Callable[[], bool], timeout: Optional[float] = None
    ) -> bool:
        """Block until ``predicate()`` holds, re-checking as each shadow is made.

        Raises the loop's error if ticking failed (a waiter must never hang on
        an inference pass that will not happen).  Returns ``False`` on
        timeout, or if the loop stopped without the predicate holding.
        """
        settled = self.batch.wait_for(
            lambda: self._error is not None or self._stopped or predicate(), timeout
        )
        if self._error is not None:
            raise RuntimeError("tick loop failed") from self._error
        return settled and predicate()

    # -- loop body ---------------------------------------------------------
    def _run(self) -> None:
        batch = self.batch
        try:
            while True:
                # A tick can end with work queued (an early block that yielded).
                batch.wait_for(lambda: self._stopping or batch.pending_requests)
                if self._stopping:
                    break
                batch.tick()
            while self._drain_on_stop and batch.pending_requests:
                batch.tick()
        except BaseException as exc:  # noqa: BLE001 - published to waiters
            self._error = exc
        finally:
            self._stopped = True
            batch.notify()
