"""The tick-driving event loop: one background thread runs all inference.

Sessions feed audio from wherever their traffic arrives (request handlers,
reader threads, a benchmark loop); each segment becomes one request in the
shared :class:`~repro.core.selector.StreamBatch`, queued as a head stage
before the segment ends and a tail stage when it closes.  The
:class:`TickLoop` thread is the only place inference runs: it wakes when work
is submitted (or on a coarse poll as a safety net), runs one
:meth:`~repro.core.selector.StreamBatch.tick` over every queued stage across
every session, in submit order, and notifies waiters as each request's
shadow comes to exist.  That
single-ticker design keeps the scheduling trivially fair (FIFO) and keeps
concurrent sessions from racing each other for the Selector.  A tick that
raises stops the loop and is re-raised to every waiter; the batch keeps the
failed request and those behind it queued.

Shutdown is graceful by default: the loop stops accepting wakeups, keeps
ticking until no request is pending (draining every submitted segment so no
session is left waiting on audio it already fed), then exits.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.core.selector import StreamBatch, StreamRequest


class TickLoop:
    """Background thread driving :meth:`StreamBatch.tick` over pending work.

    ``poll_interval_s`` bounds how long a submitted segment can sit unticked
    if a producer forgets to :meth:`wake` — it is a safety net, not the
    scheduling mechanism.
    """

    def __init__(self, batch: StreamBatch, poll_interval_s: float = 0.05) -> None:
        self.batch = batch
        self.poll_interval_s = float(poll_interval_s)
        self._thread: Optional[threading.Thread] = None
        self._wake_cond = threading.Condition()
        self._woken = False
        self._stopping = False
        self._drain_on_stop = True
        self._tick_cond = threading.Condition()
        self._error: Optional[BaseException] = None

    # -- state -------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def error(self) -> Optional[BaseException]:
        """The exception that stopped the loop, if any."""
        return self._error

    # -- control -----------------------------------------------------------
    def start(self) -> "TickLoop":
        if self.running:
            return self
        if self._stopping:
            raise RuntimeError("TickLoop cannot be restarted after shutdown")
        self._thread = threading.Thread(target=self._run, name="nec-tick-loop", daemon=True)
        self._thread.start()
        return self

    def wake(self) -> None:
        """Signal that work was submitted; the loop ticks as soon as it can."""
        with self._wake_cond:
            self._woken = True
            self._wake_cond.notify()

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the loop; with ``drain`` (default), tick until nothing is pending.

        Draining guarantees every segment submitted before shutdown gets its
        Selector pass — sessions can still :meth:`collect` their
        results after the loop is gone.  With ``drain=False`` pending requests
        are left unticked (their waiters see the loop stopped and give up).
        A loop that is not running just stops; nothing ticks on the caller's
        thread.
        """
        with self._wake_cond:
            self._stopping = True
            self._drain_on_stop = drain
            self._wake_cond.notify()
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
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._tick_cond:
            while True:
                if self._error is not None:
                    raise RuntimeError("tick loop failed") from self._error
                if predicate():
                    return True
                if self._stopping and not self.running:
                    return False
                remaining = self.poll_interval_s
                if deadline is not None:
                    remaining = min(remaining, deadline - time.monotonic())
                    if remaining <= 0:
                        return False
                self._tick_cond.wait(remaining)

    # -- loop body ---------------------------------------------------------
    def _notify(self, request: Optional[StreamRequest] = None) -> None:
        with self._tick_cond:
            self._tick_cond.notify_all()

    def _tick_once(self) -> None:
        try:
            # Waiters re-check as each segment's shadow exists, not only when
            # the whole tick ends.
            self.batch.tick(on_done=self._notify)
        except BaseException as exc:  # noqa: BLE001 - surfaced to waiters
            with self._tick_cond:
                self._error = exc
                self._tick_cond.notify_all()
            raise
        self._notify()

    def _run(self) -> None:
        try:
            while True:
                with self._wake_cond:
                    # A tick can end with work queued (a head that yielded).
                    if not (self._woken or self._stopping or self.batch.pending_requests):
                        self._wake_cond.wait(self.poll_interval_s)
                    self._woken = False
                    stopping = self._stopping
                if stopping:
                    break
                if self.batch.pending_requests:
                    self._tick_once()
            if self._drain_on_stop:
                while self.batch.pending_requests:
                    self._tick_once()
        except BaseException:  # noqa: BLE001 - error already published
            return
        finally:
            with self._tick_cond:
                self._tick_cond.notify_all()
