"""Multiprocessing snapshot-replay pool.

The paper notes snapshot replays are embarrassingly parallel (each
replay is independent, Section IV-C); this module fans them out across
worker processes.  Since the robustness layer landed, the fan-out is
handled by the *supervised* pool in :mod:`repro.robust.supervisor`:
each worker builds its gate-level simulator once from the pickled
:class:`AsicFlow` payload, and a supervisor imposes per-snapshot
timeouts, respawns crashed workers, retries with exponential backoff,
and degrades to in-process serial replay when retries are exhausted.

Guarantees:

* results come back in snapshot order;
* a strict-mode replay mismatch (or a snapshot integrity failure)
  propagates to the caller exactly as the serial path would raise it —
  verification failures are deterministic and are never retried;
* snapshots are dispatched one at a time so uneven replay times
  load-balance across workers;
* transient worker failures (crash, hang, spurious exception) are
  retried and recorded in a :class:`repro.robust.ReplayHealthReport`
  instead of hanging or killing the whole run.
"""

from __future__ import annotations

import multiprocessing
import os
import threading


class ParallelReplayError(Exception):
    """The replay payload cannot be shipped to worker processes."""


class CancelToken:
    """Cooperative cancellation signal for a streaming replay.

    The adaptive sampling controller sets the token once its target
    confidence interval is met; the supervisor checks it between
    dispatches and stops handing out new batches.  In-flight batches
    are *abandoned*, not interrupted: their workers finish (or are
    politely shut down at teardown) without the pool being killed, so
    a cancelled stream still ends with a healthy, reusable report.

    Thread-safe: built on :class:`threading.Event` so the consumer
    thread can cancel while the scheduler is blocked in a poll.
    """

    __slots__ = ("_event", "reason")

    def __init__(self):
        self._event = threading.Event()
        self.reason = None

    def cancel(self, reason=None):
        """Request cancellation (idempotent; first reason wins)."""
        if reason is not None and self.reason is None:
            self.reason = reason
        self._event.set()

    @property
    def cancelled(self):
        return self._event.is_set()

    def __bool__(self):
        return self.cancelled


_ENV_START_METHOD = "REPRO_START_METHOD"


def default_workers():
    return os.cpu_count() or 1


def _pick_context(start_method=None):
    """Resolve the multiprocessing start method for replay workers.

    Priority: explicit ``start_method`` argument, then the
    ``$REPRO_START_METHOD`` environment override, then a platform
    default.  The default prefers ``fork`` (cheap: workers inherit the
    parent's loaded modules and compiled evaluators) — but only while
    the parent process is single-threaded.  Forking a threaded parent
    can deadlock the child on locks held by threads that do not exist
    after the fork, so threaded parents fall back to ``spawn``.
    """
    if start_method is None:
        start_method = os.environ.get(_ENV_START_METHOD) or None
    methods = multiprocessing.get_all_start_methods()
    if start_method is None:
        if "fork" in methods and threading.active_count() == 1:
            start_method = "fork"
        else:
            start_method = "spawn"
    if start_method not in methods:
        raise ValueError(
            f"unsupported multiprocessing start method {start_method!r} "
            f"(check ${_ENV_START_METHOD}); available: {', '.join(methods)}")
    from ..obs import get_tracer
    get_tracer().instant("pool.start_method", cat="pool",
                         method=start_method,
                         threads=threading.active_count())
    return multiprocessing.get_context(start_method)


def replay_parallel(flow, snapshots, *, workers, port_names,
                    grouping=None, freq_hz=None, strict=True,
                    start_method=None, timeout=None, max_retries=2,
                    fault_plan=None, on_result=None, health=None,
                    batch_lanes):
    """Replay ``snapshots`` on ``workers`` processes; order-preserving.

    Thin compatibility wrapper over
    :func:`repro.robust.supervisor.replay_supervised`.  Raises
    :class:`ParallelReplayError` if the flow/grouping payload is not
    picklable (e.g. a closure grouping function) — callers may fall
    back to the serial path.  Deterministic verification failures
    (strict-mode ``ReplayError``, ``SnapshotError``) propagate
    unchanged; transient worker failures are retried by the supervisor.

    ``batch_lanes`` (required) is the most snapshots a worker replays
    in the bit lanes of one batch (same results for any value);
    ``health``, if given, is a list the resulting
    :class:`~repro.robust.ReplayHealthReport` is appended to.
    """
    from ..robust.supervisor import replay_supervised
    results, report = replay_supervised(
        flow, snapshots, workers=workers, port_names=port_names,
        grouping=grouping, freq_hz=freq_hz, strict=strict,
        start_method=start_method, timeout=timeout,
        max_retries=max_retries, fault_plan=fault_plan,
        on_result=on_result, batch_lanes=batch_lanes)
    if health is not None:
        health.append(report)
    return results
