"""Adaptive sampling controller: error-driven early stopping.

Strober's sampling theory (Section III-A) is offline: pick a sample
size up front, replay it all, report the eq.-7 confidence interval.
This module closes the loop online.  The controller consumes the
streaming replay scheduler (:meth:`ReplayEngine.replay_stream`),
folds each completed replay into an incremental eq.-7 estimator
(:class:`repro.sampling.OnlineMeanEstimator` — O(1) per result), and
stops the run — cancelling in-flight batches through the supervisor's
:class:`~repro.parallel.CancelToken` without killing the pool — the
moment the interval's relative error meets the target.

State machine::

    collecting --(rel_error <= target, n >= min_sample)--> target-met
    collecting --(every candidate snapshot replayed)-----> exhausted
    collecting --(max_sample replays spent)--------------> max-sample

Dispatch order is the *bit-reversal* (van der Corput) permutation of
the snapshot indices.  Snapshots are drawn uniformly at random by the
reservoir sampler and stored in execution order, so any subset is a
valid simple random sample — but an adaptive stop takes a *prefix*,
and a prefix of the execution order would be biased toward the start
of the run if the stop fired early for value-dependent reasons.  The
bit-reversal order is value-independent and spreads every prefix
evenly across the execution timeline, so the replays an early stop
keeps cover the whole run rather than its first half.

With ``target_rel_error=None`` the controller degrades to pure
telemetry — natural dispatch order, no stopping, byte-identical
journals — exactly the historical fixed-sample behavior.
"""

from __future__ import annotations

from ..obs import get_registry
from ..sampling import OnlineMeanEstimator

STOP_TARGET_MET = "target-met"   # interval met the target rel error
STOP_EXHAUSTED = "exhausted"     # ran out of candidate snapshots
STOP_MAX_SAMPLE = "max-sample"   # hit the max_sample replay budget

# Eq. 7 has no half-width below two samples (estimate_mean hardens
# n=1 to a zero half-width), so a stop decision below this floor
# would mistake "no variance information" for "converged".
DEFAULT_MIN_SAMPLE = 2


def confidence_order(n):
    """Bit-reversal (van der Corput) permutation of ``range(n)``.

    Deterministic and value-independent; every prefix of the returned
    order spreads (near-)evenly over ``0..n-1``.  This is the
    confidence-driven dispatch order: stopping after any prefix keeps
    a subset that covers the whole execution timeline.
    """
    n = int(n)
    if n <= 0:
        return []
    bits = max(1, (n - 1).bit_length())
    out = []
    for i in range(1 << bits):
        r = 0
        for b in range(bits):
            r = (r << 1) | ((i >> b) & 1)
        if r < n:
            out.append(r)
    return out


class AdaptiveSamplingController:
    """Consumes the replay stream; decides order, progress, and stop.

    One instance per run.  The flow seeds it with journal-resumed
    results, asks :meth:`plan_order` for the dispatch order, calls
    :meth:`observe` per completed replay (followed by
    :meth:`should_stop`), and :meth:`finish` at the end for the run's
    sampling summary.  Every decision — dispatch plan, per-result
    progress, cancellation, stop — is emitted as an obs instant under
    the ``controller.`` prefix so ``repro.obs.report`` can show it.
    """

    def __init__(self, population, *, available, confidence=0.99,
                 target_rel_error=None, min_sample=None, max_sample=None,
                 tracer=None):
        if target_rel_error is not None and target_rel_error <= 0:
            raise ValueError("target_rel_error must be positive")
        self.population = int(population)
        self.available = int(available)
        self.confidence = confidence
        self.target_rel_error = target_rel_error
        if min_sample is None:
            min_sample = DEFAULT_MIN_SAMPLE
        self.min_sample = max(int(min_sample), DEFAULT_MIN_SAMPLE)
        if max_sample is None:
            max_sample = self.available
        self.max_sample = max(min(int(max_sample), self.available),
                              self.min_sample)
        if tracer is None:
            from ..obs import get_tracer
            tracer = get_tracer()
        self.tracer = tracer
        self.estimator = OnlineMeanEstimator(self.population,
                                             confidence=confidence)
        self.seeded = 0
        self.replayed = 0
        self.stop_reason = None
        self._planned = 0
        self._capped = False     # plan was truncated by max_sample

    @property
    def adaptive(self):
        return self.target_rel_error is not None

    @property
    def ramp(self):
        """First dispatch width for :meth:`ReplayEngine.replay_stream`.

        Adaptive runs start at ``min_sample`` snapshots and double per
        batch, so a stop after a short prefix wastes little of a wide
        batch; fixed runs dispatch full-width batches (``None``).
        """
        return self.min_sample if self.adaptive else None

    @property
    def sample_size(self):
        """Samples folded in so far (seeded + freshly replayed)."""
        return self.estimator.n

    # ---- seeding (journal resume) ----

    def seed(self, totals):
        """Fold already-journaled replay totals in, silently.

        Resumed results were counted (and journaled) by the run that
        produced them; re-counting them here would double the
        ``sampling.replays_completed`` metric and replant telemetry
        samples the original run already emitted.
        """
        for total in totals:
            self.estimator.add(total)
            self.seeded += 1

    # ---- dispatch ----

    def plan_order(self, pending):
        """The dispatch order over ``pending`` snapshot indices.

        Fixed mode returns ``pending`` unchanged (natural order — the
        historical batching, byte-identical journals).  Adaptive mode
        reorders ``pending`` by the bit-reversal permutation over all
        ``available`` snapshots and truncates so seeded + planned
        replays never exceed ``max_sample``.  Emits one
        ``controller.dispatch`` instant describing the decision.
        """
        pending = [int(i) for i in pending]
        if not self.adaptive:
            self._planned = len(pending)
            return pending
        pending_set = set(pending)
        ordered = [i for i in confidence_order(self.available)
                   if i in pending_set]
        budget = max(self.max_sample - self.sample_size, 0)
        plan = ordered[:budget]
        self._planned = len(plan)
        self._capped = len(plan) < len(ordered)
        self.tracer.instant(
            "controller.dispatch", cat="controller",
            strategy="bit-reversal", planned=len(plan),
            pending=len(pending), seeded=self.seeded,
            max_sample=self.max_sample,
            target_rel_error=self.target_rel_error)
        return plan

    # ---- per-result progress ----

    def observe(self, index, result):
        """Fold one completed replay in; emit live telemetry."""
        self.estimator.add(result.power.total_mw)
        self.replayed += 1
        n = self.estimator.n
        registry = get_registry()
        registry.counter("sampling.replays_completed").inc()
        if n < 2:
            return      # one sample has no interval half-width yet
        est = self.estimator.estimate()
        rel = est.relative_error_bound
        rel_pct = rel * 100.0
        self.tracer.counter("sampling.n", n)
        self.tracer.counter("sampling.mean_mw", est.mean)
        self.tracer.counter("sampling.rel_error_pct", rel_pct)
        registry.gauge("sampling.rel_error_pct").set(rel_pct)
        registry.gauge("sampling.mean_mw").set(est.mean)
        if self.adaptive:
            self.tracer.instant(
                "controller.progress", cat="controller",
                snapshot_index=int(index), n=n,
                rel_error=rel if rel != float("inf") else None,
                target_rel_error=self.target_rel_error)

    def should_stop(self):
        """The stop reason the current state justifies, or ``None``.

        Only adaptive runs ever stop early; the decision latches (the
        first reason sticks).
        """
        if not self.adaptive or self.stop_reason is not None:
            return self.stop_reason
        n = self.estimator.n
        if n >= self.min_sample:
            rel = self.estimator.relative_error
            if rel <= self.target_rel_error:
                self.stop_reason = STOP_TARGET_MET
                return self.stop_reason
        if n >= self.max_sample:
            self.stop_reason = STOP_MAX_SAMPLE
        return self.stop_reason

    def request_cancel(self, cancel, reason):
        """Set the stream's cancel token; emits ``controller.cancel``."""
        registry = get_registry()
        registry.counter("controller.cancels").inc()
        self.tracer.instant(
            "controller.cancel", cat="controller", reason=reason,
            n=self.estimator.n,
            rel_error=self._finite(self.estimator.relative_error))
        cancel.cancel(reason)

    # ---- completion ----

    def finish(self):
        """Close the run out; returns the sampling summary dict.

        Resolves the final stop reason (a run that drained its whole
        plan without meeting the target stopped because it was
        ``exhausted`` — or hit ``max-sample`` if the plan was capped),
        emits the ``controller.stop`` instant, and builds the summary
        stored on ``StroberRun.sampling``, in the journal's control
        record, and in the service job status.
        """
        if self.adaptive and self.stop_reason is None:
            self.stop_reason = (STOP_MAX_SAMPLE if self._capped
                                else STOP_EXHAUSTED)
        est = self.estimator.estimate()
        rel = self._finite(est.relative_error_bound)
        early = (self.stop_reason == STOP_TARGET_MET
                 and self.sample_size < self.available)
        summary = {
            "mode": "adaptive" if self.adaptive else "fixed",
            "stop_reason": self.stop_reason,
            "early_stop": bool(early),
            "target_rel_error": self.target_rel_error,
            "min_sample": self.min_sample if self.adaptive else None,
            "max_sample": self.max_sample if self.adaptive else None,
            "confidence": self.confidence,
            "population": self.population,
            "available": self.available,
            "seeded": self.seeded,
            "replayed": self.replayed,
            "sample_size": self.sample_size,
            "fraction_replayed": (self.sample_size / self.available
                                  if self.available else 1.0),
            "rel_error": rel,
            "mean_mw": est.mean,
        }
        if self.adaptive:
            self.tracer.instant(
                "controller.stop", cat="controller",
                reason=self.stop_reason, early_stop=bool(early),
                n=self.sample_size, rel_error=rel,
                target_rel_error=self.target_rel_error,
                fraction_replayed=summary["fraction_replayed"])
            registry = get_registry()
            registry.gauge("controller.sample_size").set(self.sample_size)
            if rel is not None:
                registry.gauge("controller.rel_error").set(rel)
        return summary

    @staticmethod
    def _finite(value):
        """inf -> None: the summary must survive strict JSON."""
        if value is None or value != value or value == float("inf"):
            return None
        return value
