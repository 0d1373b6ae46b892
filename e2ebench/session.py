"""One measured process of the benchmark (started by ``run.py``).

Usage: ``python3 session.py '<json config>'`` with keys ``workload``,
``seed``, ``mode`` (``measure`` | ``traced``), ``warm`` (warm calls, or
warm seeds in traced mode), ``skip`` (warm seeds used by the run's other
processes), ``budget`` (seconds this process may live), ``stop_by``
(seconds after which it starts no warm call but its first), ``results``
(JSONL file, one record per event, flushed as it happens so a killed
process still leaves its finished calls behind) and ``spans`` (traced
mode: span dump written once, at the end).

The first ``run_strober`` call of the process is the cold call: the
driver gives every process an empty artifact cache, and its wall time
counts from the top of this file, imports included.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as W  # noqa: E402


class Session:
    def __init__(self, cfg):
        self.cfg = cfg
        self.workload = cfg["workload"]
        self.program, self.kwargs = W.knobs(self.workload)
        self.deadline = T0 + cfg["budget"]
        self.stop_by = T0 + cfg["stop_by"]
        self.out = open(cfg["results"], "a")
        self._seeds = iter(W.call_seeds(cfg["seed"], 10_000))
        self._golden_instret = None
        self.last_wall = 0.0

    def emit(self, record):
        self.out.write(json.dumps(record) + "\n")
        self.out.flush()

    def golden_instret(self):
        if self._golden_instret is None:
            self._golden_instret = W.golden_instret(
                self.program, self.kwargs.get("workload_kwargs") or {})
        return self._golden_instret

    def call(self, kind, seed, t_start=None, **extra):
        """One checked ``run_strober`` call; returns (run, record).

        The caller emits the record, after adding what it measured."""
        from repro.core import run_strober
        self.emit({"kind": "start", "call": kind, "seed": seed})
        t0 = time.perf_counter() if t_start is None else t_start
        try:
            run = run_strober(W.DESIGN, self.program, seed=seed,
                              **self.kwargs, **extra)
        except Exception as exc:
            return None, {"kind": kind, "seed": seed,
                          "error": f"{type(exc).__name__}: {exc}"}
        wall = time.perf_counter() - t0
        self.last_wall = wall
        stats = W.call_stats(run)
        record = {"kind": kind, "seed": seed, "wall": wall,
                  "stats": stats,
                  "problems": W.check_call(stats, self.golden_instret())}
        return run, record

    def fits(self, n_calls):
        """True if ``n_calls`` more calls like the last one fit the
        budget with margin."""
        return (time.perf_counter() + 1.5 * n_calls * self.last_wall
                < self.deadline)

    def warm_seeds(self, calls_per_seed):
        """Seeds of this process's warm calls: ``warm`` of them, after
        skipping the ``skip`` seeds the run's other processes use; cut
        short only if the budget would run out or, after the first, if
        they would end past ``stop_by``."""
        for _ in range(self.cfg["skip"]):
            next(self._seeds)
        for k in range(self.cfg["warm"]):
            late = (time.perf_counter() + calls_per_seed * self.last_wall
                    > self.stop_by)
            if not self.fits(calls_per_seed) or (k and late):
                return
            yield next(self._seeds)

    def finish(self):
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.emit({"kind": "end", "rss_mb": rss})
        self.out.close()

    # -- modes -------------------------------------------------------------

    def run_measure(self):
        _run, record = self.call("cold", next(self._seeds), t_start=T0)
        self.emit(record)
        for seed in self.warm_seeds(1):
            _run, record = self.call("warm", seed)
            self.emit(record)

    def run_traced(self):
        from layers import Recorder, instrument
        from repro.obs import Tracer, get_registry

        rec = Recorder()
        dumps = []

        def traced_call(kind, seed, **extra):
            rec.reset()
            tracer = Tracer(distributed=True)
            registry = get_registry()
            before = {k: registry.value(f"replay.{k}")
                      for k in ("snapshots", "batches")}
            with instrument(rec):
                run, record = self.call(kind, seed, tracer=tracer, **extra)
            if run is not None:
                record["layers"] = rec.layer_table()
                record["counts"] = dict(rec.counts)
                record["root_s"] = rec.root_seconds()
                record["replay_wall_s"] = rec.extent("core.replay")
                record["registry"] = {
                    k: registry.value(f"replay.{k}") - v
                    for k, v in before.items()}
                record["workers"] = _worker_spans(tracer)
            dumps.append({"kind": kind, "seed": seed,
                          "spans": list(rec.spans)})
            self.emit(record)

        traced_call("cold", next(self._seeds))
        # Each warm seed runs twice, untraced then traced, so the
        # tracing overhead compares equal work.
        first = None
        for seed in self.warm_seeds(2):
            first = seed if first is None else first
            _run, record = self.call("warm", seed)
            self.emit(record)
            traced_call("traced", seed)
        probe = W.TRACE_PROBES.get(self.workload)
        if probe and first is not None and self.fits(1):
            traced_call("probe", first, **probe)
        with open(self.cfg["spans"], "w") as f:
            json.dump({"fields": ["layer", "start", "dur", "child_s",
                                  "parent", "outermost"],
                       "calls": dumps}, f)


def _worker_spans(tracer):
    """Replay-worker activity shipped home by ``run_strober``'s
    distributed tracer (parent wrappers cannot see inside a child)."""
    inits = tracer.find("worker.init")
    tasks = tracer.find("worker.task")
    return {"n": len({s.pid for s in inits} | {s.pid for s in tasks}),
            "init_max_s": max((s.dur for s in inits), default=0.0),
            "busy_s": sum(s.dur for s in tasks)}


def main():
    cfg = json.loads(sys.argv[1])
    session = Session(cfg)
    getattr(session, f"run_{cfg['mode']}")()
    session.finish()


if __name__ == "__main__":
    main()
