"""End-to-end ``run_strober`` benchmark.

    python3 e2ebench/run.py --workload dhry-lanes --seed 3 --seconds 10 --trace 0

Each measured process is a fresh interpreter with an empty artifact
cache, so its first ``run_strober`` call is the cold set-up; the calls
after it are warm.  ``--trace 0`` runs two identical processes, each a
cold call and half of the warm calls; set-up is the median of the two
cold calls.  ``--trace 1`` runs one process whose layer entry points
are wrapped (see ``layers.py``) and reports per-layer metrics.  A run
makes a fixed number of warm calls for its workload and ``--seconds``,
fewer only on a host so slow that the run would last past
``RUN_FACTOR`` x ``--seconds`` (see ``measure``).

Every call is checked: exit code 0, no replay mismatch, instret equal
to the golden ISA model's within the halt-loop skew, identical
simulated statistics for identical call seeds, and, at the default
seed, a digest equal to the golden in ``references.json``.  Accuracy
(``err_pct``, ``ci_cover``) is scored against the population
references in the same file (regenerate: ``PYTHONPATH=src python3
e2ebench/references.py``).

A process that outlives its deadline is killed with its whole process
group and its unfinished call counts as failed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a check fails and
2 when the checkout holds no program to measure.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as W  # noqa: E402

BENCHMARK = os.path.join(W.ROOT, "BENCHMARK.json")
WORK = os.path.join(W.HERE, ".work")
OUT = os.path.join(W.HERE, "out")

# Wall-clock limits (seconds).  The whole run must end within 180 s;
# its processes are killed at TOTAL_BUDGET.  On a slow host the last
# process of a run stops starting warm calls (after its first) that
# would end past RUN_FACTOR x --seconds, so a set of runs keeps to its
# time.
TOTAL_BUDGET = 170.0
RUN_FACTOR = 2.0
POLL = 0.2


# -- host -------------------------------------------------------------------

def _first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else None


def host_fingerprint():
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(W.ROOT))
    try:
        sha = subprocess.run(["git", "-C", W.ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "cc": _first_line(["cc", "--version"]),
            "python": platform.python_version(), "numpy": numpy_version,
            "git_sha": sha}


# -- child processes --------------------------------------------------------

def _descendants(pid):
    """pid -> (comm, VmHWM MiB) of every live descendant of ``pid``."""
    parents = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # comm may hold spaces; fields after the closing paren are fixed
        parents[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = {}, [pid]
    while frontier:
        parent = frontier.pop()
        for child, ppid in parents.items():
            if ppid == parent and child not in found:
                found[child] = None
                frontier.append(child)
    out = {}
    for child in found:
        try:
            with open(f"/proc/{child}/comm") as f:
                comm = f.read().strip()
            with open(f"/proc/{child}/status") as f:
                hwm = next(line for line in f if line.startswith("VmHWM"))
            out[child] = (comm, int(hwm.split()[1]) / 1024)
        except (OSError, StopIteration):
            continue
    return out


def _group_members(pgid):
    """Live (non-zombie) processes of a process group."""
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(name))
    return members


def _reap_group(proc, timeout=10.0):
    """Kill what is left of the child's process group (the child and
    any replay workers it forked) and wait until none is alive."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            break
        proc.poll()
        if not _group_members(proc.pid):
            break
        time.sleep(0.05)
    proc.wait()


def run_child(mode, workload, seed, warm, skip, budget, stop_by):
    """Run one ``session.py`` process in a fresh cache; return
    (records, info) where info has the kill flag and worker RSS."""
    os.makedirs(WORK, exist_ok=True)
    tmp = os.path.join(WORK, f"{os.getpid()}-{mode}-{time.time_ns()}")
    os.makedirs(tmp)
    results = os.path.join(tmp, "results.jsonl")
    spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    cfg = {"workload": workload, "seed": seed, "mode": mode, "warm": warm,
           "skip": skip, "budget": budget, "stop_by": stop_by,
           "results": results,
           "spans": spans}
    env = {k: v for k, v in os.environ.items() if k not in W.CLEARED_ENV}
    env.update(REPRO_CACHE_DIR=os.path.join(tmp, "cache"),
               REPRO_OBS_HISTORY=os.path.join(tmp, "history.jsonl"),
               TMPDIR=tmp, PYTHONPATH=W.SRC)
    cmd = [sys.executable, os.path.join(W.HERE, "session.py"),
           json.dumps(cfg)]
    proc = subprocess.Popen(cmd, env=env, cwd=W.ROOT,
                            start_new_session=True)
    started = time.monotonic()
    killed = False
    worker_rss = 0.0
    own_comm = None
    try:
        while True:
            try:
                proc.wait(timeout=POLL)
                break
            except subprocess.TimeoutExpired:
                pass
            if time.monotonic() - started > budget:
                killed = True
                break
            # Replay workers are forks of the session (same comm);
            # compilers and assemblers it runs are not.
            if own_comm is None:
                try:
                    with open(f"/proc/{proc.pid}/comm") as f:
                        own_comm = f.read().strip()
                except OSError:
                    pass
            for comm, hwm in _descendants(proc.pid).values():
                if comm == own_comm:
                    worker_rss = max(worker_rss, hwm)
    finally:
        _reap_group(proc)
    records = []
    try:
        with open(results) as f:
            for line in f:
                try:
                    records.append(json.loads(line))
                except ValueError:
                    break            # torn last line of a killed child
    except OSError:
        pass
    shutil.rmtree(tmp, ignore_errors=True)
    return records, {"killed": killed, "returncode": proc.returncode,
                     "worker_rss_mb": worker_rss}


class Tally:
    """Calls attempted and failed, and every failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def process(self, label, records, info):
        """Count one process's calls; return its completed call records
        and its peak RSS (MiB, or None)."""
        calls = [r for r in records if r["kind"] not in ("start", "end")]
        starts = sum(r["kind"] == "start" for r in records)
        self.attempted += max(starts, 1)
        for r in calls:
            if "error" in r:
                self.failed += 1
                self.problems.append(f"{label}: {r['error']}")
            elif r["problems"]:
                self.failed += 1
                self.problems.extend(f"{label}: seed {r['seed']}: {p}"
                                     for p in r["problems"])
        unfinished = max(starts, 1) - len(calls)
        if unfinished:
            self.failed += unfinished
            why = ("killed at its deadline" if info["killed"]
                   else f"exited with code {info['returncode']}")
            self.problems.append(f"{label}: {unfinished} call(s) did not "
                                 f"finish; the process {why}")
        end = [r for r in records if r["kind"] == "end"]
        ok = [r for r in calls if "error" not in r and not r["problems"]]
        return ok, (end[0]["rss_mb"] if end else None)


# -- checks on simulated statistics ----------------------------------------

def check_same_seed(tally, calls):
    """Calls with one seed must agree exactly on simulated statistics."""
    by_seed = {}
    for r in calls:
        by_seed.setdefault(r["seed"], []).append(r)
    for seed, group in by_seed.items():
        if any(r["stats"] != group[0]["stats"] for r in group[1:]):
            tally.problems.append(f"seed {seed}: simulated statistics "
                                  "differ between calls")


def check_golden(tally, workload, seed, cold, warm, refs):
    if seed != W.DEFAULT_SEED or cold is None or not warm:
        return None
    got = W.digest([cold["stats"], warm[0]["stats"]])
    want = refs["golden"].get(workload)
    if got != want:
        tally.problems.append(f"golden digest {got} != {want} (regenerate "
                              f"with: {refs['command']})")
    return got


def accuracy(tally, workload, warm, refs):
    """(err_pct, ci_cover) over warm calls against the population
    reference, or (None, None) when the reference does not match."""
    key = W.reference_key(workload)
    ref = refs["population"].get(W.key_id(key))
    stats = {r["seed"]: r["stats"] for r in warm}.values()
    if ref is None or any(s["cycles"] != ref["target_cycles"]
                          or s["instret"] != ref["instret"] for s in stats):
        tally.problems.append(
            "population reference key does not match this program; "
            f"err_pct and ci_cover refused (regenerate with: "
            f"{refs['command']})")
        return None, None
    pop = ref["mean_mw"]
    errs = [abs(s["mean_mw"] - pop) / pop * 100 for s in stats]
    covers = [abs(s["mean_mw"] - pop) <= s["half_width_mw"] for s in stats]
    if not errs:
        return None, None
    return statistics.median(errs), sum(covers) / len(covers)


def cycles_per_s(calls):
    """Target cycles energy-evaluated per host second: the median over
    calls, so one call slowed by the host moves it no more than run_s."""
    return statistics.median(r["stats"]["cycles"] / r["wall"]
                             for r in calls)


# -- modes -------------------------------------------------------------------

def measure(args, tally, refs, t_start):
    # Two identical processes, each a cold call and half the warm
    # calls: set-up gets two samples, and the warm calls are spread
    # over the whole run rather than bunched at its end.  The first
    # always makes all of its calls, so its peak RSS (which grows with
    # warm calls) compares equal work; only the second keeps the run
    # to RUN_FACTOR x --seconds.
    n = W.warm_calls(args.workload, args.seconds)
    split = [(n + 1) // 2, n // 2]
    procs = []
    for k, warm in enumerate(split):
        elapsed = time.monotonic() - t_start
        budget = (TOTAL_BUDGET - elapsed) / (2 - k)
        stop_by = RUN_FACTOR * args.seconds - elapsed if k else budget
        records, info = run_child("measure", args.workload, args.seed,
                                  warm, split[0] * k, budget, stop_by)
        calls, rss = tally.process(f"process {k + 1}", records, info)
        procs.append((records, info, calls, rss))
    calls = [r for proc in procs for r in proc[2]]
    cold = [r for r in calls if r["kind"] == "cold"]
    warm = [r for r in calls if r["kind"] == "warm"]
    check_same_seed(tally, calls)
    digest = check_golden(tally, args.workload, args.seed,
                          next((r for r in procs[0][2]
                                if r["kind"] == "cold"), None),
                          [r for r in procs[0][2] if r["kind"] == "warm"],
                          refs)
    err, cover = accuracy(tally, args.workload, warm, refs)
    metrics = {}
    if cold:
        metrics["setup_s"] = (statistics.median(r["wall"] for r in cold),
                              "s")
    if warm:
        walls = [r["wall"] for r in warm]
        metrics["run_s"] = (statistics.median(walls), "s")
        metrics["target_cycles_per_s"] = (cycles_per_s(warm), "cycles/s")
    if procs[0][3]:
        metrics["rss_mb"] = (procs[0][3], "MiB")
    extra = [("warm calls", len(warm), "count"),
             ("set-up samples", len(cold), "count"),
             ("err_pct", err, "%"), ("ci_cover", cover, "fraction"),
             ("error_rate", tally.failed / max(tally.attempted, 1),
              "fraction"),
             ("digest", digest, "")]
    return metrics, extra, {"calls": [r for proc in procs
                                      for r in proc[0]]}


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def layer_metrics(cold, traced, untraced, probe, worker_rss, err, cover,
                  lanes):
    """Per-layer metrics: set-up layers from the cold call, the worker
    pool's from the probe call when the workload has one, the rest as
    the median per traced warm call."""
    def self_s(record, layer):
        return record["layers"].get(layer, {}).get("self_s", 0.0)

    def incl_s(record, layer):
        return record["layers"].get(layer, {}).get("incl_s", 0.0)

    def count(record, layer):
        return record["layers"].get(layer, {}).get("count", 0)

    def per_call(fn):
        return _median([fn(r) for r in traced])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("hdl.elaborate", "sim.build", "passes.asic_flow",
                  "gatelevel.kernel_build", "parallel.cache_get",
                  "parallel.cache_put"):
        m[f"{layer}_s"] = (self_s(cold, layer), "s")
    m["parallel.cache_hit_ratio"] = (
        ratio(cold["counts"].get("cache.hits", 0),
              cold["counts"].get("cache.gets", 0)), "fraction")
    m["fame.run_s"] = (per_call(lambda r: incl_s(r, "fame.run")), "s")
    m["fame.self_s"] = (per_call(lambda r: self_s(r, "fame.run")), "s")
    m["fame.target_cycles"] = (
        per_call(lambda r: r["counts"].get("fame.target_cycles", 0)),
        "cycles")
    m["scan.capture_s"] = (per_call(lambda r: self_s(r, "scan.capture")),
                           "s")
    m["scan.captures"] = (per_call(lambda r: count(r, "scan.capture")),
                          "count")
    m["sampling.keep_ratio"] = (per_call(lambda r: ratio(
        r["stats"]["replays"], count(r, "scan.capture"))), "fraction")
    for layer in ("scan.seal", "scan.validate"):
        m[f"{layer}_s"] = (per_call(lambda r, l=layer: self_s(r, l)), "s")
    m["core.replay_s"] = (per_call(lambda r: incl_s(r, "core.replay")),
                          "s")
    for layer in ("core.load", "core.pack"):
        m[f"{layer}_s"] = (per_call(lambda r, l=layer: self_s(r, l)), "s")
    m["core.lane_fill"] = (per_call(lambda r: ratio(
        r["registry"]["snapshots"], r["registry"]["batches"] * lanes)),
        "fraction")
    m["gatelevel.kernel_s"] = (
        per_call(lambda r: self_s(r, "gatelevel.kernel")), "s")
    m["gatelevel.kernel_cycles"] = (per_call(
        lambda r: r["counts"].get("gatelevel.cycles", 0)), "cycles")
    m["gatelevel.lane_cycles_per_s"] = (per_call(lambda r: ratio(
        r["counts"].get("gatelevel.lane_cycles", 0),
        self_s(r, "gatelevel.kernel"))), "cycles/s")
    for layer in ("gatelevel.power", "core.energy", "obs.history"):
        m[f"{layer}_s"] = (per_call(lambda r, l=layer: self_s(r, l)), "s")
    pool = [probe] if probe else traced
    m["robust.worker_init_s"] = (
        _median([r["workers"]["init_max_s"] for r in pool]), "s")
    m["robust.worker_busy_ratio"] = (_median([ratio(
        r["workers"]["busy_s"], r["workers"]["n"] * r["replay_wall_s"])
        for r in pool]), "fraction")
    m["robust.worker_rss_mb"] = (worker_rss, "MiB")
    m["unattributed_s"] = (per_call(lambda r: r["wall"] - r["root_s"]),
                           "s")
    walls = {r["seed"]: r["wall"] for r in untraced}
    m["trace_overhead_pct"] = (_median(
        [(r["wall"] / walls[r["seed"]] - 1) * 100 for r in traced
         if r["seed"] in walls]), "%")
    m["err_pct"] = (err, "%")
    m["ci_cover"] = (cover, "fraction")
    return m


def layer_table(cold, traced):
    """Rows (layer, cold self s, warm self s, warm incl s, warm count)."""
    layers = []
    for record in [cold] + traced:
        for layer in record["layers"]:
            if layer not in layers:
                layers.append(layer)
    rows = []
    for layer in layers:
        def warm(key, layer=layer):
            return _median([r["layers"].get(layer, {}).get(key, 0)
                            for r in traced])
        rows.append((layer, cold["layers"].get(layer, {}).get("self_s", 0),
                     warm("self_s"), warm("incl_s"), warm("count")))
    rows.append(("unattributed", cold["wall"] - cold["root_s"],
                 _median([r["wall"] - r["root_s"] for r in traced]),
                 None, None))
    return rows


def trace(args, tally, refs, t_start):
    elapsed = time.monotonic() - t_start
    # Each warm seed runs twice (untraced, traced): half the seeds.
    pairs = max(1, W.warm_calls(args.workload, args.seconds) // 2)
    records, info = run_child("traced", args.workload, args.seed, pairs, 0,
                              TOTAL_BUDGET - elapsed,
                              RUN_FACTOR * args.seconds - elapsed)
    calls, rss = tally.process("traced process", records, info)
    check_same_seed(tally, calls)
    cold = next((r for r in calls if r["kind"] == "cold"), None)
    traced = [r for r in calls if r["kind"] == "traced"]
    untraced = [r for r in calls if r["kind"] == "warm"]
    probe = next((r for r in calls if r["kind"] == "probe"), None)
    check_golden(tally, args.workload, args.seed, cold, untraced, refs)
    extra = []
    if cold is None or not traced or not untraced:
        tally.problems.append("the traced run finished no cold call or "
                              "no traced warm call")
        return {}, extra, {"calls": records}
    if args.workload in W.TRACE_PROBES and probe is None:
        tally.problems.append("the traced run finished no probe call")
        return {}, extra, {"calls": records}
    err, cover = accuracy(tally, args.workload, untraced, refs)
    lanes = W.knobs(args.workload)[1].get("batch_lanes", 1)
    metrics = layer_metrics(cold, traced, untraced, probe,
                            info["worker_rss_mb"], err, cover, lanes)
    walls = [r["wall"] for r in untraced]
    extra = [("untraced run_s", statistics.median(walls), "s"),
             ("untraced target_cycles_per_s", cycles_per_s(untraced),
              "cycles/s"),
             ("traced cold call", cold["wall"], "s"),
             ("rss_mb", rss, "MiB"),
             ("traced warm calls", len(traced), "count"),
             ("error_rate", tally.failed / max(tally.attempted, 1),
              "fraction")]
    return metrics, extra, {"calls": records,
                            "layer_table": layer_table(cold, traced)}


# -- output ------------------------------------------------------------------

def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(args, fingerprint, metrics, extra, detail):
    print(f"e2ebench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in fingerprint.items()))
    print(f"{'metric':<34s} {'value':>14s}  unit")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34s} {_fmt(value):>14s}  {unit}")
    for name, value, unit in extra:
        print(f"{'(' + name + ')':<34s} {_fmt(value):>14s}  {unit}")
    rows = detail.get("layer_table")
    if rows:
        print(f"\n{'layer self time':<24s} {'cold s':>10s} "
              f"{'warm self s':>12s} {'warm incl s':>12s} {'count':>8s}")
        for layer, cold_s, warm_s, incl, n in rows:
            print(f"{layer:<24s} {_fmt(cold_s):>10s} {_fmt(warm_s):>12s} "
                  f"{_fmt(incl):>12s} {_fmt(n):>8s}")


def expected_metrics(trace_on):
    with open(BENCHMARK) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace_on
                                    else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.monotonic()

    missing = [p for p in (os.path.join(W.SRC, "repro", "__init__.py"),
                           W.REFERENCES, BENCHMARK)
               if not os.path.exists(p)]
    if missing:
        print(f"e2ebench: not a complete checkout, missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, W.SRC)
    refs = W.load_references()
    wanted = expected_metrics(args.trace)
    os.makedirs(OUT, exist_ok=True)
    fingerprint = host_fingerprint()
    tally = Tally()
    mode = trace if args.trace else measure
    metrics, extra, detail = mode(args, tally, refs, t_start)
    missing = [name for name in wanted if name not in metrics
               or metrics[name][0] is None
               or not math.isfinite(metrics[name][0])]
    if missing:
        tally.problems.append(f"metrics not measured: {missing}")
    metrics = {name: metrics[name] for name in wanted if name in metrics
               and name not in missing}
    report(args, fingerprint, metrics, extra, detail)
    correct = tally.failed == 0 and not tally.problems
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")
    result_path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as f:
        json.dump({"args": vars(args), "host": fingerprint,
                   "metrics": metrics, "extra": extra,
                   "problems": tally.problems, **detail}, f, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
