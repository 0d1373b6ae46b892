"""The benchmark's workloads and the checks every call must pass.

Shared by the driver (``run.py``), the measured child process
(``session.py``) and the reference generator (``references.py``).
Importing this module does not import ``repro``.
"""

import hashlib
import json
import math
import os
import random
import zlib

DESIGN = "rocket_mini"
DEFAULT_SEED = 0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references.json")

# name -> (program, run_strober knobs).  Program inputs stay at their
# defaults so the population references hold for any --seed; only the
# per-call ``seed=`` (the snapshot sampler) varies.
WORKLOADS = {
    # What a caller who sets no knobs waits for: n=30 of 64 intervals,
    # L=128, scalar interpreted gate-level replay.
    "dhry-default": ("dhrystone", {}),
    # The fast path with many short snapshots: capture/seal/pack bound.
    "dhry-lanes": ("dhrystone", {
        "workload_kwargs": {"iterations": 160}, "sample_size": 120,
        "replay_length": 64, "batch_lanes": 64, "gl_backend": "auto"}),
}

# Extra knobs of one more traced call after a workload's traced warm
# calls, for layers the workload itself does not reach: the replay
# worker pool (``parallel.pool`` / ``robust.supervisor``) is measured
# on the default call with two workers.  Its call reuses the first warm
# seed, so its simulated statistics must equal that call's.
TRACE_PROBES = {"dhry-default": {"workers": 2}}

# Seconds one warm call took when the benchmark was defined (2-CPU
# Xeon host).  A run makes ceil(--seconds / this) warm calls: the
# amount of work per run is fixed, so a faster program shortens the
# run instead of adding calls, and memory metrics compare equal work.
NOMINAL_CALL_S = {"dhry-default": 8.0, "dhry-lanes": 1.3}


def warm_calls(workload, seconds):
    return max(1, math.ceil(seconds / NOMINAL_CALL_S[workload]))


# Environment knobs that would change what "default" means.
CLEARED_ENV = ("REPRO_GL_BACKEND", "REPRO_GL_OVERLAP", "REPRO_GL_CFLAGS",
               "REPRO_START_METHOD", "REPRO_REPLAY_TIMEOUT",
               "REPRO_CACHE_DISABLE", "REPRO_GL_CC")

# Halt-loop skew between the SoC's instret and the golden model's.
INSTRET_SKEW = 4


def call_seeds(seed, n):
    """The ``run_strober(seed=)`` of each call of a run, from --seed."""
    rng = random.Random(f"e2ebench-{seed}")
    return [rng.randrange(1 << 31) for _ in range(n)]


def knobs(workload):
    """(program, kwargs) for ``run_strober(DESIGN, program, **kwargs)``."""
    program, kwargs = WORKLOADS[workload]
    return program, dict(kwargs)


def reference_key(workload):
    """Identity of the interval population a workload samples from.

    Workloads that differ only in execution strategy (lanes, backend,
    workers) share one key and therefore one reference.
    """
    from repro.isa.programs import ALL_PROGRAMS
    program, kwargs = knobs(workload)
    wkw = kwargs.get("workload_kwargs") or {}
    source = ALL_PROGRAMS[program](**wkw)
    return {"design": DESIGN, "program": program, "workload_kwargs": wkw,
            "replay_length": kwargs.get("replay_length", 128),
            "source_crc32": zlib.crc32(source.encode())}


def key_id(key):
    return json.dumps(key, sort_keys=True)


def golden_instret(program, workload_kwargs):
    from repro.isa import assemble, GoldenModel
    from repro.isa.programs import ALL_PROGRAMS
    model = GoldenModel(assemble(ALL_PROGRAMS[program](**workload_kwargs)))
    model.run()
    return model.instret


def call_stats(run):
    """The simulated statistics of one call (JSON-safe)."""
    power = run.energy.power
    return {"cycles": run.cycles, "instret": run.result.instret,
            "exit_code": run.result.exit_code,
            "mismatches": sum(r.mismatches for r in run.replays),
            "replays": len(run.replays),
            "mean_mw": power.mean, "half_width_mw": power.half_width}


def check_call(stats, golden_instret_value):
    """Problems with one call's outputs (empty when correct)."""
    problems = []
    if stats["exit_code"] != 0:
        problems.append(f"program exit code {stats['exit_code']}")
    if stats["mismatches"]:
        problems.append(f"{stats['mismatches']} replay mismatches")
    if abs(stats["instret"] - golden_instret_value) > INSTRET_SKEW:
        problems.append(f"instret {stats['instret']} vs golden model "
                        f"{golden_instret_value}")
    if stats["replays"] < 1:
        problems.append("no snapshot was replayed")
    return problems


def digest(stats_list):
    """repr digest over cycles, instret and each call's mean power and
    half-width (the first cold call and the first warm call)."""
    text = repr([(s["cycles"], s["instret"], s["mean_mw"],
                  s["half_width_mw"]) for s in stats_list])
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)
