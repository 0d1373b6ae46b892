"""Regenerate ``references.json``: population references and goldens.

    PYTHONPATH=src python3 e2ebench/references.py

Population: for each (design, program, replay_length) the workloads
use, one ``run_strober`` call replays every complete interval
(``sample_size`` far above the interval count, ``batch_lanes=64``), and
the mean of their power is the population mean that ``err_pct`` and
``ci_cover`` are scored against.  Golden: the simulated-statistics
digest of each workload's cold and first warm call at the default
seed.  Run it only when a change is meant to alter simulated results.
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402

COMMAND = "PYTHONPATH=src python3 e2ebench/references.py"


def population(workload):
    from repro.core import run_strober
    key = W.reference_key(workload)
    max_cycles = 2_000_000
    run = run_strober(W.DESIGN, key["program"],
                      workload_kwargs=key["workload_kwargs"] or None,
                      replay_length=key["replay_length"],
                      sample_size=max_cycles // key["replay_length"],
                      max_cycles=max_cycles, batch_lanes=64,
                      gl_backend="auto")
    stats = W.call_stats(run)
    problems = W.check_call(stats, W.golden_instret(
        key["program"], key["workload_kwargs"]))
    if problems:
        raise SystemExit(f"{workload}: {problems}")
    totals = [r.power.total_mw for r in run.replays]
    return {"key": key, "target_cycles": run.cycles,
            "instret": run.result.instret, "intervals": len(totals),
            "mean_mw": math.fsum(totals) / len(totals)}


def golden(workload):
    from repro.core import run_strober
    program, kwargs = W.knobs(workload)
    stats = [W.call_stats(run_strober(W.DESIGN, program, seed=seed,
                                      **kwargs))
             for seed in W.call_seeds(W.DEFAULT_SEED, 2)]
    return W.digest(stats)


def main():
    refs = {"command": COMMAND, "population": {}, "golden": {}}
    for workload in W.WORKLOADS:
        key = W.key_id(W.reference_key(workload))
        if key not in refs["population"]:
            refs["population"][key] = population(workload)
            print(f"population {workload}: {refs['population'][key]}")
        refs["golden"][workload] = golden(workload)
        print(f"golden {workload}: {refs['golden'][workload]}")
    with open(W.REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
