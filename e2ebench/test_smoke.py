"""Smoke test of the end-to-end benchmark (about two and a half minutes).

    python3 -m pytest -q e2ebench/test_smoke.py

Runs every workload once per trace mode at its shortest length, checks
that the emitted metric names are exactly those in ``BENCHMARK.json``,
that the traced-run wrappers leave every patched attribute as they
found it, and that the benchmark refuses to run without the program.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"),
         "--workload", workload, "--seed", str(workloads.DEFAULT_SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == \
        sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_run_emits_the_declared_metrics(workload, trace):
    out = _bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for spec in declared:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_wrappers_restore_every_attribute():
    before = layers.current_attributes()
    rec = layers.Recorder()
    with pytest.raises(RuntimeError):
        with layers.instrument(rec):
            during = layers.current_attributes()
            assert all(during[k] is not before[k] for k in before)
            raise RuntimeError("body failed")
    after = layers.current_attributes()
    assert all(after[k] is before[k] for k in before)


def test_self_time_excludes_children():
    rec = layers.Recorder()
    outer = rec.open("a")
    inner = rec.open("a")
    rec.close(inner)
    other = rec.open("b")
    rec.close(other)
    rec.close(outer)
    table = rec.layer_table()
    assert table["a"]["count"] == 2
    assert table["a"]["incl_s"] == pytest.approx(outer[layers.DUR])
    assert (table["a"]["self_s"] + table["b"]["self_s"]
            == pytest.approx(outer[layers.DUR]))
    assert rec.root_seconds() == pytest.approx(outer[layers.DUR])


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns(".work", "out",
                                                  "__pycache__"))
    out = _bench(tmp_path, "dhry-lanes", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
