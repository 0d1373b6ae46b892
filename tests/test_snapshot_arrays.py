"""Array-native snapshots: bulk memory capture, the byte-level checksum,
the v1/v2/v3 pickle rules, the compiled load map, array stimulus
packing and the per-call stimulus cache (repro.sim, repro.scan.snapshot,
repro.gatelevel.formal, repro.core.replay)."""

import copy
import pickle
import random
import shutil
import subprocess
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import run_strober, clear_caches
from repro.gatelevel import (
    BatchedGateLevelSimulator, MatchError, MatchPoint, NameMap,
    pack_lane_words,
)
from repro.hdl import Module, elaborate, circuit_fingerprint
from repro.parallel import get_cache
from repro.robust import RunJournal, read_journal, TYPE_SNAPSHOT, \
    TYPE_RESULT, flip_snapshot_bit
from repro.scan.snapshot import (
    PICKLE_VERSION, ReplayableSnapshot, SnapshotError,
)
from repro.sim import RTLSimulator, SimState, make_simulator
from repro.sim import cbackend

HAVE_CC = shutil.which("gcc") or shutil.which("cc")

RUN_KW = dict(design="rocket_mini", workload="towers", sample_size=6,
              replay_length=32, backend="auto", seed=3)


class MemDesign(Module):
    """A register and a memory written every cycle."""

    def build(self):
        d = self.input("d", 16)
        ptr = self.reg("ptr", 5)
        ptr <<= ptr + 1
        mem = self.mem("buf", 32, 16)
        self.mem_write(mem, ptr, d)
        self.output("q", 16, mem.read(ptr))


@pytest.fixture(scope="module")
def towers_run():
    return run_strober(**RUN_KW)


def _result_key(result):
    return (result.snapshot_cycle, result.cycles, result.mismatches,
            result.load_commands, result.power.total_w)


def _energy_key(energy):
    return (energy.power.mean, energy.power.half_width,
            energy.total_cycles, energy.instructions)


# -- capture ------------------------------------------------------------------


class TestBulkCapture:
    @pytest.mark.parametrize("backend", [
        "python",
        pytest.param("c", marks=pytest.mark.skipif(
            not HAVE_CC, reason="no C compiler"))])
    def test_memories_are_flat_uint64_arrays(self, backend):
        sim = RTLSimulator(elaborate(MemDesign()), backend=backend)
        for i in range(40):
            sim.poke("d", 1000 + i)
            sim.step()
        snap = sim.snapshot()
        words = snap.mems["buf"]
        assert isinstance(words, np.ndarray)
        assert words.dtype == np.uint64 and words.shape == (32,)
        assert sorted(words.tolist()) == sorted(
            [1000 + i for i in range(8, 40)])
        # a capture is a copy, not a view of live simulator state
        sim.poke("d", 7)
        sim.step()
        assert 7 not in words.tolist()

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
    def test_load_snapshot_moves_whole_memories(self):
        circuit = elaborate(MemDesign())
        py = RTLSimulator(circuit, backend="python")
        for i in range(20):
            py.poke("d", 3 * i)
            py.step()
        snap = py.snapshot()
        cc = RTLSimulator(circuit, backend="c")
        cc.load_snapshot(snap)
        assert np.array_equal(cc.snapshot().mems["buf"],
                              snap.mems["buf"])
        # the Python evaluator keeps Python ints after an array load
        py2 = RTLSimulator(circuit, backend="python")
        py2.load_snapshot(snap)
        assert all(type(v) is int for v in py2._mems[0])
        cc.reset(clear_mems=True)
        assert not cc.snapshot().mems["buf"].any()

    def test_list_memories_become_arrays(self):
        state = SimState({"r": 1}, {"m": [1, 2, 3]}, cycle=4)
        assert state.mems["m"].dtype == np.uint64
        legacy = object.__new__(SimState)
        legacy.__setstate__(({"r": 1}, {"m": [5, 6]}, 2))
        assert legacy.mems["m"].tolist() == [5, 6]
        clone = state.copy()
        clone.mems["m"][0] = 9
        assert state.mems["m"][0] == 1


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
class TestEvaluatorCacheAbi:
    """A cached evaluator from an older code generator must never push
    ``make_simulator`` onto the slow Python backend."""

    @staticmethod
    def _stale_entry(circuit, tmp_path):
        source, layout = cbackend.generate_c_source(circuit)
        start = source.index("void mem_read(")
        source = source[:start]       # mem_read and mem_write gone
        c_path, so_path = tmp_path / "old.c", tmp_path / "old.so"
        c_path.write_text(source)
        subprocess.run([HAVE_CC, "-O0", "-fPIC", "-shared", "-o",
                        str(so_path), str(c_path)], check=True)
        return {"source": source, "so": so_path.read_bytes(),
                "layout": {k: v for k, v in layout.items()
                           if k != "source"}}

    @pytest.mark.parametrize("keyed", ["fingerprint", "current-abi"])
    def test_stale_entry_is_not_used(self, tmp_path, monkeypatch, keyed):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
        circuit = elaborate(MemDesign())
        key = circuit_fingerprint(circuit)
        if keyed == "current-abi":
            key = f"{key}-abi{cbackend.CSIM_ABI}"
        get_cache().put("csim", key, self._stale_entry(circuit, tmp_path))
        sim = make_simulator(circuit, backend="auto")
        assert sim.backend == "c"
        sim.poke("d", 11)
        sim.step()
        assert sim.snapshot().mems["buf"].dtype == np.uint64


# -- checksum and wire format -------------------------------------------------


def _legacy_crc(cycle, replay_length, regs, list_mems, ins, outs):
    """The checksum snapshots were sealed with before the v3 format."""
    h = zlib.crc32(repr((cycle, replay_length)).encode())
    h = zlib.crc32(repr(sorted(regs.items())).encode(), h)
    h = zlib.crc32(repr(sorted(list_mems.items())).encode(), h)
    h = zlib.crc32(repr([sorted(d.items()) for d in ins]).encode(), h)
    return zlib.crc32(repr([sorted(d.items()) for d in outs]).encode(), h)


class _LegacyState:
    """Pickles exactly like a SimState written before array memories."""

    def __init__(self, state):
        self.args = (dict(state.regs),
                     {k: v.tolist() for k, v in state.mems.items()},
                     state.cycle)

    def __reduce__(self):
        return object.__new__, (SimState,), self.args


class _V2Snapshot:
    """Pickles exactly like a ``v2`` ReplayableSnapshot."""

    def __init__(self, snap, flip=None):
        state = _LegacyState(snap.state)
        regs, mems, _cycle = state.args
        ins = copy.deepcopy(snap.input_trace)
        outs = copy.deepcopy(snap.output_trace)
        crc = _legacy_crc(snap.cycle, snap.replay_length, regs, mems,
                          ins, outs)
        if flip is not None:          # corrupt after sealing
            flip(regs, mems)
        self.args = ("v2", snap.cycle, state, snap.replay_length, ins,
                     outs, dict(snap.perf_counters), crc)

    def __reduce__(self):
        return object.__new__, (ReplayableSnapshot,), self.args


def _v2_clone(snap, flip=None):
    return pickle.loads(pickle.dumps(_V2Snapshot(snap, flip)))


class TestWireFormat:
    def test_current_pickles_are_v3_with_arrays(self, towers_run):
        snap = towers_run.snapshots[0]
        assert PICKLE_VERSION == "v3"
        assert snap.__getstate__()[0] == "v3"
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.checksum == snap.checksum
        assert all(isinstance(v, np.ndarray)
                   for v in clone.state.mems.values())
        clone.validate()

    def test_v2_snapshot_loads_validates_and_replays(self, towers_run):
        engine = towers_run.engine
        snaps = towers_run.snapshots[:4]
        clones = [_v2_clone(s) for s in snaps]
        for clone, snap in zip(clones, snaps):
            assert clone.validate()
            assert clone.checksum == snap.checksum     # resealed as v3
            assert all(v.dtype == np.uint64
                       for v in clone.state.mems.values())
        assert _result_key(engine.replay(clones[0])) == \
            _result_key(engine.replay(snaps[0]))
        assert [_result_key(r) for r in engine.replay_batch(clones)] == \
            [_result_key(r) for r in engine.replay_batch(snaps)]

    @pytest.mark.parametrize("where", ["reg", "mem"])
    def test_v2_bit_flip_is_detected(self, towers_run, where):
        def flip(regs, mems):
            if where == "reg":
                regs[sorted(regs)[0]] ^= 1
            else:
                mems[sorted(mems)[0]][3] ^= 1 << 5

        clone = _v2_clone(towers_run.snapshots[0], flip)
        with pytest.raises(SnapshotError, match="integrity"):
            clone.validate()
        # re-pickling does not launder the failure
        with pytest.raises(SnapshotError, match="integrity"):
            pickle.loads(pickle.dumps(clone)).validate()

    def test_v2_journal_still_resumes(self, towers_run, tmp_path):
        jpath = str(tmp_path / "run.journal")
        first = run_strober(**RUN_KW, journal=jpath)
        # rewrite the snapshots as v2 records and drop the results, so
        # the resume replays every v2 snapshot
        records = read_journal(jpath)
        with RunJournal(jpath) as journal:
            journal.reset()
            for rtype, obj in records:
                if rtype == TYPE_RESULT:
                    continue
                if rtype == TYPE_SNAPSHOT:
                    obj = {"index": obj["index"],
                           "snapshot": _V2Snapshot(obj["snapshot"])}
                journal.append(rtype, obj)
        resumed = run_strober(**RUN_KW, journal=jpath)
        assert resumed.timings["resumed_sim"]
        assert resumed.timings["resumed_replays"] == 0
        assert [_result_key(r) for r in resumed.replays] == \
            [_result_key(r) for r in first.replays]
        assert _energy_key(resumed.energy) == _energy_key(first.energy)


_TARGETS = ("cycle", "reg", "mem", "input", "output")


def _flip(snap, target, data):
    """Flip one random bit of one field of ``snap`` in place."""
    bit = data.draw(st.integers(0, 62), label="bit")
    if target == "cycle":
        snap.cycle ^= 1 << bit
    elif target == "reg":
        path = data.draw(st.sampled_from(sorted(snap.state.regs)))
        snap.state.regs[path] ^= 1 << bit
    elif target == "mem":
        path = data.draw(st.sampled_from(sorted(snap.state.mems)))
        words = snap.state.mems[path]
        addr = data.draw(st.integers(0, len(words) - 1), label="addr")
        words[addr] ^= np.uint64(1 << bit)
    else:
        trace = snap.input_trace if target == "input" else \
            snap.output_trace
        t = data.draw(st.integers(0, len(trace) - 1), label="cycle")
        name = data.draw(st.sampled_from(sorted(trace[t])))
        trace[t][name] ^= 1 << bit


class TestChecksumProperty:
    @settings(max_examples=60, deadline=None)
    @given(target=st.sampled_from(_TARGETS), data=st.data())
    def test_any_single_bit_flip_fails_validation(self, towers_run,
                                                  target, data):
        snap = copy.deepcopy(towers_run.snapshots[0])
        assert snap.validate()
        _flip(snap, target, data)
        with pytest.raises(SnapshotError, match="integrity"):
            snap.validate()

    def test_fault_injector_flips_a_memory_word(self, towers_run):
        bad = copy.deepcopy(towers_run.snapshots[1])
        detail = flip_snapshot_bit(bad, where="mem")
        assert "memory" in detail
        with pytest.raises(SnapshotError, match="integrity"):
            bad.validate()

    def test_checksum_ignores_dict_insertion_order(self, towers_run):
        snap = copy.deepcopy(towers_run.snapshots[0])
        crc = snap.checksum
        snap.state.regs = dict(reversed(list(snap.state.regs.items())))
        snap.output_trace = [dict(reversed(list(d.items())))
                             for d in snap.output_trace]
        assert snap.seal() == crc


# -- compiled load map --------------------------------------------------------


def _reference_commands(points, regs):
    """The per-bit loop NameMap.load_commands used to run."""
    commands = {}
    for point in points:
        value = (regs[point.reg_path] >> point.bit) & 1
        if point.kind in ("dff", "merged"):
            if commands.get(point.dff_name, value) != value:
                raise MatchError("merged")
            commands[point.dff_name] = value
        elif point.kind == "const" and value != point.const_value:
            raise MatchError("const")
    return commands


class TestLoadMap:
    POINTS = [MatchPoint("a", 0, "dff", dff_name="D0"),
              MatchPoint("a", 1, "merged", dff_name="D1"),
              MatchPoint("b", 3, "merged", dff_name="D1"),
              MatchPoint("c", 0, "const", const_value=1),
              MatchPoint("c", 1, "retimed"),
              MatchPoint("b", 63, "dff", dff_name="D2")]

    def _lanes(self, rng, n):
        lanes = []
        for _ in range(n):
            bit = rng.getrandbits(1)
            lanes.append({"a": rng.getrandbits(8) & ~2 | bit << 1,
                          "b": rng.getrandbits(64) & ~8 | bit << 3,
                          "c": rng.getrandbits(4) | 1})
        return lanes

    def test_lane_words_match_per_lane_commands(self):
        load_map = NameMap(points=self.POINTS).compile()
        rng = random.Random(5)
        lanes = self._lanes(rng, 37)
        words = load_map.lane_words(lanes)
        assert load_map.dff_names == ["D0", "D1", "D2"]
        for lane, regs in enumerate(lanes):
            expected = _reference_commands(self.POINTS, regs)
            got = {name: (int(w) >> lane) & 1
                   for name, w in zip(load_map.dff_names, words)}
            assert got == expected
        assert NameMap(points=self.POINTS).load_commands(lanes[0]) == \
            _reference_commands(self.POINTS, lanes[0])

    def test_const_mismatch_in_any_lane_raises(self):
        load_map = NameMap(points=self.POINTS).compile()
        lanes = self._lanes(random.Random(6), 10)
        lanes[7]["c"] &= ~1
        with pytest.raises(MatchError, match="constant register c\\[0\\]"):
            load_map.lane_words(lanes)

    def test_merged_conflict_in_any_lane_raises(self):
        load_map = NameMap(points=self.POINTS).compile()
        lanes = self._lanes(random.Random(7), 10)
        lanes[4]["b"] ^= 8
        with pytest.raises(MatchError, match="merged DFF D1"):
            load_map.lane_words(lanes)

    def test_batched_load_equals_per_lane_loads(self, towers_run):
        engine = towers_run.engine
        snaps = towers_run.snapshots[:5]
        netlist = engine.flow.netlist
        name_map = engine.flow.name_map
        packed = BatchedGateLevelSimulator(netlist, lanes=5)
        counts = packed.load_dffs_lanes(name_map.compile(netlist),
                                        [s.state.regs for s in snaps])
        per_lane = BatchedGateLevelSimulator(netlist, lanes=5)
        for lane, snap in enumerate(snaps):
            commands = name_map.load_commands(snap.state.regs)
            per_lane.load_dffs(commands, lane=lane)
            assert counts[lane] == len(commands)
        assert np.array_equal(packed._values, per_lane._values)


# -- stimulus packing ---------------------------------------------------------


def _reference_main_stimulus(engine, snapshots):
    """The per-(cycle, port) packing loop the array packer replaced."""
    netlist = engine.flow.netlist
    n = len(snapshots)
    out = []
    for t in range(len(snapshots[0].input_trace)):
        for port in engine._port_names:
            mask, values = 0, [0] * n
            for lane, snap in enumerate(snapshots):
                if port in snap.input_trace[t]:
                    mask |= 1 << lane
                    values[lane] = snap.input_trace[t][port]
            if mask:
                nets = netlist.inputs[port]
                out.append(("poke", t, port, mask,
                            pack_lane_words(values, len(nets)).tolist()))
        expected = {}
        for lane, snap in enumerate(snapshots):
            for name, value in snap.output_trace[t].items():
                entry = expected.setdefault(name, [0, [0] * n])
                entry[0] |= 1 << lane
                entry[1][lane] = value
        for name, (mask, values) in expected.items():
            nets = netlist.outputs[name]
            out.append(("check", t, name, mask,
                        pack_lane_words(values, len(nets)).tolist()))
    return out


def _packed_ops(engine, stim):
    ports = {}
    for name, nets in engine.flow.netlist.inputs.items():
        ports[tuple(nets)] = name
    out = []
    for t in range(stim.n_cycles):
        for nets, mask, words in stim.pokes[t]:
            out.append(("poke", t, ports[tuple(nets.tolist())], int(mask),
                        words.tolist()))
        for name, nets, mask, words in stim.checks[t]:
            out.append(("check", t, name, int(mask), words.tolist()))
    return out


class TestArrayStimulusPacking:
    def test_matches_the_per_cycle_packer(self, towers_run):
        engine = towers_run.engine
        snaps = copy.deepcopy(towers_run.snapshots)
        stim = engine._pack_main_stimulus(snaps)
        assert _packed_ops(engine, stim) == \
            _reference_main_stimulus(engine, snaps)

    def test_ports_missing_in_some_cycles_and_lanes(self, towers_run):
        engine = towers_run.engine
        snaps = copy.deepcopy(towers_run.snapshots)
        rng = random.Random(11)
        for snap in snaps:
            for trace in (snap.input_trace, snap.output_trace):
                for d in trace:
                    for name in list(d):
                        if rng.random() < 0.2:
                            del d[name]
        snaps[2].input_trace[5] = {}
        stim = engine._pack_main_stimulus(snaps)
        got = sorted(_packed_ops(engine, stim))
        assert got == sorted(_reference_main_stimulus(engine, snaps))


# -- stimulus cache scope -----------------------------------------------------


class TestStimulusCacheScope:
    def test_run_strober_leaves_no_cached_stimulus(self):
        clear_caches()
        run = run_strober(**RUN_KW, batch_lanes=4)
        assert run.engine._stim_cache == {}
