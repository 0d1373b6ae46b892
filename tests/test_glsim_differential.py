"""Differential test of the native replay kernel against the numpy
interpreter on hypothesis-generated netlists.

Each generated netlist mixes every cell kind, constant inputs, SRAM
macros with read and write ports whose addresses can fall outside the
macro's depth, DFF feedback, and a force group.  One packed stimulus
(pokes, per-cycle force segments, output checks with injected
mismatches) runs through ``run_cycles`` on the ``c`` kernel and on the
interpreter at 1, 37 and 64 lanes; everything observable must agree
bit for bit: net values, toggle planes, SRAM stores and access
counters, per-lane mismatches, and the strict stop ``(cycle, check,
lane)``.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.gatelevel import (
    BatchedGateLevelSimulator, CONST0, CONST1, GateNetlist,
    PackedStimulus, SramMacro, StimulusMismatch, build_kernel,
    build_schedule, glcodegen,
)

try:
    glcodegen._find_compiler()
    HAVE_CC = True
except glcodegen.GLCodegenUnavailable:
    HAVE_CC = False

pytestmark = pytest.mark.skipif(not HAVE_CC, reason="no C compiler")

ARITY = {"INV": 1, "BUF": 1, "AND2": 2, "OR2": 2, "XOR2": 2,
         "XNOR2": 2, "NAND2": 2, "NOR2": 2, "MUX2": 3}
CELLS = sorted(ARITY)


@st.composite
def netlists(draw):
    """A random levelizable netlist (nets are created in topological
    order, which is what the levelizer assumes)."""
    nl = GateNetlist("differential")
    ints = st.integers
    nl.inputs["in"] = nl.new_nets(draw(ints(1, 6)))
    for i in range(draw(ints(0, 6))):
        nl.add_dff(CONST0, draw(ints(0, 1)), f"r{i}")
    pool = [CONST0, CONST1, *nl.inputs["in"], *(d.q for d in nl.dffs)]
    comb = []                      # gate outputs and read data nets

    def pick():
        return pool[draw(ints(0, len(pool) - 1))]

    def addr_bits(macro):
        # one spare bit sometimes, so addresses can exceed the depth
        return max(1, (macro.depth - 1).bit_length()) + draw(ints(0, 1))

    for m in range(draw(ints(0, 2))):
        nl.srams.append(SramMacro(f"m{m}", draw(ints(1, 6)),
                                  draw(ints(1, 8))))
    for _ in range(draw(ints(1, 40))):
        if nl.srams and draw(ints(0, 4)) == 0:
            macro = nl.srams[draw(ints(0, len(nl.srams) - 1))]
            addr = [pick() for _ in range(addr_bits(macro))]
            data = nl.new_nets(macro.width)
            macro.read_ports.append((addr, data))
            new = data
        else:
            cell = draw(st.sampled_from(CELLS))
            new = [nl.add_gate(cell, [pick() for _ in range(ARITY[cell])])]
        pool.extend(new)
        comb.extend(new)
    for dff in nl.dffs:
        dff.d = pick()
    for macro in nl.srams:
        for _ in range(draw(ints(0, 2))):
            macro.write_ports.append(
                (pick(), [pick() for _ in range(addr_bits(macro))],
                 [pick() for _ in range(macro.width)]))
    nl.outputs["out"] = comb[:draw(ints(1, 8))]
    nl.preserved_nets["f"] = comb[-draw(ints(1, 4)):]
    return nl


def _lane_mask(lanes):
    return (1 << lanes) - 1


def _fresh(netlist, schedule, lanes, kernel, rng):
    """A simulator with a random (but seeded, so repeatable) register
    and memory state."""
    sim = BatchedGateLevelSimulator(netlist, lanes=lanes,
                                    schedule=schedule, kernel=kernel)
    mask = _lane_mask(lanes)
    for dff in netlist.dffs:
        sim._values[dff.q] = np.uint64(rng.getrandbits(64) & mask)
    for macro in netlist.srams:
        for lane in range(lanes):
            sim.load_sram(macro.name,
                          [rng.getrandbits(macro.width)
                           for _ in range(macro.depth)], lane=lane)
    sim.clear_activity()
    return sim


def _cycle_stimulus(netlist, lanes, cycles, rng):
    """Per cycle: ``(pokes, forces)`` with random lane masks."""
    mask = _lane_mask(lanes)
    ins = np.array(netlist.inputs["in"], dtype=np.int64)
    forced = np.array(netlist.preserved_nets["f"], dtype=np.int64)
    use_forces = rng.random() < 0.7
    plan = []
    for _t in range(cycles):
        pokes = []
        for _ in range(rng.randrange(3)):
            nets = ins[rng.sample(range(len(ins)),
                                  rng.randrange(1, len(ins) + 1))]
            words = np.array([rng.getrandbits(64) for _ in nets],
                             dtype=np.uint64)
            pokes.append((nets, rng.getrandbits(64) & mask, words))
        forces = None
        if use_forces and rng.random() < 0.5:
            masks = np.array([rng.getrandbits(64) & mask for _ in forced],
                             dtype=np.uint64)
            vals = np.array([rng.getrandbits(64) for _ in forced],
                            dtype=np.uint64) & masks
            forces = (forced, masks, vals)
        plan.append((pokes, forces))
    return plan, use_forces


def _stimulus(plan, use_forces, checks=None):
    stim = PackedStimulus(len(plan))
    for t, (pokes, forces) in enumerate(plan):
        for nets, mask, words in pokes:
            stim.add_poke(t, nets, mask, words)
        if use_forces:
            stim.set_forces(t, *(forces or (np.zeros(0, np.int64),
                                            np.zeros(0, np.uint64),
                                            np.zeros(0, np.uint64))))
        for name, nets, mask, words in (checks or {}).get(t, ()):
            stim.add_check(t, name, nets, mask, words)
    return stim


def _expected_checks(netlist, schedule, lanes, plan, use_forces, seed,
                     rng):
    """Checks on combinational nets whose expected words are what the
    interpreter settles to, with a few lanes flipped to mismatch.

    Each cycle runs alone: combinational nets keep their settled
    values through the commit, so they can be read after the call.
    """
    ref = _fresh(netlist, schedule, lanes, None, random.Random(seed))
    watched = np.array(sorted(set(netlist.outputs["out"])),
                       dtype=np.int64)
    mask = _lane_mask(lanes)
    checks = {}
    for t, step in enumerate(plan):
        ref.run_cycles(stim=_stimulus([step], use_forces))
        words = ref._values[watched].copy()
        if rng.random() < 0.3:
            words[rng.randrange(len(words))] ^= np.uint64(
                1 << rng.randrange(lanes))
        checks[t] = [(f"out@{t}", watched, rng.getrandbits(64) & mask,
                      words)]
    return checks


def _assert_same(a, b):
    assert np.array_equal(a._values, b._values)
    assert np.array_equal(a._prev, b._prev)
    assert a._plane_count == b._plane_count
    assert np.array_equal(a._toggle_arena[:a._plane_count],
                          b._toggle_arena[:b._plane_count])
    assert np.array_equal(a.sram_reads, b.sram_reads)
    assert np.array_equal(a.sram_writes, b.sram_writes)
    for sa, sb in zip(a._sram_data, b._sram_data):
        assert np.array_equal(sa, sb)
    for pa, pb in zip(a._last_addrs, b._last_addrs):
        for la, lb in zip(pa, pb):
            assert np.array_equal(la, lb)
    assert a.cycles == b.cycles


@pytest.mark.parametrize("lanes", [1, 37, 64])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(netlist=netlists(), seed=st.integers(0, 2**32 - 1),
       cycles=st.integers(1, 12))
def test_c_kernel_matches_interpreter(lanes, netlist, seed, cycles):
    schedule = build_schedule(netlist)
    kernel = build_kernel(netlist, schedule, "c")
    assert kernel is not None
    rng = random.Random(seed)
    plan, use_forces = _cycle_stimulus(netlist, lanes, cycles, rng)
    checks = _expected_checks(netlist, schedule, lanes, plan, use_forces,
                              seed, rng)
    stim = _stimulus(plan, use_forces, checks)

    # non-strict: the whole trace, counting mismatching lanes
    sims = [_fresh(netlist, schedule, lanes, k, random.Random(seed))
            for k in (None, kernel)]
    counts = [sim.run_cycles(stim=stim) for sim in sims]
    assert counts[0].tolist() == counts[1].tolist()
    _assert_same(*sims)

    # ambient forces through the kernel's eval and stepping paths
    value = rng.getrandbits(len(netlist.preserved_nets["f"]))
    lane = rng.randrange(lanes) if lanes > 1 else None
    for sim in sims:
        sim.force_label("f", value, lane=lane)
        sim.step(2)
        sim.eval()
    _assert_same(*sims)

    # strict: both stop at the same (cycle, check, lane), settled but
    # uncommitted
    stops = []
    sims = [_fresh(netlist, schedule, lanes, k, random.Random(seed))
            for k in (None, kernel)]
    for sim in sims:
        try:
            sim.run_cycles(stim=stim, strict=True)
            stops.append(None)
        except StimulusMismatch as exc:
            stops.append((exc.cycle, exc.name, exc.lane))
    assert stops[0] == stops[1]
    _assert_same(*sims)
