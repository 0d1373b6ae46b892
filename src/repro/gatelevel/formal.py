"""Formal matching: RTL registers <-> gate-level DFFs (Formality analog).

Commercial synthesis mangles register names, so Strober runs a formal
verification tool to find *matching points* between the RTL and the
gate-level netlist and to verify equivalence (Section IV-C1).  Like
Formality consuming Design Compiler's SVF file, this tool consumes the
:class:`~repro.gatelevel.synthesis.SynthesisHints` optimization record,
reconstructs the name-mapping table, cross-checks it against the
netlist, and verifies the two designs are equivalent by co-simulation
with randomized stimulus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

import numpy as np

from ..sim import RTLSimulator
from ..passes.base import Pass, PassResult
from .gl_sim import GateLevelSimulator


class MatchError(Exception):
    pass


@dataclass
class MatchPoint:
    """One RTL register bit and where its value lives in the netlist."""

    reg_path: str
    bit: int
    kind: str            # 'dff' | 'const' | 'merged' | 'retimed'
    dff_name: str = None
    const_value: int = 0


@dataclass
class NameMap:
    """The name-mapping table used to load snapshots onto gate level."""

    points: list = field(default_factory=list)
    retimed: list = field(default_factory=list)   # RetimedHint passthrough

    # Name maps ship to replay workers and into the artifact cache; a
    # big design has one MatchPoint per register *bit*, so pickle them
    # as plain tuples rather than dataclass instances.
    def __getstate__(self):
        return {
            "v": 1,
            "points": [(p.reg_path, p.bit, p.kind, p.dff_name,
                        p.const_value) for p in self.points],
            "retimed": self.retimed,
        }

    def __setstate__(self, state):
        self.points = [MatchPoint(reg_path, bit, kind, dff_name, const)
                       for reg_path, bit, kind, dff_name, const
                       in state["points"]]
        self.retimed = state["retimed"]

    def loadable_points(self):
        return [p for p in self.points if p.kind in ("dff", "merged")]

    def retimed_points(self):
        return [p for p in self.points if p.kind == "retimed"]

    def compile(self, netlist=None):
        """Compile the table into the index arrays of a :class:`LoadMap`.

        With ``netlist`` the map also carries each DFF's ``q`` net, which
        is what the batched loader scatters into.
        """
        return LoadMap(self.points, netlist)

    def load_commands(self, reg_values):
        """Translate an RTL register state into (dff_name, bit) commands.

        ``reg_values`` maps reg path -> integer value.  Returns a dict
        {dff_name: bit_value}; constant points are checked, retimed
        points are skipped (they are recovered by input forcing).
        """
        words = self._load_map.lane_words([reg_values])
        return dict(zip(self._load_map.dff_names, words.tolist()))

    @cached_property
    def _load_map(self):
        return self.compile()


class LoadMap:
    """A :class:`NameMap` compiled into index arrays.

    One row per loadable (dff/merged) point gives its register index,
    bit and DFF; one row per const point gives its register index, bit
    and synthesized value.  :meth:`lane_words` then turns the register
    values of up to 64 lanes into one packed lane word per DFF with a
    gather, a shift and an OR-reduce.
    """

    def __init__(self, points, netlist=None):
        self.reg_paths = list(dict.fromkeys(p.reg_path for p in points))
        reg_index = {path: i for i, path in enumerate(self.reg_paths)}
        self._get_regs = (itemgetter(*self.reg_paths) if self.reg_paths
                          else lambda regs: ())
        dff_slot = {}
        load_idx, load_reg, load_bit, slots = [], [], [], []
        const_idx, const_reg, const_bit, const_val = [], [], [], []
        for i, point in enumerate(points):
            if point.kind in ("dff", "merged"):
                load_idx.append(i)
                load_reg.append(reg_index[point.reg_path])
                load_bit.append(point.bit)
                slots.append(dff_slot.setdefault(point.dff_name,
                                                 len(dff_slot)))
            elif point.kind == "const":
                const_idx.append(i)
                const_reg.append(reg_index[point.reg_path])
                const_bit.append(point.bit)
                const_val.append(point.const_value)
        self._points = points
        self.dff_names = list(dff_slot)
        self._load_idx = np.array(load_idx, dtype=np.int64)
        self._load_reg = np.array(load_reg, dtype=np.int64)
        self._load_bit = np.array(load_bit, dtype=np.uint64)
        slots = np.array(slots, dtype=np.int64)
        # first point of every DFF (slots are numbered in first-seen
        # order), and for each point the first point of its DFF
        self._first = np.unique(slots, return_index=True)[1]
        self._rep = self._first[slots]
        self._shared = len(self._first) < len(slots)
        self._const_idx = np.array(const_idx, dtype=np.int64)
        self._const_reg = np.array(const_reg, dtype=np.int64)
        self._const_bit = np.array(const_bit, dtype=np.uint64)
        self._const_val = np.array(const_val, dtype=np.uint64)
        self.dff_nets = None
        if netlist is not None:
            q_of = {dff.name: dff.q for dff in netlist.dffs}
            missing = [n for n in self.dff_names if n not in q_of]
            if missing:
                raise MatchError(f"name map loads missing DFF {missing[0]!r}")
            self.dff_nets = np.array([q_of[n] for n in self.dff_names],
                                     dtype=np.int64)

    def lane_words(self, reg_values_per_lane):
        """Packed lane words, one per DFF in :attr:`dff_names` order.

        Bit ``lane`` of word ``i`` is the value DFF ``i`` loads in lane
        ``lane``.  Raises :class:`MatchError` for the first point (in
        table order) of a constant register bit that differs from the
        synthesized constant, or of a merged DFF whose points disagree.
        """
        lanes = len(reg_values_per_lane)
        regs = np.array([self._get_regs(regs)
                         for regs in reg_values_per_lane],
                        dtype=np.uint64).reshape(lanes, len(self.reg_paths))
        lane_ids = np.arange(lanes, dtype=np.uint64)[:, None]
        bad = []
        if self._const_idx.size:
            bits = (regs[:, self._const_reg] >> self._const_bit) & 1
            wrong = (bits != self._const_val).any(axis=0)
            if wrong.any():
                bad.append(int(self._const_idx[np.argmax(wrong)]))
        bits = (regs[:, self._load_reg] >> self._load_bit) & 1
        words = np.bitwise_or.reduce(bits << lane_ids, axis=0)
        if self._shared:
            wrong = words != words[self._rep]
            if wrong.any():
                bad.append(int(self._load_idx[np.argmax(wrong)]))
        if bad:
            point = self._points[min(bad)]
            if point.kind == "const":
                raise MatchError(
                    f"snapshot value of constant register "
                    f"{point.reg_path}[{point.bit}] differs from the "
                    f"synthesized constant")
            raise MatchError(
                f"merged DFF {point.dff_name} receives conflicting "
                f"values (snapshot inconsistent with merge)")
        return words[self._first]


class FormalMatchPass(Pass):
    """:func:`match_netlist` as a pipeline pass (thin wrapper).

    Consumes the ``netlist`` + ``hints`` artifacts and deposits the
    ``name_map`` the replay engine loads snapshots through.
    """

    name = "formal-match"
    requires = ("netlist",)
    produces = ("name-map",)

    def run(self, circuit, ctx):
        name_map = match_netlist(circuit, ctx["netlist"], ctx["hints"])
        return PassResult(
            artifacts={"name_map": name_map},
            stats={"match_points": len(name_map.points),
                   "retimed_blocks": len(name_map.retimed)})


def match_netlist(circuit, netlist, hints):
    """Build the name map from synthesis hints and sanity-check it."""
    dff_names = {dff.name for dff in netlist.dffs}
    points = []
    for reg in circuit.regs:
        for bit in range(reg.width):
            hint = hints.dff_map.get((reg.path, bit))
            if hint is None:
                raise MatchError(
                    f"no synthesis record for {reg.path}[{bit}]")
            if hint.kind in ("dff", "merged"):
                if hint.name not in dff_names:
                    raise MatchError(
                        f"hint names missing DFF {hint.name!r}")
                points.append(MatchPoint(reg.path, bit, hint.kind,
                                         dff_name=hint.name))
            elif hint.kind == "const":
                points.append(MatchPoint(reg.path, bit, "const",
                                         const_value=hint.value))
            elif hint.kind == "retimed":
                points.append(MatchPoint(reg.path, bit, "retimed"))
            else:
                raise MatchError(f"unknown hint kind {hint.kind!r}")
    return NameMap(points=points, retimed=list(hints.retimed))


@dataclass
class EquivalenceResult:
    equivalent: bool
    cycles_checked: int
    counterexample: dict = None


def verify_equivalence(circuit, netlist, n_cycles=64, seed=0,
                       rtl_backend="python"):
    """Co-simulate RTL vs gate level from reset with random stimulus.

    This is the 'verifies the equality of the two designs' half of the
    formal step; bounded random equivalence rather than SAT-based, which
    is sufficient to catch synthesis lowering bugs in practice and keeps
    the substrate self-contained.
    """
    rng = random.Random(seed)
    rtl = RTLSimulator(circuit, backend=rtl_backend)
    gl = GateLevelSimulator(netlist)
    input_specs = [(node.name, node.width) for node in circuit.inputs]
    for cycle in range(n_cycles):
        stimulus = {name: rng.getrandbits(width)
                    for name, width in input_specs}
        for name, value in stimulus.items():
            rtl.poke(name, value)
            gl.poke(name, value)
        rtl.eval()
        gl.eval()
        rtl_out = rtl.peek_all()
        gl_out = gl.peek_all()
        if rtl_out != gl_out:
            return EquivalenceResult(False, cycle, {
                "stimulus": stimulus,
                "rtl": rtl_out,
                "gate": gl_out,
            })
        rtl.step()
        gl.step()
    return EquivalenceResult(True, n_cycles)
