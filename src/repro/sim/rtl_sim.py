"""Cycle-accurate RTL simulator over compiled circuits.

This is the "fast simulator" half of the Strober methodology: it plays
the role of the FPGA-hosted design (Section IV-B) and is also reused as
the reference model when validating gate-level replays.
"""

from __future__ import annotations

import numpy as np

from ..hdl.ir import mask
from .compiler import compile_circuit_cached


class SimStateError(Exception):
    pass


def _mem_arrays(mems):
    """Memory contents as 1-D ``uint64`` arrays (arrays pass through)."""
    return {path: np.asarray(words, dtype=np.uint64)
            for path, words in mems.items()}


class SimState:
    """A full architectural state snapshot (registers + memories).

    Registers are a dict of Python ints; each memory is one flat
    ``uint64`` array, whatever form the caller (or an older pickle)
    handed in.
    """

    __slots__ = ("regs", "mems", "cycle")

    def __init__(self, regs, mems, cycle=0):
        self.regs = regs                 # dict path -> int
        self.mems = _mem_arrays(mems)    # dict path -> uint64 array
        self.cycle = cycle

    def copy(self):
        return SimState(dict(self.regs),
                        {k: v.copy() for k, v in self.mems.items()},
                        self.cycle)

    # __slots__ classes need explicit state hooks to pickle under every
    # protocol; snapshots embed a SimState and cross process boundaries.
    # States pickled before memories became arrays carry lists.
    def __getstate__(self):
        return (self.regs, self.mems, self.cycle)

    def __setstate__(self, state):
        self.regs, mems, self.cycle = state
        self.mems = _mem_arrays(mems)

    def state_bits(self, circuit):
        reg_bits = sum(r.width for r in circuit.regs)
        mem_bits = sum(m.depth * m.width for m in circuit.mems)
        return reg_bits + mem_bits


class RTLSimulator:
    """Drive a circuit cycle by cycle with poke/peek/step.

    ``step`` semantics: outputs observed via ``peek`` after a step are the
    values computed from the inputs poked for that cycle, sampled just
    before the clock edge.
    """

    def __init__(self, circuit, backend="python"):
        self.circuit = circuit
        self.backend = backend
        if backend == "c":
            from .cbackend import compile_circuit_c, CRegProxy, CMemProxy
            self._cycle, self._layout = compile_circuit_c(circuit)
            lib = self._cycle.lib
            self._regs = CRegProxy(lib, len(circuit.regs))
            self._mems = [CMemProxy(lib, i, mem.depth)
                          for i, mem in enumerate(circuit.mems)]
        else:
            self._cycle, self._layout = compile_circuit_cached(circuit)
            self._regs = [0] * len(circuit.regs)
            self._mems = [[0] * mem.depth for mem in circuit.mems]
        self._in = [0] * len(circuit.inputs)
        self._out = [0] * len(circuit.outputs)
        self._in_widths = [node.width for node in circuit.inputs]
        self._reg_list = list(circuit.regs)
        self._mem_list = list(circuit.mems)
        self.cycle = 0
        self.reset()

    # -- state -------------------------------------------------------------

    def _set_regs(self, values):
        if hasattr(self._regs, "bulk_set"):
            self._regs.bulk_set(values)
        else:
            self._regs[:] = values

    def _get_regs(self):
        if hasattr(self._regs, "bulk_get"):
            return self._regs.bulk_get()
        return list(self._regs)

    def _read_mem(self, idx):
        """One whole memory as a fresh ``uint64`` array."""
        if self.backend == "c":
            return self._mems[idx].read()
        return np.array(self._mems[idx], dtype=np.uint64)

    def _write_mem(self, idx, words):
        """Overwrite one whole memory (``depth`` words)."""
        if self.backend == "c":
            self._mems[idx].write(words)
        elif isinstance(words, np.ndarray):
            # the generated Python evaluator must only see Python ints
            self._mems[idx][:] = words.tolist()
        else:
            self._mems[idx][:] = words

    def reset(self, clear_mems=False):
        """Apply register reset values; memories are preserved by default."""
        self._set_regs([reg.init for reg in self._reg_list])
        if clear_mems:
            for i, mem in enumerate(self._mem_list):
                self._write_mem(i, [0] * mem.depth)
        self.cycle = 0

    def snapshot(self):
        """Capture the complete architectural state."""
        values = self._get_regs()
        regs = {reg.path: int(values[i])
                for i, reg in enumerate(self._reg_list)}
        mems = {mem.path: self._read_mem(i)
                for i, mem in enumerate(self._mem_list)}
        return SimState(regs, mems, self.cycle)

    def load_snapshot(self, state):
        """Restore a state captured by :meth:`snapshot`."""
        values = []
        for reg in self._reg_list:
            if reg.path not in state.regs:
                raise SimStateError(f"snapshot missing register {reg.path}")
            values.append(state.regs[reg.path])
        self._set_regs(values)
        for i, mem in enumerate(self._mem_list):
            if mem.path not in state.mems:
                raise SimStateError(f"snapshot missing memory {mem.path}")
            mem_values = state.mems[mem.path]
            if len(mem_values) != mem.depth:
                raise SimStateError(f"memory {mem.path} size mismatch")
            self._write_mem(i, mem_values)
        self.cycle = state.cycle

    # -- I/O -----------------------------------------------------------------

    def poke(self, name, value):
        idx = self._layout["in_index"][name]
        self._in[idx] = value & mask(self._in_widths[idx])

    def peek(self, name):
        return int(self._out[self._layout["out_index"][name]])

    def peek_all(self):
        return {name: int(self._out[i])
                for name, i in self._layout["out_index"].items()}

    def poke_all(self, values):
        for name, value in values.items():
            self.poke(name, value)

    def eval(self):
        """Settle combinational logic without a clock edge."""
        self._cycle(self._in, self._out, self._regs, self._mems, False)

    def step(self, n=1):
        """Advance ``n`` clock cycles with the currently poked inputs."""
        cycle_fn = self._cycle
        inp, out, regs, mems = self._in, self._out, self._regs, self._mems
        for _ in range(n):
            cycle_fn(inp, out, regs, mems, True)
        self.cycle += n

    # -- introspection --------------------------------------------------------

    def peek_reg(self, path):
        idx = self._layout["reg_index"][path]
        return int(self._regs[idx])

    def poke_reg(self, path, value):
        idx = self._layout["reg_index"][path]
        self._regs[idx] = value & mask(self._reg_list[idx].width)

    def read_mem(self, path, addr):
        idx = self._layout["mem_index"][path]
        return int(self._mems[idx][addr])

    def write_mem(self, path, addr, value):
        idx = self._layout["mem_index"][path]
        self._mems[idx][addr] = value & mask(self._mem_list[idx].width)

    def load_mem(self, path, values, offset=0):
        """Bulk-initialize a memory (e.g. a program image)."""
        idx = self._layout["mem_index"][path]
        arr = self._mems[idx]
        m = mask(self._mem_list[idx].width)
        for i, value in enumerate(values):
            arr[offset + i] = value & m

    def generated_source(self):
        return self._layout["source"]


def make_simulator(circuit, backend="auto"):
    """Build an RTLSimulator, preferring the C backend when available."""
    if backend == "auto":
        try:
            return RTLSimulator(circuit, backend="c")
        except Exception:
            return RTLSimulator(circuit, backend="python")
    return RTLSimulator(circuit, backend=backend)


__all__ = ["RTLSimulator", "SimState", "SimStateError", "make_simulator"]
