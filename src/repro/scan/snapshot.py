"""Replayable RTL snapshots (Section III-B).

A replayable snapshot is everything needed to re-execute a window of the
target's history on a detailed (gate-level) simulator: the full RTL
state at cycle ``c`` plus the traces of all I/O signals over the replay
length ``L`` starting at ``c``.  Output traces double as the correctness
check during replay ("outputs are verified against the output values of
the design").

Snapshots carry an optional integrity checksum: :meth:`seal` fingerprints
the captured state and I/O window once recording completes, and
:meth:`validate` re-verifies it before every replay.  A snapshot whose
bits were corrupted in transit (worker pickling, the on-disk run
journal, a fault-injection campaign) is therefore *detected* up front
instead of silently contributing a wrong power number.

The checksum is a CRC over raw bytes: memories are flat ``uint64``
arrays hashed in place, registers and each run of trace cycles sharing
one key set are packed into ``uint64`` arrays, and every key set is
encoded once.
"""

from __future__ import annotations

import zlib
from array import array
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

import numpy as np


class SnapshotError(Exception):
    pass


# Wire-format version tags accepted by __setstate__.  "v1" predates the
# integrity checksum; "v2" appends it, computed over ``repr`` of sorted
# items with list memories; "v3" has the same layout with array
# memories and the byte-level checksum.
PICKLE_VERSION = "v3"
_KNOWN_VERSIONS = ("v1", "v2", "v3")

_CRC_MASK = 0xFFFFFFFF


def _u64(rows):
    """Ints (or equal-length tuples of ints) as a ``uint64`` array.

    A value outside ``0 .. 2**64 - 1`` keeps its low 64 bits, which is
    all a port or register of at most 64 bits can hold.
    """
    try:
        return np.array(rows, dtype=np.uint64)
    except OverflowError:
        return (np.array(rows, dtype=object)
                & 0xFFFFFFFFFFFFFFFF).astype(np.uint64)


def trace_runs(trace):
    """Split a per-cycle trace into runs of cycles sharing one key set.

    Returns ``(start, keys, values)`` per run: ``keys`` is the sorted
    tuple of names present in every cycle of the run and ``values`` a
    C-contiguous ``(cycles, len(keys))`` ``uint64`` array.  A trace
    whose cycles all carry the same names is a single run.
    """
    runs = []
    n = len(trace)
    start = 0
    while start < n:
        names = trace[start].keys()
        stop = next((t for t in range(start + 1, n)
                     if trace[t].keys() != names), n)
        keys = tuple(sorted(names))
        runs.append((start, keys, _run_values(trace[start:stop], keys)))
        start = stop
    return runs


def _run_values(rows, keys):
    """``(len(rows), len(keys))`` ``uint64`` values of ``keys``."""
    if not keys:
        return np.zeros((len(rows), 0), dtype=np.uint64)
    get = itemgetter(*keys)
    try:
        flat = array("Q", map(get, rows) if len(keys) == 1
                     else chain.from_iterable(map(get, rows)))
        values = np.frombuffer(flat, dtype=np.uint64)
    except OverflowError:
        values = _u64([get(d) for d in rows])
    return values.reshape(len(rows), len(keys))


def _crc_words(h, values):
    """Fold ``uint64`` values into CRC ``h`` as little-endian bytes, so
    a one-bit change of a value is a one-bit change of the input."""
    return zlib.crc32(np.ascontiguousarray(values, dtype="<u8"), h)


def _crc_keyed(h, keys, values):
    """Fold one key set and its ``uint64`` values into CRC ``h``."""
    return _crc_words(zlib.crc32("\0".join(keys).encode(), h), values)


@dataclass
class ReplayableSnapshot:
    """State + I/O window captured at one sample point."""

    cycle: int                 # target cycle c at which state was captured
    state: "SimState"          # full register + memory state
    replay_length: int         # L
    input_trace: list = field(default_factory=list)   # per-cycle dicts
    output_trace: list = field(default_factory=list)  # per-cycle dicts
    perf_counters: dict = field(default_factory=dict)
    checksum: int = None       # set by seal(); verified by validate()

    # Snapshots are the unit of work shipped to replay worker processes;
    # keep their pickled form an explicit, versioned tuple so the wire
    # format is stable and cheap (traces are lists of {str: int} dicts).
    def __getstate__(self):
        return (PICKLE_VERSION, self.cycle, self.state, self.replay_length,
                self.input_trace, self.output_trace, self.perf_counters,
                self.checksum)

    def __setstate__(self, state):
        tag = state[0] if isinstance(state, tuple) and state else None
        if tag not in _KNOWN_VERSIONS:
            raise SnapshotError(
                f"unknown snapshot pickle version {tag!r} (supported: "
                f"{', '.join(_KNOWN_VERSIONS)}); the snapshot came from an "
                f"incompatible repro version or was corrupted")
        if tag == "v1":
            (_v, self.cycle, self.state, self.replay_length,
             self.input_trace, self.output_trace, self.perf_counters) = state
            self.checksum = None
            return
        (_v, self.cycle, self.state, self.replay_length,
         self.input_trace, self.output_trace, self.perf_counters,
         self.checksum) = state
        if tag == "v2" and self.checksum is not None:
            # Check the legacy checksum now, then reseal in the current
            # format.  A mismatch gets a checksum the current CRC can
            # never equal, so validate() rejects it as corrupted.
            crc = self._compute_checksum()
            if self._legacy_checksum() != self.checksum:
                crc ^= _CRC_MASK
            self.checksum = crc

    @property
    def complete(self):
        """True once the I/O window has been fully recorded."""
        return (len(self.input_trace) >= self.replay_length
                and len(self.output_trace) >= self.replay_length)

    def record_cycle(self, inputs, outputs):
        """Append one cycle of I/O; ignores cycles beyond the window."""
        if len(self.input_trace) < self.replay_length:
            self.input_trace.append(dict(inputs))
            self.output_trace.append(dict(outputs))

    def _compute_checksum(self):
        """CRC over cycle, L, registers, memories and both traces."""
        state = self.state
        h = _crc_words(0, _u64([self.cycle, self.replay_length]))
        paths = sorted(state.regs)
        h = _crc_keyed(h, paths, _u64([state.regs[p] for p in paths]))
        for path in sorted(state.mems):
            h = _crc_keyed(h, (path,), state.mems[path])
        for trace in (self.input_trace, self.output_trace):
            h = _crc_words(h, _u64([len(trace)]))
            for start, keys, values in trace_runs(trace):
                h = _crc_keyed(_crc_words(h, _u64([start])), keys, values)
        return h

    def _legacy_checksum(self):
        """The ``v2`` checksum: CRC over ``repr`` of sorted items, with
        memories as lists of ints."""
        mems = {path: words.tolist()
                for path, words in self.state.mems.items()}
        h = zlib.crc32(repr((self.cycle, self.replay_length)).encode())
        h = zlib.crc32(repr(sorted(self.state.regs.items())).encode(), h)
        h = zlib.crc32(repr(sorted(mems.items())).encode(), h)
        h = zlib.crc32(
            repr([sorted(d.items()) for d in self.input_trace]).encode(), h)
        h = zlib.crc32(
            repr([sorted(d.items()) for d in self.output_trace]).encode(), h)
        return h

    def seal(self):
        """Fingerprint the completed snapshot; validate() verifies it."""
        self.checksum = self._compute_checksum()
        return self.checksum

    def validate(self):
        if not self.complete:
            raise SnapshotError(
                f"snapshot at cycle {self.cycle} has only "
                f"{len(self.input_trace)}/{self.replay_length} traced cycles")
        if (self.checksum is not None
                and self._compute_checksum() != self.checksum):
            raise SnapshotError(
                f"snapshot at cycle {self.cycle} failed its integrity "
                f"check: state or I/O trace was corrupted after capture")
        return True
