"""Native bit-parallel gate-level replay kernel (backend ``c``).

The interpreted :class:`~repro.gatelevel.gl_sim.BatchedGateLevelSimulator`
spends its cycle budget on per-group numpy dispatch.  This module runs
the same cycle natively: ``libglsim.c`` (next to this file) is one
fixed, netlist-independent C translation unit whose ``gl_run_cycles``
executes a whole replay batch — packed stimulus, per-level gate
groups, SRAM read ports, forces, expected-output checks, vertical
toggle counters, SRAM write ports and DFF commit — as **one**
GIL-releasing foreign call.

The netlist is *data*, not code.  :func:`build_kernel` turns a
:class:`~repro.gatelevel.gl_sim.LevelizedSchedule` into a *program*:
per-level gate-group ranges (cell code plus ``out``/``in0``/``in1``/
``in2`` index quads, ``CONST0``/``CONST1`` as ordinary nets), SRAM
read-port descriptors at their level positions, write-port
descriptors and the DFF arrays.  The kernel walks that program in the
interpreter's exact order, so results are bit-identical by
construction.

The shared object is compiled once per machine: its artifact-cache
entry (kind ``glsim``) is keyed by the hash of ``libglsim.c``, the
compiler's path and ``--version``, and one fixed flag set.  A cached
object that no longer loads is counted as ``cache.glsim.stale``,
warned about once and rebuilt.  With no usable C compiler the ``c``
request degrades to the interpreter (one warning); ``auto`` degrades
silently.  Netlists the kernel cannot express — SRAM words wider than
64 bits, addresses wider than 62 bits — take the same fallback.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time
import warnings

import numpy as np

from .gl_sim import StimulusMismatch, _note_step_phases
from ..obs import get_tracer, get_registry

#: Bump when the kernel ABI changes (cache invalidation).
#: 4: one fixed ``libglsim.c`` taking the netlist as a program.
GLCODEGEN_VERSION = 4

_ENV_BACKEND = "REPRO_GL_BACKEND"
_ENV_CC = "REPRO_GL_CC"
_ENV_OVERLAP = "REPRO_GL_OVERLAP"

BACKENDS = ("interp", "c", "auto")

_SOURCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "libglsim.c")
_CFLAGS = ("-O2",)

#: Cell name -> opcode of ``eval_group`` in ``libglsim.c``.
CELL_CODES = {"INV": 0, "BUF": 1, "AND2": 2, "OR2": 3, "XOR2": 4,
              "XNOR2": 5, "NAND2": 6, "NOR2": 7, "MUX2": 8}

_WARNED = set()
_COMPILER_IDS = {}      # compiler path -> its --version text
# hash of .so bytes -> its CDLL: ctypes never unloads, so every object
# is mapped at most once per process
_LOADED = {}


class GLCodegenError(Exception):
    pass


class GLCodegenUnavailable(GLCodegenError):
    """The native kernel cannot run here (no compiler, or a netlist it
    cannot express)."""


def _warn_once(event, message):
    get_tracer().instant(f"glcodegen.{event}", cat="flow", detail=message)
    if event not in _WARNED:
        _WARNED.add(event)
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def reset_warnings():
    """Re-arm the once-per-event warnings (test hook)."""
    _WARNED.clear()


def resolve_backend(backend=None):
    """Normalize a backend request: explicit arg > env var > auto."""
    value = backend or os.environ.get(_ENV_BACKEND) or "auto"
    if value not in BACKENDS:
        raise GLCodegenError(
            f"unknown gate-level backend {value!r} "
            f"(choose from {', '.join(BACKENDS)})")
    return value


def resolve_overlap(overlap=None):
    """Normalize the per-process batch thread-overlap request:
    explicit arg > ``$REPRO_GL_OVERLAP`` > 1 (no overlap).

    Overlap > 1 lets a replay engine run that many independent snapshot
    batches on concurrent threads — real parallelism once the hot loop
    is one GIL-releasing native call per batch.
    """
    if overlap is None:
        overlap = os.environ.get(_ENV_OVERLAP) or 1
    try:
        overlap = int(overlap)
    except (TypeError, ValueError):
        raise GLCodegenError(
            f"gl overlap must be a positive integer, got {overlap!r}")
    if overlap < 1:
        raise GLCodegenError(
            f"gl overlap must be >= 1, got {overlap}")
    return overlap


# -- the netlist as a program -----------------------------------------------

class _GlProg(ctypes.Structure):
    """Mirror of ``gl_prog`` in ``libglsim.c``."""

    _fields_ = [
        ("n_nets", ctypes.c_int64),
        ("n_dff", ctypes.c_int64),
        ("n_levels", ctypes.c_int64),
        ("n_wports", ctypes.c_int64),
        ("levels", ctypes.c_void_p),
        ("groups", ctypes.c_void_p),
        ("gates", ctypes.c_void_p),
        ("rports", ctypes.c_void_p),
        ("wports", ctypes.c_void_p),
        ("port_nets", ctypes.c_void_p),
        ("dff_d", ctypes.c_void_p),
        ("dff_q", ctypes.c_void_p),
    ]


def _too_wide_address(macro, nets, kind):
    if len(nets) > 62:
        raise GLCodegenUnavailable(
            f"SRAM macro {macro.name!r} has a {len(nets)}-bit {kind} "
            f"address; the kernel assembles addresses in an int64")


def build_program(netlist, schedule):
    """The schedule's arrays in the layout ``gl_prog`` walks.

    Returns ``(prog, arrays)``: the ctypes struct and the numpy arrays
    it points into (keep both alive together).  Raises
    :class:`GLCodegenUnavailable` for SRAM words wider than 64 bits or
    addresses wider than 62 bits.
    """
    for macro in netlist.srams:
        if macro.width > 64:
            raise GLCodegenUnavailable(
                f"SRAM macro {macro.name!r} is {macro.width} bits wide; "
                f"the kernel packs one uint64 word per entry")
        for _en, addr_nets, _data in macro.write_ports:
            _too_wide_address(macro, addr_nets, "write")
    levels, groups, quads, rports, port_nets = [], [], [], [], []

    def nets_span(nets):
        start = len(port_nets)
        port_nets.extend(int(net) for net in nets)
        return start, len(nets)

    n_gates = 0
    for level_groups, rams in schedule.levels:
        for cell, outs, in0, in1, in2 in level_groups:
            if cell not in CELL_CODES:
                raise GLCodegenUnavailable(f"cannot lower cell {cell!r}")
            quad = np.zeros((len(outs), 4), dtype=np.int32)
            for col, arr in enumerate((outs, in0, in1, in2)):
                if arr is not None:
                    quad[:, col] = arr
            groups.append((CELL_CODES[cell], n_gates, n_gates + len(outs)))
            quads.append(quad)
            n_gates += len(outs)
        for macro_idx, port_idx in rams:
            macro = netlist.srams[macro_idx]
            addr_arr, _w, data_arr = schedule.ram_ports[macro_idx][port_idx]
            _too_wide_address(macro, addr_arr, "read")
            rports.append((macro_idx, macro.depth, *nets_span(addr_arr),
                           *nets_span(data_arr)))
        levels.append((len(groups), len(rports)))
    wports = []
    for macro_idx, macro in enumerate(netlist.srams):
        for en, addr_nets, data_nets in macro.write_ports:
            wports.append((macro_idx, macro.depth, en,
                           *nets_span(addr_nets), *nets_span(data_nets)))

    def table(rows, width):
        return np.array(rows, dtype=np.int64).reshape(-1, width)

    n_dff = len(netlist.dffs)
    arrays = {
        "levels": table(levels, 2),
        "groups": table(groups, 3),
        "gates": (np.concatenate(quads) if quads
                  else np.zeros((0, 4), dtype=np.int32)),
        "rports": table(rports, 6),
        "wports": table(wports, 7),
        "port_nets": np.array(port_nets, dtype=np.int64),
        "dff_d": np.ascontiguousarray(schedule.dff_d[:n_dff],
                                      dtype=np.int64),
        "dff_q": np.ascontiguousarray(schedule.dff_q[:n_dff],
                                      dtype=np.int64),
    }
    prog = _GlProg(n_nets=netlist.n_nets, n_dff=n_dff,
                   n_levels=len(levels), n_wports=len(wports),
                   **{name: arr.ctypes.data for name, arr in arrays.items()})
    return prog, arrays


# -- the kernel -------------------------------------------------------------

class _GlState(ctypes.Structure):
    """Mirror of ``gl_state`` (the simulator's live buffers)."""

    _fields_ = [
        ("V", ctypes.c_void_p),
        ("PREV", ctypes.c_void_p),
        ("PLANES", ctypes.c_void_p),
        ("planes_cap", ctypes.c_int64),
        ("planes_used", ctypes.c_void_p),
        ("stores", ctypes.c_void_p),
        ("lasts", ctypes.c_void_p),
        ("reads", ctypes.c_void_p),
        ("writes", ctypes.c_void_p),
        ("dff_tmp", ctypes.c_void_p),
        ("lanes", ctypes.c_int64),
        ("active_mask", ctypes.c_uint64),
    ]


class _GlForces(ctypes.Structure):
    """Mirror of ``gl_forces``."""

    _fields_ = [
        ("n", ctypes.c_int64),
        ("nets", ctypes.c_void_p),
        ("masks", ctypes.c_void_p),
        ("vals", ctypes.c_void_p),
    ]


class _GlRun(ctypes.Structure):
    """Mirror of ``gl_run`` (one call's packed stimulus)."""

    _fields_ = [
        ("n_cycles", ctypes.c_int64),
        ("poke_counts", ctypes.c_void_p),
        ("poke_masks", ctypes.c_void_p),
        ("poke_off", ctypes.c_void_p),
        ("poke_cnt", ctypes.c_void_p),
        ("poke_nets", ctypes.c_void_p),
        ("poke_words", ctypes.c_void_p),
        ("check_counts", ctypes.c_void_p),
        ("check_masks", ctypes.c_void_p),
        ("check_off", ctypes.c_void_p),
        ("check_cnt", ctypes.c_void_p),
        ("check_nets", ctypes.c_void_p),
        ("check_words", ctypes.c_void_p),
        ("force_counts", ctypes.c_void_p),
        ("force_off", ctypes.c_void_p),
        ("force_nets", ctypes.c_void_p),
        ("force_masks", ctypes.c_void_p),
        ("force_vals", ctypes.c_void_p),
        ("ambient_n", ctypes.c_int64),
        ("ambient_nets", ctypes.c_void_p),
        ("ambient_masks", ctypes.c_void_p),
        ("ambient_vals", ctypes.c_void_p),
        ("strict", ctypes.c_int64),
        ("mismatches", ctypes.c_void_p),
        ("stop", ctypes.c_void_p),
        ("profile", ctypes.c_int64),
        ("phase_ns", ctypes.c_void_p),
    ]


_STIM_FIELDS = ("poke_counts", "poke_masks", "poke_off", "poke_cnt",
                "poke_nets", "poke_words", "check_counts", "check_masks",
                "check_off", "check_cnt", "check_nets", "check_words")
_FORCE_FIELDS = ("force_counts", "force_off", "force_nets", "force_masks",
                 "force_vals")


def _data_ptr(arr):
    """Raw data pointer of a numpy array, or 0 for ``None``."""
    return arr.ctypes.data if arr is not None else 0


class CKernel:
    """One netlist's program bound to the machine's ``libglsim`` object.

    Operates in place on the simulator's numpy buffers — value array,
    SRAM word stores, last-address memos, access counters, the toggle
    arena — through raw pointers.  The pointer tables that live as long
    as a simulator are bound in :meth:`install`; buffers the simulator
    may *rebind* (``_prev`` on ``clear_activity``, the toggle arena on
    growth) are read afresh on every call.  The program is read-only,
    so one kernel serves any number of simulators on any threads.
    """

    backend = "c"

    def __init__(self, lib, program, compile_seconds=0.0,
                 from_cache=False):
        self._lib = lib                    # keep the CDLL alive
        self._prog, self._arrays = program
        lib.gl_eval.argtypes = [ctypes.POINTER(_GlProg),
                                ctypes.POINTER(_GlState),
                                ctypes.POINTER(_GlForces)]
        lib.gl_eval.restype = None
        lib.gl_run_cycles.argtypes = [ctypes.POINTER(_GlProg),
                                      ctypes.POINTER(_GlState),
                                      ctypes.POINTER(_GlRun)]
        lib.gl_run_cycles.restype = ctypes.c_int64
        self.compile_seconds = compile_seconds
        self.from_cache = from_cache

    def install(self, sim):
        stores = (ctypes.c_void_p * max(len(sim._sram_data), 1))()
        for i, store in enumerate(sim._sram_data):
            stores[i] = store.ctypes.data
        memos = [sim._last_addrs[m][p]
                 for _groups, rams in sim.schedule.levels for m, p in rams]
        lasts = (ctypes.c_void_p * max(len(memos), 1))()
        for i, memo in enumerate(memos):
            lasts[i] = memo.ctypes.data
        # the tables point into these arrays; keep them reachable
        sim._gl_c_tables = (stores, lasts, memos)
        # per-simulator DFF gather scratch: commit reads every D before
        # scattering to Q, and threads share the library
        sim._gl_dff_tmp = np.zeros(max(len(sim.netlist.dffs), 1),
                                   dtype=np.uint64)

    def _state(self, sim):
        stores, lasts, _memos = sim._gl_c_tables
        arena = sim._toggle_arena
        return _GlState(
            V=sim._values.ctypes.data,
            PREV=sim._prev.ctypes.data,
            PLANES=arena.ctypes.data,
            planes_cap=arena.shape[0],
            planes_used=sim._plane_count_buf.ctypes.data,
            stores=ctypes.addressof(stores),
            lasts=ctypes.addressof(lasts),
            reads=sim.sram_reads.ctypes.data,
            writes=sim.sram_writes.ctypes.data,
            dff_tmp=sim._gl_dff_tmp.ctypes.data,
            lanes=sim.lanes,
            active_mask=int(sim.active_mask))

    def eval(self, sim):
        """Settle combinational logic once under the ambient forces."""
        forces = _GlForces()
        if sim._force_nets is not None:
            forces = _GlForces(n=len(sim._force_nets),
                               nets=sim._force_nets.ctypes.data,
                               masks=sim._force_masks.ctypes.data,
                               vals=sim._force_vals.ctypes.data)
        self._lib.gl_eval(ctypes.byref(self._prog),
                          ctypes.byref(self._state(sim)),
                          ctypes.byref(forces))

    def run_cycles(self, sim, n, stim, strict, mismatches):
        """Run ``n`` cycles natively; returns committed-cycle count.

        Hands the packed stimulus' flat arrays to ``gl_run_cycles``,
        syncs the plane count and cycle counter back, and raises
        :class:`~repro.gatelevel.gl_sim.StimulusMismatch` on a strict
        stop.
        """
        sim._plane_count_buf[0] = sim._plane_count
        state = self._state(sim)
        flat = stim.flat() if stim is not None else None
        stop = np.full(3, -1, dtype=np.int64)
        phase_ns = np.zeros(6, dtype=np.float64)
        run = _GlRun(n_cycles=n, strict=1 if strict else 0,
                     mismatches=mismatches.ctypes.data,
                     stop=stop.ctypes.data, profile=1,
                     phase_ns=phase_ns.ctypes.data)
        if flat is not None:
            for name in _STIM_FIELDS:
                setattr(run, name, _data_ptr(flat[name]))
        if flat is not None and flat["force_counts"] is not None:
            for name in _FORCE_FIELDS:
                setattr(run, name, _data_ptr(flat[name]))
        elif sim._force_nets is not None:
            run.ambient_n = len(sim._force_nets)
            run.ambient_nets = _data_ptr(sim._force_nets)
            run.ambient_masks = _data_ptr(sim._force_masks)
            run.ambient_vals = _data_ptr(sim._force_vals)
        # ``flat`` and the ambient arrays stay referenced for the call
        done = int(self._lib.gl_run_cycles(ctypes.byref(self._prog),
                                           ctypes.byref(state),
                                           ctypes.byref(run)))
        sim._plane_count = int(sim._plane_count_buf[0])
        sim.cycles += done
        _note_step_phases(phase_ns / 1e9, done)
        if done < n:
            t, op, lane = (int(x) for x in stop)
            raise StimulusMismatch(t, stim.check_meta[op][1], lane)
        return done


# -- one shared object per machine ------------------------------------------

def _find_compiler():
    override = os.environ.get(_ENV_CC)
    if override:
        if shutil.which(override) or (os.path.isfile(override)
                                      and os.access(override, os.X_OK)):
            return override
        raise GLCodegenUnavailable(
            f"$REPRO_GL_CC={override!r} is not an executable compiler")
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        raise GLCodegenUnavailable("no C compiler on PATH")
    return compiler


def _compiler_id(compiler):
    """The compiler's ``--version`` text (memoized per path)."""
    if compiler not in _COMPILER_IDS:
        try:
            out = subprocess.run([compiler, "--version"], check=True,
                                 capture_output=True, text=True,
                                 timeout=60).stdout
        except (OSError, subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as exc:
            raise GLCodegenUnavailable(
                f"C compiler {compiler!r} does not run: {exc}") from exc
        _COMPILER_IDS[compiler] = out
    return _COMPILER_IDS[compiler]


def _read_source():
    with open(_SOURCE_PATH) as f:
        return f.read()


def kernel_cache_key(compiler=None):
    """Artifact-cache key of this machine's ``libglsim`` object: the
    kernel source hash, the compiler's path and ``--version``, the
    fixed flags and :data:`GLCODEGEN_VERSION`."""
    compiler = compiler or _find_compiler()
    h = hashlib.blake2b(digest_size=20)
    for part in (_read_source(), compiler, _compiler_id(compiler),
                 " ".join(_CFLAGS), str(GLCODEGEN_VERSION)):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def _compile_so(compiler, so_path):
    cmd = [compiler, *_CFLAGS, "-fPIC", "-shared", "-o", so_path,
           _SOURCE_PATH]
    try:
        subprocess.run(cmd, check=True, capture_output=True, timeout=600)
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        raise GLCodegenUnavailable(f"C compilation failed: {exc}") from exc


def _open_library(so_path):
    lib = ctypes.CDLL(so_path)
    lib.gl_eval, lib.gl_run_cycles     # resolve both entry points now
    return lib


def _so_digest(data):
    return hashlib.blake2b(data, digest_size=20).hexdigest()


def load_library(use_cache=True):
    """Load (building at most once per machine) the ``libglsim`` object.

    Returns ``(lib, from_cache)``.  A cached object already loaded in
    this process is reused; otherwise it is written to a private temp
    directory only for ``dlopen`` and the directory is removed straight
    after.  A cached object that fails to load is counted as
    ``cache.glsim.stale``, warned about once and rebuilt.
    """
    from ..parallel.cache import get_cache, cache_enabled

    compiler = _find_compiler()
    key = (kernel_cache_key(compiler)
           if use_cache and cache_enabled() else None)
    entry = get_cache().get("glsim", key) if key is not None else None
    digest = _so_digest(entry["so"]) if entry is not None else None
    if digest in _LOADED:
        return _LOADED[digest], True
    workdir = tempfile.mkdtemp(prefix="repro_glsim_")
    try:
        if entry is not None:
            so_path = os.path.join(workdir, "libglsim.so")
            with open(so_path, "wb") as f:
                f.write(entry["so"])
            try:
                lib = _open_library(so_path)
                _LOADED[digest] = lib
                return lib, True
            except (OSError, AttributeError) as exc:
                get_registry().counter("cache.glsim.stale").inc()
                _warn_once(
                    "glsim-stale",
                    f"cached replay kernel failed to load ({exc}); "
                    f"rebuilding it")
        # a fresh name: dlopen hands back a library already loaded
        # from the same path
        so_path = os.path.join(workdir, "libglsim-built.so")
        _compile_so(compiler, so_path)
        lib = _open_library(so_path)
        with open(so_path, "rb") as f:
            data = f.read()
        _LOADED[_so_digest(data)] = lib
        if key is not None:
            get_cache().put("glsim", key, {
                "version": GLCODEGEN_VERSION, "so": data})
        return lib, False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def compile_c_kernel(netlist, schedule, use_cache=True):
    """The native kernel for one netlist: its program plus the machine's
    shared object.  Raises :class:`GLCodegenUnavailable` when there is
    no working compiler or the netlist cannot be expressed."""
    t0 = time.perf_counter()
    program = build_program(netlist, schedule)
    lib, from_cache = load_library(use_cache=use_cache)
    seconds = time.perf_counter() - t0
    registry = get_registry()
    registry.counter("glcodegen.compile_seconds").inc(float(seconds))
    registry.counter("glcodegen.builds").inc()
    if from_cache:
        registry.counter("glcodegen.cache_loads").inc()
    get_tracer().instant("glcodegen.kernel", cat="flow", backend="c",
                         seconds=seconds, from_cache=from_cache)
    return CKernel(lib, program, compile_seconds=seconds,
                   from_cache=from_cache)


def build_kernel(netlist, schedule, backend, use_cache=True):
    """The evaluation kernel for ``backend``; None means the interpreter.

    The ladder is ``c -> interp``: a ``c`` request that cannot be met
    (no compiler, or a netlist the kernel cannot express) falls back to
    the batched numpy interpreter with one warning and a counter;
    ``auto`` takes the same fallback silently.
    """
    backend = resolve_backend(backend)
    if backend == "interp":
        return None
    with get_tracer().span("glcodegen.build", cat="flow",
                           backend=backend) as span:
        try:
            kernel = compile_c_kernel(netlist, schedule,
                                      use_cache=use_cache)
        except GLCodegenUnavailable as exc:
            get_registry().counter("glcodegen.c_fallbacks").inc()
            if backend == "c":
                _warn_once(
                    "c-fallback",
                    f"C replay backend unavailable ({exc}); using the "
                    f"interpreted evaluator instead")
            span.set(backend_used="interp")
            return None
        span.set(backend_used="c", from_cache=kernel.from_cache)
        return kernel
