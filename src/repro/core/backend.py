"""Pluggable execution backends for the stage-fused hot loop.

:class:`repro.core.fused.FusedProgram` is the kernel schedule: fixed
index arrays and constant vectors, no per-element Python control flow.
A backend's only job is to compile one fused stage of it into a runner;
the :class:`ArrayBackend` protocol is a ``name`` plus
:meth:`~ArrayBackend.compile_stage`.  Two implementations ship:

* :class:`NumpyBackend` — the default; its runner is the hand-tuned
  loop of presliced bound-method ``take`` views into preallocated
  buffers, with every all-zero constant elided.
* :class:`NumbaBackend` — JIT-compiles each stage's wave schedule into
  **one fused native kernel per stage**: the read gather, every wave's
  gather+flip+AND, and all terminal scatters run as a single nopython
  loop nest with no per-wave NumPy dispatch and no intermediate
  temporaries.  One generic kernel is compiled once per process (numba
  caches it on disk) and parameterized by each stage's index tables.

A backend whose runtime dependency is missing resolves to numpy with a
single warning per process — mirroring the ``FusionError`` → legacy
fallback pattern — so ``--backend numba`` never hard-fails a run on a
machine without it.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from repro.errors import BackendUnavailableError, UnknownBackendError

logger = logging.getLogger(__name__)

#: selectable backend names, in preference order
BACKEND_NAMES = ("numpy", "numba")


class ArrayBackend:
    """Protocol: a ``name`` and a per-stage compiler.

    :meth:`compile_stage` receives one ``_FusedStage`` plus the
    executor's buffers — the trace (``(n,)`` at ``K == 1``, else
    ``(n, K)``), the RAM-port arena, and a scratch buffer of the
    program's largest wave that the runner may clobber — and returns
    ``run(gstate, times) -> values | None``.  One call performs the
    stage's read gather, every wave, and the immediate-GWRITE and
    RAM-port stores; it returns the stage's deferred-GWRITE values
    (aligned with ``stage.def_gidx``, or ``None`` when there are none),
    which the caller commits at the cycle boundary.  ``times`` is the
    interpreter's ``phase_times`` dict under profiling, else ``None``.
    """

    name = "numpy"

    def compile_stage(self, stage, trace, arena, scratch):
        raise NotImplementedError


class NumpyBackend(ArrayBackend):
    """The default backend: plain NumPy ufuncs on host memory.

    Each runner issues only fixed-shape ufuncs with ``out=`` into buffers
    preallocated here (zero allocation apart from the fancy-index scatters
    NumPy performs in place).  Every wave tuple is presliced, so the loop
    touches no Python-level slicing or the ``np.take`` wrapper (the bound
    ``ndarray.take`` skips ~2.5us of dispatch per call).  Single-word
    batches stay on 1-D arrays; lane planes broadcast constants as
    ``(n, 1)`` columns.
    """

    name = "numpy"

    def compile_stage(self, stage, trace, arena, scratch):
        plane = trace.shape[1:]

        def buf(n):
            return np.zeros((n,) + plane, dtype=np.uint64)

        def col(arr):
            return arr[:, None] if arr is not None and plane else arr

        take = trace.take
        read_gidx = stage.read_gidx if stage.read_gidx.size else None
        read_view = trace[: stage.read_gidx.size]
        waves = []
        for wave in stage.waves:
            n = wave.count
            ab = scratch[: 2 * n]
            out = trace[wave.out_offset : wave.out_offset + n]
            waves.append((wave.gather, col(wave.flips), ab, ab[:n], ab[n:], out))

        gwn_gidx = stage.gwn_gidx if stage.gwn_gidx.size else None
        nd = stage.gwn_src.size
        gwn_buf = buf(stage.gwn_gidx.size)
        gwn_buf[nd:] = col(stage.gwn_const)
        gwn_dyn = gwn_buf[:nd] if nd else None
        gwn_src, gwn_inv = stage.gwn_src, col(stage.gwn_inv)
        ram_slots = stage.ram_slots if stage.ram_slots.size else None
        ram_buf = buf(stage.ram_slots.size)
        ram_src, ram_inv = stage.ram_src, col(stage.ram_inv)
        def_buf = buf(stage.def_gidx.size) if stage.def_gidx.size else None
        def_src, def_inv = stage.def_src, col(stage.def_inv)
        perf_counter = time.perf_counter

        def run(gstate, times):
            if times is not None:
                t0 = perf_counter()
            if read_gidx is not None:
                gstate.take(read_gidx, 0, read_view, "clip")
            if times is not None:
                t1 = perf_counter()
                times["gather"] += t1 - t0
                t0 = t1
            for gather, flips, ab, a, b, out in waves:
                take(gather, 0, ab, "clip")
                if flips is not None:
                    np.bitwise_xor(ab, flips, out=ab)
                np.bitwise_and(a, b, out=out)
            if times is not None:
                t1 = perf_counter()
                times["fold"] += t1 - t0
                t0 = t1
            if gwn_gidx is not None:
                if gwn_dyn is not None:
                    take(gwn_src, 0, gwn_dyn, "clip")
                    if gwn_inv is not None:
                        np.bitwise_xor(gwn_dyn, gwn_inv, out=gwn_dyn)
                gstate[gwn_gidx] = gwn_buf
            if ram_slots is not None:
                take(ram_src, 0, ram_buf, "clip")
                if ram_inv is not None:
                    np.bitwise_xor(ram_buf, ram_inv, out=ram_buf)
                arena[ram_slots] = ram_buf
            if def_buf is not None:
                take(def_src, 0, def_buf, "clip")
                if def_inv is not None:
                    np.bitwise_xor(def_buf, def_inv, out=def_buf)
            if times is not None:
                times["commit"] += perf_counter() - t0
            return def_buf

        return run


def _flatten(stage) -> tuple[np.ndarray, ...]:
    """One ``_FusedStage`` as the numba kernel's tables, in argument order.

    The per-wave tables are concatenated behind per-wave
    ``(count, out, start)`` descriptors so a single compiled kernel can
    run any stage.  Elided constants (``None`` inversion vectors) become
    zeros — a compiled kernel XORs them for free, unlike a NumPy dispatch.
    """
    counts, outs, starts, gathers, flips = [], [], [], [], []
    off = 0
    for wave in stage.waves:
        counts.append(wave.count)
        outs.append(wave.out_offset)
        starts.append(off)
        gathers.append(wave.gather)
        flips.append(
            wave.flips
            if wave.flips is not None
            else np.zeros(2 * wave.count, dtype=np.uint64)
        )
        off += 2 * wave.count

    def idx(arr):
        return np.asarray(arr, dtype=np.int64)

    def inv(arr, n):
        return arr if arr is not None else np.zeros(n, dtype=np.uint64)

    return (
        idx(stage.read_gidx),
        idx(counts),
        idx(outs),
        idx(starts),
        idx(np.concatenate(gathers) if gathers else []),
        np.concatenate(flips) if flips else np.zeros(0, dtype=np.uint64),
        idx(stage.gwn_gidx),
        idx(stage.gwn_src),
        inv(stage.gwn_inv, stage.gwn_src.size),
        stage.gwn_const,
        idx(stage.ram_slots),
        idx(stage.ram_src),
        inv(stage.ram_inv, stage.ram_src.size),
        idx(stage.def_src),
        inv(stage.def_inv, stage.def_src.size),
    )


def _build_numba_kernel(numba):
    """The one generic stage kernel, compiled lazily per process.

    Everything a stage does — read gather, each wave's gather + flip +
    AND, terminal gwn/ram/deferred stores — runs inside a single
    ``nopython`` loop nest over the ``(n, K)`` lane planes: no per-wave
    dispatch, no intermediate ``ab`` buffer, no constant-elision
    branches (zero XORs are free in native code).  Within a wave every
    operand position is strictly below the wave's output offset, so the
    sequential in-place trace update is safe.
    """

    @numba.njit(cache=True, fastmath=False)
    def stage_kernel(
        gstate,
        trace,
        arena,
        def_buf,
        read_gidx,
        wave_count,
        wave_out,
        wave_start,
        gather,
        flips,
        gwn_gidx,
        gwn_src,
        gwn_inv,
        gwn_const,
        ram_slots,
        ram_src,
        ram_inv,
        def_src,
        def_inv,
    ):  # pragma: no cover - requires numba
        K = gstate.shape[1]
        for i in range(read_gidx.size):
            g = read_gidx[i]
            for k in range(K):
                trace[i, k] = gstate[g, k]
        for w in range(wave_count.size):
            n = wave_count[w]
            out = wave_out[w]
            s = wave_start[w]
            for p in range(n):
                ia = gather[s + p]
                ib = gather[s + n + p]
                fa = flips[s + p]
                fb = flips[s + n + p]
                for k in range(K):
                    trace[out + p, k] = (trace[ia, k] ^ fa) & (trace[ib, k] ^ fb)
        ndyn = gwn_src.size
        for i in range(gwn_gidx.size):
            g = gwn_gidx[i]
            if i < ndyn:
                src = gwn_src[i]
                inv = gwn_inv[i]
                for k in range(K):
                    gstate[g, k] = trace[src, k] ^ inv
            else:
                c = gwn_const[i - ndyn]
                for k in range(K):
                    gstate[g, k] = c
        for i in range(ram_slots.size):
            src = ram_src[i]
            inv = ram_inv[i]
            slot = ram_slots[i]
            for k in range(K):
                arena[slot, k] = trace[src, k] ^ inv
        for i in range(def_src.size):
            src = def_src[i]
            inv = def_inv[i]
            for k in range(K):
                def_buf[i, k] = trace[src, k] ^ inv

    return stage_kernel


def _plane2d(arr: np.ndarray) -> np.ndarray:
    """``arr`` as an ``(n, K)`` plane (a zero-copy view at ``K == 1``)."""
    return arr if arr.ndim == 2 else arr.reshape(-1, 1)


class NumbaBackend(ArrayBackend):
    """Stage schedules JIT-compiled to one native kernel per stage.

    The kernel sees 2-D ``(n, K)`` planes; single-word batches pass
    zero-copy ``(n, 1)`` reshape views.  A native stage has no
    gather/fold boundary, so under profiling its time lands in ``fold``.
    """

    name = "numba"

    def __init__(self) -> None:
        try:
            import numba
        except ImportError as exc:
            raise BackendUnavailableError(
                "numba is not installed (pip install repro[numba])"
            ) from exc
        self._kernel = _build_numba_kernel(numba)

    def compile_stage(self, stage, trace, arena, scratch):  # pragma: no cover - needs numba
        kernel = self._kernel
        tables = _flatten(stage)
        trace2, arena2 = _plane2d(trace), _plane2d(arena)
        def_buf = np.zeros((stage.def_src.size, trace2.shape[1]), dtype=np.uint64)
        values = None
        if stage.def_src.size:
            # merge() needs 1-D values when the state itself is 1-D
            values = def_buf if trace.ndim == 2 else def_buf.reshape(-1)

        def run(gstate, times):
            if times is not None:
                t0 = time.perf_counter()
            kernel(_plane2d(gstate), trace2, arena2, def_buf, *tables)
            if times is not None:
                times["fold"] += time.perf_counter() - t0
            return values

        return run


# -- resolution ---------------------------------------------------------------

_CLASSES = {"numpy": NumpyBackend, "numba": NumbaBackend}
_INSTANCES: dict[str, ArrayBackend] = {}
_FALLBACK_WARNED: set[str] = set()


def resolve_backend(name=None, *, strict: bool = False) -> ArrayBackend:
    """Resolve a backend name (or instance) to a live backend.

    ``None`` means numpy.  A backend whose dependency is missing falls
    back to numpy with one warning per process (``strict=True`` raises
    :class:`BackendUnavailableError` instead) — the same shape as the
    ``FusionError`` → legacy fallback.  A name outside
    :data:`BACKEND_NAMES` always raises :class:`UnknownBackendError`.
    """
    if name is None:
        name = "numpy"
    if isinstance(name, ArrayBackend):
        return name
    check_backend_names((name,))
    inst = _INSTANCES.get(name)
    if inst is not None:
        return inst
    try:
        inst = _CLASSES[name]()
    except BackendUnavailableError as exc:
        if strict:
            raise
        if name not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(name)
            logger.warning(
                "%s backend unavailable (%s); falling back to numpy", name, exc
            )
        return resolve_backend("numpy")
    _INSTANCES[name] = inst
    return inst


def check_backend_names(names) -> tuple[str, ...]:
    """``names`` as a tuple, each one of :data:`BACKEND_NAMES`.

    A misspelt name raises :class:`UnknownBackendError` up front, so it
    can never pass for a known backend whose dependency is missing.
    """
    names = tuple(names)
    for name in names:
        if name not in BACKEND_NAMES:
            raise UnknownBackendError(
                f"unknown backend {name!r}; choose from {BACKEND_NAMES}"
            )
    return names


def available_backends() -> tuple[str, ...]:
    """Backends whose dependencies resolve on this machine."""
    out = []
    for name in BACKEND_NAMES:
        try:
            resolve_backend(name, strict=True)
        except BackendUnavailableError:
            continue
        out.append(name)
    return tuple(out)


def reset_backend_state() -> None:
    """Drop cached instances and the warn-once set (tests)."""
    _INSTANCES.clear()
    _FALLBACK_WARNED.clear()
