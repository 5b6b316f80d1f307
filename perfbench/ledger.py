"""Timing from outside the simulator: compile-layer wrappers and the
golden-checked cycle loop.

Nothing here reaches into the simulator's internals.  Compile layers are
timed by wrapping the public pass functions at the names the compiler
calls them by (:func:`timed_calls`); cycle phases come from the
interpreter's own ``profile=True`` ``phase_times``; PO readback is a
standalone timed ``outputs()`` / ``outputs_lanes()`` call.  Whatever the
named parts do not cover is reported as an explicit remainder.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from inputs import Program

PHASES = ("inject", "gather", "fold", "commit")
#: CycleCounters fields summed over the first full round of passes
COUNTED = ("cycles", "fused_array_ops", "fold_steps", "global_reads", "global_writes")


@contextmanager
def timed_calls(totals: dict[str, float], targets: dict[str, tuple[object, str]]):
    """Accumulate the wall time of every call to ``getattr(owner, attr)``
    into ``totals[layer]`` while the context is open, then restore."""
    originals = []
    for layer, (owner, attr) in targets.items():
        fn = getattr(owner, attr)
        originals.append((owner, attr, fn))
        totals.setdefault(layer, 0.0)

        def wrapper(*args, _fn=fn, _layer=layer, **kwargs):
            t0 = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                totals[_layer] += time.perf_counter() - t0

        setattr(owner, attr, wrapper)
    try:
        yield totals
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


@dataclass
class SimRecord:
    """One simulator driven by :func:`run_window`, and what it measured."""

    sim: object
    #: take a standalone timed readback every this many cycles (0 = never)
    readback_every: int = 0
    step_s: list[float] = field(default_factory=list)
    readback_s: list[float] = field(default_factory=list)
    phase_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    cycles: int = 0
    #: CycleCounters sums over the first full round (deterministic counts)
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTED, 0))


@dataclass
class Verdict:
    """Golden-check tally: output streams checked and streams that differ."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


def run_pass(
    records: list[SimRecord],
    lanes: list[Program],
    verdict: Verdict,
    deadline: float | None,
    count: bool,
) -> None:
    """Boot and run one program per lane on every simulator in lockstep,
    checking each lane's ``out`` stream against its golden model.

    A lane passes when it halts having emitted exactly the reference
    ``out`` stream; running out of cycle budget is a failure.  A pass
    cut short by ``deadline`` only checks what it saw so far: a stream
    that already diverged fails, a consistent prefix is not counted.
    """
    perf = time.perf_counter
    batch = len(lanes)
    boots = [p.boot for p in lanes]
    boot_len = len(boots[0])
    budget = boot_len + max(p.run_budget for p in lanes)
    idle = [{}] * batch
    for rec in records:
        rec.sim.reset()
    observed = [[[] for _ in lanes] for _ in records]
    halted = [[False] * batch for _ in records]
    live = [batch] * len(records)
    truncated = False
    for cycle in range(budget):
        if deadline is not None and perf() >= deadline:
            truncated = True
            break
        vecs = [boot[cycle] for boot in boots] if cycle < boot_len else idle
        for r, rec in enumerate(records):
            sim = rec.sim
            if batch == 1:
                t0 = perf()
                outs = [sim.step(vecs[0])]
                rec.step_s.append(perf() - t0)
            else:
                t0 = perf()
                outs = sim.step_lanes(vecs)
                rec.step_s.append(perf() - t0)
            if rec.readback_every and cycle % rec.readback_every == 0:
                t0 = perf()
                if batch == 1:
                    sim.outputs()
                else:
                    sim.outputs_lanes()
                rec.readback_s.append(perf() - t0)
            obs, done = observed[r], halted[r]
            for lane, out in enumerate(outs):
                if done[lane]:
                    continue
                if out["out_valid"]:
                    obs[lane].append(out["out"])
                if out["halted"]:
                    done[lane] = True
                    live[r] -= 1
        if not any(live):
            break
    for r, rec in enumerate(records):
        sim = rec.sim
        rec.cycles += sim.counters.cycles
        for phase in PHASES:
            rec.phase_s[phase] += sim.phase_times[phase]
        if count:
            for key in COUNTED:
                rec.counts[key] += getattr(sim.counters, key)
        for lane, prog in enumerate(lanes):
            got = observed[r][lane]
            if halted[r][lane] or not truncated:
                ok = halted[r][lane] and got == prog.expected_out
            elif got == prog.expected_out[: len(got)]:
                continue  # cut off mid-program, consistent so far
            else:
                ok = False
            verdict.attempted += 1
            if not ok:
                verdict.failed += 1
                verdict.failures.append(
                    f"{prog.name}: expected {prog.expected_out}, got {got}"
                    + ("" if halted[r][lane] else " (no halt)")
                )


def run_window(
    records: list[SimRecord], passes: list[list[Program]], seconds: float
) -> Verdict:
    """Run ``passes`` round-robin: always one full round, then more until
    ``seconds`` have gone by since the first cycle (the last pass is then
    cut at the deadline)."""
    verdict = Verdict()
    deadline = time.perf_counter() + seconds
    done = 0
    while done < len(passes) or time.perf_counter() < deadline:
        first_round = done < len(passes)
        run_pass(
            records,
            passes[done % len(passes)],
            verdict,
            None if first_round else deadline,
            count=first_round,
        )
        done += 1
    return verdict


def step_metrics(rec: SimRecord, batch: int, block: int) -> dict[str, float]:
    """End-to-end cycle metrics of one (untraced) simulator.

    This host alternates, for seconds at a time, between phases in which
    the same step runs up to twice as fast, and the share of each phase in
    a run varies.  Statistics that sit inside the slow phase stay put: the
    throughput is the rate that 90% of the blocks of ``block`` consecutive
    steps reach, and the latency is the 95th percentile.
    """
    step = np.asarray(rec.step_s)
    blocks = step[: step.size // block * block].reshape(-1, block).sum(axis=1)
    p50, p95, p99 = np.percentile(step, [50, 95, 99]) * 1e6
    return {
        "lane_cycles_per_s": batch * block / float(np.percentile(blocks, 90)),
        "step_us_p50": float(p50),
        "step_us_p95": float(p95),
        "step_us_p99": float(p99),
    }


def cycle_ledger(rec: SimRecord) -> dict[str, float]:
    """Per-cycle layer times of a profiled simulator, in microseconds.

    ``cycle.wall_us`` is the mean ``step`` wall time; the remainder
    ``cycle.rest_us`` is what the four phases and the standalone readback
    estimate leave of it (dispatch, dict building, ...).
    """
    cycles = max(1, rec.cycles)
    ledger = {f"cycle.{p}_us": rec.phase_s[p] / cycles * 1e6 for p in PHASES}
    ledger["cycle.readback_us"] = float(np.mean(rec.readback_s)) * 1e6
    wall = float(np.mean(rec.step_s)) * 1e6
    ledger["cycle.rest_us"] = wall - sum(ledger.values())
    ledger["cycle.wall_us"] = wall
    return ledger


def work_counts(rec: SimRecord, lane_words: int) -> dict[str, float]:
    """Per-cycle work counts over the first full round (deterministic for a
    seed).  Bytes moved are the global-state word transfers, each a
    ``lane_words``-wide plane of uint64."""
    c = rec.counts
    cycles = max(1, c["cycles"])
    return {
        "fused_array_ops_per_cycle": c["fused_array_ops"] / cycles,
        "fold_steps_per_cycle": c["fold_steps"] / cycles,
        "bytes_moved_per_cycle": (c["global_reads"] + c["global_writes"])
        * lane_words
        * 8
        / cycles,
    }
