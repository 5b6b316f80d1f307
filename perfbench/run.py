"""GEM end-to-end benchmark: cold compile, batch-1 cycles, 1024-lane sweep.

Run from the repository root::

    python3 perfbench/run.py --workload rocket-b1 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with every timer
off; ``--trace 1`` prints the per-layer ledger of a separate traced run.
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are a human-readable summary.  See
``perfbench/README.md`` for the workloads, the layer -> metric ->
workload map and the measured baseline.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the seed the run length and bounds were tuned on; check a claimed gain
#: on another seed too
TUNED_SEED = 1
DESIGN = "rocketchip"
SWEEP_LANES = 1024
#: warm set-ups per run, half before and half after the cycle window;
#: setup_s is their upper quartile.  The host switches every few seconds
#: between phases in which one set-up takes about 0.35 s or 0.5 s, and a
#: run's share of each varies; the median of the slower half sits in the
#: slow phase, as the other end-to-end statistics do (ledger.step_metrics).
SETUP_REPS = 16
#: take a standalone timed readback every this many traced cycles
READBACK_EVERY = {1: 1, SWEEP_LANES: 8}
#: lane_cycles_per_s is taken over blocks of this many steps (about 0.15 s
#: at batch 1; one 70-ms step at 1024 lanes)
RATE_BLOCK = {1: 256, SWEEP_LANES: 1}
#: the cycle ledger may overshoot the step wall time by this share (the
#: readback is timed standalone, not inside the step) and still count as
#: accounting for it
LEDGER_TOLERANCE = 0.05

WORKLOADS = ("compile-cold", "rocket-b1", "rocket-sweep-b1024")
COMPILE_LAYERS = (
    "rtl.elaborate_s",
    "synthesis.synthesize_s",
    "depth_opt.optimize_s",
    "partition.partition_design_s",
    "merging.merge_partitions_s",
    "bitstream.assemble_s",
    "interpreter.decode_s",
    "fused.fuse_s",
)


def source_digest(src: Path = ROOT / "src") -> str:
    """sha256 over every file under ``src`` (relative path and bytes)."""
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _prepare_environment() -> None:
    """Keep every file the run writes inside the checkout, pin numeric
    libraries to one thread, and make ``repro`` importable from ``src``.

    The artifact cache is keyed by the source tree, so each version of the
    code compiles (untimed) and times its own artifact, never one that
    another version left behind.
    """
    os.environ["GEM_CACHE_DIR"] = str(ROOT / ".perfbench_cache" / source_digest()[:16])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def _clear_engine_caches() -> None:
    from repro.core.fused import clear_fusion_cache
    from repro.core.interpreter import clear_decode_cache

    clear_decode_cache()
    clear_fusion_cache()


def warm_setup(batch: int, reps: int):
    """Time ``reps`` artifact-cache loads, each plus a cold decode and fuse.

    Returns the last design and simulator and the list of times.  The
    first call on a fresh checkout compiles the design into the artifact
    cache; that compile is not timed.  Each repeat first drops the previous
    design and simulator, so only one of each is ever alive and
    ``peak_rss_mb`` sees the program's footprint.
    """
    from repro.harness import runner

    runner.compile_design(DESIGN)
    times = []
    for _ in range(reps):
        design = sim = None
        runner._memory_cache.clear()
        _clear_engine_caches()
        gc.collect()
        t0 = time.perf_counter()
        design = runner.compile_design(DESIGN)
        sim = design.simulator(batch=batch)
        times.append(time.perf_counter() - t0)
    return design, sim, times


def cold_setup(batch: int, layers: dict[str, float] | None = None):
    """``design_circuit`` to a ready simulator with every cache bypassed.

    With ``layers`` given, each compile pass, decode and fuse is timed
    around its public entry point, the simulator is built with phase
    timers on, and ``compile.rest_s`` takes what the layers leave.
    """
    from ledger import timed_calls
    from repro.core import compiler, fused
    from repro.harness.runner import design_circuit

    _clear_engine_caches()
    if layers is None:
        t0 = time.perf_counter()
        design = compiler.GemCompiler(compiler.GemConfig()).compile(design_circuit(DESIGN))
        sim = design.simulator(batch=batch)
        return design, sim, time.perf_counter() - t0

    targets = {
        "synthesis.synthesize_s": (compiler, "synthesize"),
        "depth_opt.optimize_s": (compiler, "depth_optimize"),
        "partition.partition_design_s": (compiler, "partition_design"),
        "merging.merge_partitions_s": (compiler, "merge_partitions"),
        "bitstream.assemble_s": (compiler, "assemble"),
        "fused.fuse_s": (fused, "fuse"),
    }
    with timed_calls(layers, targets):
        t0 = time.perf_counter()
        circuit = design_circuit(DESIGN)
        t1 = time.perf_counter()
        design = compiler.GemCompiler(compiler.GemConfig()).compile(circuit)
        t2 = time.perf_counter()
        sim = design.simulator(batch=batch, profile=True)
        t3 = time.perf_counter()
    layers["rtl.elaborate_s"] = t1 - t0
    layers["interpreter.decode_s"] = (t3 - t2) - layers["fused.fuse_s"]
    layers["compile.wall_s"] = t3 - t0
    layers["compile.rest_s"] = layers["compile.wall_s"] - sum(
        layers[name] for name in COMPILE_LAYERS
    )
    return design, sim, t3 - t0


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Set up, measure and golden-check one workload.

    Returns ``(verdict, values, summary)``: the golden-check tally, the
    metric values by name, and human-readable summary lines.
    """
    import inputs
    import ledger

    if workload == "rocket-sweep-b1024":
        batch = SWEEP_LANES
        passes = [inputs.sweep_programs(seed, SWEEP_LANES)]
    else:
        batch = 1
        passes = [[prog] for prog in inputs.rocket_programs(seed)]

    layers: dict[str, float] = {}
    if trace:
        # Every traced run starts cold, so every workload reports the whole
        # compile ledger; setup_s comes from the untraced runs.
        design, traced_sim, setup = cold_setup(batch, layers)
        records = [
            ledger.SimRecord(design.simulator(batch=batch)),
            ledger.SimRecord(traced_sim, READBACK_EVERY[batch]),
        ]
    elif workload == "compile-cold":
        design, sim, setup = cold_setup(batch)
        records = [ledger.SimRecord(sim)]
    else:
        design, sim, setup_times = warm_setup(batch, SETUP_REPS // 2)
        records = [ledger.SimRecord(sim)]
    plain = records[0]

    verdict = ledger.run_window(records, passes, seconds)
    if not trace and workload != "compile-cold":
        # the other half of the warm set-ups, some 20 s of host time later
        plain.sim = design = sim = None
        setup_times += warm_setup(batch, SETUP_REPS - SETUP_REPS // 2)[2]
        setup = statistics.quantiles(setup_times, n=4)[2]
    steps = ledger.step_metrics(plain, batch, RATE_BLOCK[batch])
    summary = [
        f"workload {workload}: seed {seed} (tuned on seed {TUNED_SEED}), batch {batch}",
        f"golden check: {verdict.failed} of {verdict.attempted} output streams differ",
        *verdict.failures[:5],
        "step latency: p50 {step_us_p50:.1f} us, p95 {step_us_p95:.1f} us, "
        "p99 {step_us_p99:.1f} us over {n} samples".format(n=len(plain.step_s), **steps),
    ]
    if not trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return verdict, {"setup_s": setup, **steps, "peak_rss_mb": peak_rss_mb}, summary

    traced = records[1]
    cycle = ledger.cycle_ledger(traced)
    report = design.report
    overhead = statistics.median(traced.step_s) / statistics.median(plain.step_s) - 1.0
    values = {
        **layers,
        **cycle,
        "eaig.gates": report.gates,
        "partition.partitions": report.partitions,
        "partition.stages": report.stages,
        "placement.layers_max": report.layers,
        "bitstream.bytes": report.bitstream_bytes,
        **ledger.work_counts(plain, traced.sim.engine.words),
        "mismatch_frac": verdict.failed / max(1, verdict.attempted),
        "trace.overhead_frac": overhead,
    }
    sha = hashlib.sha256(design.program.words.tobytes()).hexdigest()
    compile_parts = " + ".join(f"{layers[name]:.3f}" for name in COMPILE_LAYERS)
    cycle_parts = " + ".join(f"{v:.1f}" for k, v in cycle.items() if k != "cycle.wall_us")
    summary += [
        f"bitstream sha256 {sha} ({report.bitstream_bytes} bytes, cold compile)",
        f"compile ledger [s]: {', '.join(COMPILE_LAYERS)}, rest",
        f"  {compile_parts} + {layers['compile.rest_s']:.3f} = wall {layers['compile.wall_s']:.3f}",
        "cycle ledger [us]: inject, gather, fold, commit, readback, rest",
        f"  {cycle_parts} = wall {cycle['cycle.wall_us']:.1f}",
        f"tracing overhead: {overhead:+.1%} per step (profiled vs plain median)",
    ]
    for name, rest, wall in (
        ("compile", layers["compile.rest_s"], layers["compile.wall_s"]),
        ("cycle", cycle["cycle.rest_us"], cycle["cycle.wall_us"]),
    ):
        verdict_text = "ok" if rest >= -LEDGER_TOLERANCE * wall else "PARTS EXCEED WALL TIME"
        summary.append(f"accounting {name}: remainder {rest / wall:+.1%} of wall, {verdict_text}")
    return verdict, values, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _prepare_environment()
    verdict, values, summary = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = set(declared) - set(values)
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    for line in summary:
        print(line)
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in declared.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
