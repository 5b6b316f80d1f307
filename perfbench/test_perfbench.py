"""The benchmark's own tests (not part of the repository's tier-1 suite).

Run from the repository root with ``python -m pytest perfbench -q``; the
traced runs compile rocketchip cold, so the file takes a few minutes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._prepare_environment()

import inputs  # noqa: E402
import ledger  # noqa: E402

COUNTS = (
    "eaig.gates",
    "partition.partitions",
    "partition.stages",
    "placement.layers_max",
    "bitstream.bytes",
    "fused_array_ops_per_cycle",
    "fold_steps_per_cycle",
    "bytes_moved_per_cycle",
)


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    script = cwd / "perfbench" / "run.py"
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = bench(
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_counts_repeat_and_ledger_accounts_for_wall_time():
    first = result("rocket-b1", 1, 1, 1)
    second = result("rocket-b1", 1, 1, 1)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        m = {name: entry["value"] for name, entry in res["metrics"].items()}
        parts = [*run.COMPILE_LAYERS, "compile.rest_s"]
        assert sum(m[name] for name in parts) == pytest.approx(m["compile.wall_s"])
        assert m["compile.rest_s"] >= 0
        cycle = [n for n in m if n.startswith("cycle.") and n != "cycle.wall_us"]
        assert sum(m[name] for name in cycle) == pytest.approx(m["cycle.wall_us"])
        assert m["cycle.rest_us"] >= -run.LEDGER_TOLERANCE * m["cycle.wall_us"]
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_second_seed_changes_stimuli_and_passes_golden_checks():
    def boots(progs):
        return [p.boot for p in progs]

    assert boots(inputs.rocket_programs(1)) != boots(inputs.rocket_programs(2))
    assert boots(inputs.sweep_programs(1, 4)) != boots(inputs.sweep_programs(2, 4))
    lanes = inputs.sweep_programs(2, 64)
    assert len({tuple(p.expected_out) for p in lanes}) > 1  # lanes really differ

    b1 = result("rocket-b1", 2, 1, 0)
    assert b1["correct"] and b1["failed"] == 0 and b1["attempted"] >= 5
    sweep = result("rocket-sweep-b1024", 2, 1, 0)
    assert sweep["correct"] and sweep["failed"] == 0
    assert sweep["attempted"] == run.SWEEP_LANES


def test_golden_mismatch_is_counted_not_retried():
    from repro.harness.runner import compile_design

    prog = inputs.rocket_programs(1)[0]
    wrong = dataclasses.replace(prog, expected_out=[prog.expected_out[0] ^ 1])
    rec = ledger.SimRecord(compile_design(run.DESIGN).simulator())
    verdict = ledger.run_window([rec], [[prog], [wrong]], 0.0)
    assert (verdict.attempted, verdict.failed) == (2, 1)


def test_artifact_cache_is_keyed_by_the_source_tree(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(run.ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    assert run.source_digest(src) == run.source_digest()
    init = src / "repro" / "__init__.py"
    init.write_text(init.read_text(encoding="utf-8") + "# changed\n", encoding="utf-8")
    assert run.source_digest(src) != run.source_digest()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "rocket-b1", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
