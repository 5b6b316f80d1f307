"""Seeded inputs and golden results for the benchmark workloads.

Every stimulus the simulator sees is generated here from the workload
seed.  The programs, their boot stimulus and the expected ``out`` stream
come from :func:`repro.designs.workloads._cpu_workload`, which runs the
MiniRV software model (``reference_execute``) on the same program and
data; only the seed-to-data code is the benchmark's own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.designs.isa_mini import Assembler
from repro.designs.workloads import (
    _cpu_workload,
    program_dhrystone,
    program_memcpy,
    program_pmp,
    program_qsort,
    program_spmv,
)

#: rocketchip's data-memory depth (RocketScale default)
DMEM_DEPTH = 256
#: non-zeros per spmv row in the lane sweep; the column indices address an
#: x-vector of SWEEP_COLS words, so every lane gathers from its own places
SWEEP_NNZ = 6
SWEEP_COLS = 8


@dataclass
class Program:
    """One MiniRV program with its boot stimulus and golden output."""

    name: str
    expected_out: list[int]
    #: boot-bus vectors loading the program and its data memory
    boot: list[dict[str, int]]
    #: cycles after boot by which the core must have halted
    run_budget: int


def make_program(name: str, asm: Assembler, dmem: dict[int, int] | None = None) -> Program:
    wl = _cpu_workload("rocket_like", name, asm, dmem, DMEM_DEPTH)
    # the workload is the boot vectors followed by one idle {} per run cycle
    boot = [vec for vec in wl.stimuli if vec]
    return Program(name, list(wl.expected_out), boot, len(wl.stimuli) - len(boot))


def _rng(seed: int, stream: str) -> random.Random:
    # str seeds hash through sha512, so streams are stable across processes
    return random.Random(f"{seed}:{stream}")


def spmv_data(rng: random.Random, nnz: int, cols: int) -> dict[int, int]:
    """dmem image of one sparse row: col indices, values and the x-vector
    at the addresses :func:`program_spmv` reads."""
    dmem = {}
    for k in range(nnz):
        dmem[k] = rng.randrange(cols)
        dmem[32 + k] = rng.randrange(1, 9)
    for j in range(cols):
        dmem[96 + j] = rng.randrange(1, 50)
    return dmem


def rocket_programs(seed: int) -> list[Program]:
    """The five MiniRV programs of ``rocket-b1`` with seed-drawn data
    (dhrystone and pmp read no data memory, so they are seed-independent)."""
    memcpy = _rng(seed, "memcpy")
    qsort = _rng(seed, "qsort")
    return [
        make_program("dhrystone", program_dhrystone()),
        make_program(
            "memcpy", program_memcpy(), {i: memcpy.randrange(1, 1000) for i in range(24)}
        ),
        make_program("pmp", program_pmp()),
        make_program("qsort", program_qsort(), {i: qsort.randrange(1, 100) for i in range(10)}),
        make_program("spmv", program_spmv(), spmv_data(_rng(seed, "spmv"), 12, 16)),
    ]


def sweep_programs(seed: int, lanes: int) -> list[Program]:
    """One spmv program per lane, each on its own seed-drawn row."""
    rng = _rng(seed, "sweep")
    asm = program_spmv(SWEEP_NNZ)
    return [
        make_program(f"spmv[{lane}]", asm, spmv_data(rng, SWEEP_NNZ, SWEEP_COLS))
        for lane in range(lanes)
    ]
