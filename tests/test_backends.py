"""Execution-backend seam: resolution, fallback, and kernel equivalence.

The contract under test (docs/ENGINE.md §6):

* ``resolve_backend`` maps names to live backends, falls back to numpy
  with exactly one warning per process when a dependency is missing
  (mirroring the ``FusionError`` → legacy fallback regression pin in
  test_regressions.py), and hard-fails only under ``strict=True``;
* the executor builds every fused stage through the backend's
  ``compile_stage`` — the only seam — and a run through it is
  bit-identical to plain numpy at every lane geometry, with the numpy
  gather/fold/commit phase split intact under profiling;
* the numba backend (when installed) is bit-identical too.
"""

import logging

import numpy as np
import pytest

import repro.core.backend as backend_mod
from repro.core.backend import (
    ArrayBackend,
    NumpyBackend,
    available_backends,
    resolve_backend,
    reset_backend_state,
)
from repro.core.boomerang import BoomerangConfig
from repro.core.compiler import GemCompiler, GemConfig
from repro.core.partition import PartitionConfig
from repro.errors import BackendUnavailableError, GemError, UnknownBackendError
from tests.helpers import RecordingBackend, random_circuit

try:
    import numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


@pytest.fixture(autouse=True)
def _clean_backend_state():
    reset_backend_state()
    yield
    reset_backend_state()


def _design(seed=7, n_ops=40, with_memory=False):
    circuit = random_circuit(seed, n_ops=n_ops, with_memory=with_memory)
    return GemCompiler(
        GemConfig(
            partition=PartitionConfig(gates_per_partition=400),
            boomerang=BoomerangConfig(width_log2=10),
        )
    ).compile(circuit)


class TestResolution:
    def test_none_means_numpy(self):
        assert resolve_backend(None).name == "numpy"
        assert isinstance(resolve_backend(None), NumpyBackend)

    def test_instance_passes_through(self):
        inst = RecordingBackend()
        assert resolve_backend(inst) is inst

    def test_unknown_name_raises_typed(self):
        with pytest.raises(BackendUnavailableError) as exc:
            resolve_backend("tpu")
        assert isinstance(exc.value, GemError)
        assert isinstance(exc.value, UnknownBackendError)
        assert "tpu" in str(exc.value)

    def test_instances_are_cached(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")

    def test_available_backends_always_has_numpy(self):
        assert "numpy" in available_backends()

    def test_cupy_is_not_a_backend(self):
        assert backend_mod.BACKEND_NAMES == ("numpy", "numba")
        with pytest.raises(UnknownBackendError):
            resolve_backend("cupy")

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed here")
    def test_strict_raises_when_numba_missing(self):
        with pytest.raises(BackendUnavailableError):
            resolve_backend("numba", strict=True)


class TestFallbackWarnsOnce:
    """Missing-dependency fallback mirrors the FusionError → legacy pin."""

    class _Unavailable(ArrayBackend):
        name = "numba"

        def __init__(self):
            raise BackendUnavailableError("deliberately unavailable for the test")

    def test_fallback_warns_once_and_still_resolves(self, monkeypatch, caplog):
        monkeypatch.setitem(backend_mod._CLASSES, "numba", self._Unavailable)
        with caplog.at_level(logging.WARNING, logger="repro.core.backend"):
            first = resolve_backend("numba")
            second = resolve_backend("numba")
        warnings = [
            r for r in caplog.records if "falling back to numpy" in r.getMessage()
        ]
        assert len(warnings) == 1, "exactly one fallback warning per process"
        assert "deliberately unavailable" in warnings[0].getMessage()
        assert first.name == "numpy" and second.name == "numpy"

    def test_simulator_falls_back_and_runs(self, monkeypatch, caplog):
        monkeypatch.setitem(backend_mod._CLASSES, "numba", self._Unavailable)
        design = _design()
        with caplog.at_level(logging.WARNING, logger="repro.core.backend"):
            sim = design.simulator(batch=4, backend="numba")
        assert sim.backend.name == "numpy"
        sim.step({})  # and it still simulates

    def test_legacy_mode_downgrades_compiled_backend(self, caplog):
        design = _design()
        with caplog.at_level(logging.INFO, logger="repro.core.interpreter"):
            sim = design.simulator(mode="legacy", backend=RecordingBackend())
        assert sim.mode == "legacy"
        assert sim.backend.name == "numpy"


class TestCompiledKernelEquivalence:
    """Stages compile only through ``compile_stage``, bit-for-bit."""

    @pytest.mark.parametrize("batch", [1, 3, 64, 128, 256])
    def test_generic_compile_stage_matches_numpy(self, batch):
        """A backend reached only through the generic
        ``ArrayBackend.compile_stage`` seam compiles every fused stage and
        runs bit-identically to plain numpy (256 lanes = K=4 planes)."""
        design = _design(seed=11, n_ops=60, with_memory=True)
        ref = design.simulator(batch=batch, backend="numpy")
        backend = RecordingBackend()
        dut = design.simulator(batch=batch, backend=backend)
        assert dut.mode == "fused" and dut.backend is backend
        assert backend.compiled == len(dut._fused.stages) >= 1
        rng = np.random.default_rng(batch)
        names = list(ref._pi_tables)
        for _ in range(24):
            vecs = [
                {n: int(v) for n, v in zip(names, rng.integers(0, 1 << 12, len(names)))}
                for _ in range(batch)
            ]
            outs_ref = ref.step_lanes(vecs)
            outs_dut = dut.step_lanes(vecs)
            assert outs_ref == outs_dut
        assert np.array_equal(ref.global_state, dut.global_state)
        for a, b in zip(ref.ram_arrays, dut.ram_arrays):
            assert np.array_equal(a, b)

    def test_profile_keeps_numpy_phase_split(self):
        """The numpy runner times gather, fold and commit separately at
        batch 1 (perfbench reads each from ``phase_times``)."""
        design = _design(seed=11, n_ops=60, with_memory=True)
        sim = design.simulator(batch=1, profile=True)
        for _ in range(8):
            sim.step({})
        for phase in ("gather", "fold", "commit"):
            assert sim.phase_times[phase] > 0.0, phase

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    @pytest.mark.parametrize("batch", [1, 64, 128])
    def test_numba_matches_numpy(self, batch):
        design = _design(seed=13, n_ops=60, with_memory=True)
        ref = design.simulator(batch=batch, backend="numpy")
        dut = design.simulator(batch=batch, backend="numba")
        assert dut.backend.name == "numba"
        rng = np.random.default_rng(batch)
        names = list(ref._pi_tables)
        for _ in range(24):
            vecs = [
                {n: int(v) for n, v in zip(names, rng.integers(0, 1 << 12, len(names)))}
                for _ in range(batch)
            ]
            assert ref.step_lanes(vecs) == dut.step_lanes(vecs)
        assert np.array_equal(ref.global_state, dut.global_state)


class TestOracleEnrollment:
    """Backends ride the differential oracle at rotated lane batches."""

    def test_backend_runs_as_extra_oracle_engine(self, monkeypatch):
        from repro.fuzz.designgen import generate_design, random_stimuli
        from repro.fuzz.oracle import OracleConfig, run_oracle

        # stand the numpy stage runner in for numba so the backend-DUT
        # lockstep runs without the real dependency
        class StandIn(RecordingBackend):
            name = "numba"

        monkeypatch.setitem(backend_mod._CLASSES, "numba", StandIn)
        gen = generate_design(1234, "mixed")
        stimuli = random_stimuli(gen.spec, 1234, 12)
        result = run_oracle(
            gen.spec,
            stimuli,
            OracleConfig(batches=(1, 128), backends=("numpy", "numba")),
        )
        assert result.ok
        assert "backend:numba" in result.coverage

    def test_unavailable_backend_skips_with_marker(self, monkeypatch):
        from repro.fuzz.designgen import generate_design, random_stimuli
        from repro.fuzz.oracle import OracleConfig, run_oracle

        monkeypatch.setitem(
            backend_mod._CLASSES, "numba", TestFallbackWarnsOnce._Unavailable
        )
        gen = generate_design(99, "mixed")
        stimuli = random_stimuli(gen.spec, 99, 8)
        result = run_oracle(
            gen.spec,
            stimuli,
            OracleConfig(batches=(1, 16), backends=("numpy", "numba")),
        )
        assert result.ok
        assert "backend-skip:numba" in result.coverage
        assert "backend:numba" not in result.coverage

    def test_unknown_backend_name_raises(self):
        """A misspelt backend is a typed error, never a silent skip."""
        from repro.fuzz.oracle import OracleConfig

        with pytest.raises(UnknownBackendError, match="numab"):
            OracleConfig(backends=("numpy", "numab"))
        with pytest.raises(UnknownBackendError):
            OracleConfig.from_json({"backends": ["numpy", "cupy"]})

    def test_config_round_trips_backends(self):
        from repro.fuzz.oracle import OracleConfig

        config = OracleConfig(backends=("numpy", "numba"))
        back = OracleConfig.from_json(config.to_json())
        assert back.backends == ("numpy", "numba")
        # older configs without the key hydrate with the default
        legacy = OracleConfig.from_json({"batches": [1, 4]})
        assert legacy.backends == ("numpy",)
