"""Sampler correctness: differential vs noiseless backends, frame-vs-
stabilizer validation, proxy convergence, method selection, estimator,
and a pinned digest of the sampled bits."""

import hashlib

import numpy as np
import pytest

from repro.fidelity import (FidelityEstimate, circuit_fidelity,
                            estimate_fidelity, wilson_interval)
from repro.noise import (NoiseModel, NoiseSamplingError, choose_method,
                         idle_channels_from_lifetimes, record_fidelity,
                         run_noisy_stabilizer, sample_noisy,
                         survival_fidelity)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.statevector import run_multishot

DEPOLARIZING = NoiseModel(gate_1q=0.05, gate_2q=0.1, measure_flip=0.02)


def ghz_circuit(n=3):
    circuit = QuantumCircuit(n, n)
    circuit.h(0)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    for q in range(n):
        circuit.measure(q, q)
    return circuit


def deterministic_feedback_circuit():
    """All measurement outcomes deterministic in every error branch:
    |1> prep, CX fan-out, a conditional-X correction, final readout."""
    circuit = QuantumCircuit(3, 3)
    circuit.x(0)
    circuit.cx(0, 1)
    circuit.measure(1, 0)
    circuit.x(2, condition=(0, 1))   # Pauli feedback
    circuit.cx(1, 2)
    circuit.measure(0, 1)
    circuit.measure(2, 2)
    return circuit


class TestZeroRateDifferential:
    """A zero-rate NoiseModel reproduces the noiseless backends exactly."""

    def test_statevector_path_bit_identical(self, rng_seed):
        circuit = ghz_circuit()
        sample = sample_noisy(circuit, NoiseModel(), 40, seed=rng_seed,
                              method="statevector")
        reference = run_multishot(circuit, 40, seed=rng_seed)
        assert np.array_equal(sample.noisy_bits, reference)
        assert np.array_equal(sample.reference_bits, reference)
        assert sample.record_error_count == 0
        assert bool(sample.survival.all())

    def test_frame_path_no_flips(self, rng_seed):
        sample = sample_noisy(ghz_circuit(), NoiseModel(), 40,
                              seed=rng_seed, method="frame")
        assert int(np.count_nonzero(sample.flips)) == 0
        assert bool(sample.survival.all())

    def test_conditional_reset_respects_condition(self, rng_seed):
        # Regression: the compiled program used to drop op.condition on
        # resets, so the statevector path reset unconditionally.
        from repro.quantum.circuit import Operation
        circuit = QuantumCircuit(1, 2)
        circuit.x(0)
        circuit.measure(0, 0)                       # c0 = 1
        circuit.add(Operation("reset", (0,), condition=(0, 0)))  # skipped
        circuit.measure(0, 1)                       # c1 must stay 1
        sample = sample_noisy(circuit, NoiseModel(), 10, seed=rng_seed,
                              method="statevector")
        assert np.array_equal(sample.noisy_bits,
                              np.ones((10, 2), dtype=np.int8))
        taken = QuantumCircuit(1, 2)
        taken.x(0)
        taken.measure(0, 0)
        taken.add(Operation("reset", (0,), condition=(0, 1)))   # taken
        taken.measure(0, 1)
        sample = sample_noisy(taken, NoiseModel(), 10, seed=rng_seed,
                              method="statevector")
        assert np.array_equal(sample.noisy_bits[:, 1],
                              np.zeros(10, dtype=np.int8))
        stabilizer = run_noisy_stabilizer(taken, NoiseModel(), 10,
                                          seed=rng_seed)
        assert np.array_equal(stabilizer[:, 1], np.zeros(10, dtype=np.int8))


class TestFrameVsStabilizer:
    def test_bit_identical_on_deterministic_circuit(self, rng_seed):
        circuit = deterministic_feedback_circuit()
        frame = sample_noisy(circuit, DEPOLARIZING, 400, seed=rng_seed,
                             method="frame")
        stabilizer = run_noisy_stabilizer(circuit, DEPOLARIZING, 400,
                                          seed=rng_seed)
        assert np.array_equal(frame.noisy_bits, stabilizer)

    def test_distribution_agrees_on_random_circuit(self, rng_seed):
        # GHZ records are random; compare noisy-bit parity statistics.
        circuit = ghz_circuit()
        shots = 4000
        frame = sample_noisy(circuit, DEPOLARIZING, shots, seed=rng_seed,
                             method="frame")
        stabilizer = run_noisy_stabilizer(circuit, DEPOLARIZING, shots,
                                          seed=rng_seed + 1)
        frame_mismatch = (frame.noisy_bits[:, 0] !=
                          frame.noisy_bits[:, 2]).mean()
        stab_mismatch = (stabilizer[:, 0] != stabilizer[:, 2]).mean()
        assert frame_mismatch == pytest.approx(stab_mismatch, abs=0.04)

    def test_stabilizer_runner_rejects_non_clifford(self):
        circuit = QuantumCircuit(1, 1)
        circuit.t(0)
        circuit.measure(0, 0)
        with pytest.raises(NoiseSamplingError, match="Clifford"):
            run_noisy_stabilizer(circuit, DEPOLARIZING, 2)


class TestFrameVsStatevector:
    def test_bit_identical_flips_on_deterministic_circuit(self, rng_seed):
        # Same site draws, deterministic records: both exact methods
        # must produce the same flip table shot for shot.
        circuit = deterministic_feedback_circuit()
        frame = sample_noisy(circuit, DEPOLARIZING, 300, seed=rng_seed,
                             method="frame")
        statevector = sample_noisy(circuit, DEPOLARIZING, 300,
                                   seed=rng_seed, method="statevector")
        assert np.array_equal(frame.flips, statevector.flips)
        assert np.array_equal(frame.noisy_bits, statevector.noisy_bits)


class TestSwapAndDelay:
    def test_swap_frame_rule_matches_statevector(self, rng_seed):
        # Regression: 'swap' had no frame propagation rule and crashed.
        circuit = QuantumCircuit(3, 3)
        circuit.x(0)
        circuit.swap(0, 1)
        circuit.swap(1, 2)
        for q in range(3):
            circuit.measure(q, q)
        frame = sample_noisy(circuit, DEPOLARIZING, 200, seed=rng_seed,
                             method="frame")
        statevector = sample_noisy(circuit, DEPOLARIZING, 200,
                                   seed=rng_seed, method="statevector")
        assert np.array_equal(frame.noisy_bits, statevector.noisy_bits)

    def test_zero_noise_swap_runs(self, rng_seed):
        circuit = QuantumCircuit(2, 2)
        circuit.x(0)
        circuit.swap(0, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        sample = sample_noisy(circuit, NoiseModel(), 4, seed=rng_seed,
                              method="frame")
        assert np.array_equal(sample.noisy_bits,
                              np.tile([0, 1], (4, 1)))

    def test_delay_damping_needs_config(self):
        # Regression: with config=None (lifetime-integrated idle
        # channels active) delay slots must not add damping sites —
        # that would charge the decoder-wait decay twice.
        from repro.noise.sampler import compile_noise_program
        circuit = QuantumCircuit(1)
        circuit.gate("delay", 0, params=(5000.0,))
        model = NoiseModel(t1_us=150.0)
        _, without_config = compile_noise_program(circuit, model, None,
                                                  None)
        assert without_config == 0
        from repro.sim.config import SimulationConfig
        _, with_config = compile_noise_program(circuit, model, None,
                                               SimulationConfig())
        assert with_config == 1


class TestProxyConvergence:
    def test_idle_only_survival_matches_circuit_fidelity(self, rng_seed):
        # Measurement-free circuit + idle-only channels: the expected
        # survival is EXACTLY the closed-form proxy.
        n = 5
        circuit = QuantumCircuit(n)
        for q in range(n):
            circuit.h(q)
        for q in range(n - 1):
            circuit.cx(q, q + 1)
        lifetimes = {q: 30000.0 + 8000.0 * q for q in range(n)}
        idle = idle_channels_from_lifetimes(lifetimes, t1_us=150.0)
        sample = sample_noisy(circuit, NoiseModel(t1_us=150.0), 20000,
                              seed=rng_seed, idle_channels=idle)
        estimate = survival_fidelity(sample)
        proxy = circuit_fidelity(lifetimes, t1_us=150.0)
        assert estimate.ci_low - 0.005 <= proxy <= estimate.ci_high + 0.005


class TestMethodSelection:
    def test_auto_prefers_frame_for_clifford(self):
        assert choose_method(ghz_circuit()) == "frame"

    def test_auto_statevector_for_small_non_clifford(self):
        circuit = QuantumCircuit(4, 4)
        circuit.t(0)
        assert choose_method(circuit) == "statevector"

    def test_auto_frame_approx_beyond_statevector_reach(self):
        circuit = QuantumCircuit(30)
        circuit.t(0)
        assert choose_method(circuit) == "frame_approx"

    def test_auto_routes_conditional_resets_to_statevector(self):
        # Clifford, but frame paths cannot branch resets on noisy bits.
        from repro.quantum.circuit import Operation
        circuit = QuantumCircuit(2, 1)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.add(Operation("reset", (1,), condition=(0, 1)))
        assert choose_method(circuit) == "statevector"
        sample = sample_noisy(circuit, DEPOLARIZING, 8, method="auto")
        assert sample.method == "statevector"
        big = QuantumCircuit(30, 1)
        big.measure(0, 0)
        big.add(Operation("reset", (1,), condition=(0, 1)))
        with pytest.raises(NoiseSamplingError, match="no sampling method"):
            choose_method(big)

    def test_frame_rejects_non_clifford(self):
        circuit = QuantumCircuit(2, 1)
        circuit.t(0)
        circuit.measure(0, 0)
        with pytest.raises(NoiseSamplingError, match="Clifford"):
            sample_noisy(circuit, DEPOLARIZING, 4, method="frame")

    def test_frame_approx_runs_non_clifford(self, rng_seed):
        circuit = QuantumCircuit(3, 3)
        circuit.h(0)
        circuit.t(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        for q in range(3):
            circuit.measure(q, q)
        sample = sample_noisy(circuit, DEPOLARIZING, 200, seed=rng_seed,
                              method="frame_approx")
        assert sample.method == "frame_approx"
        assert 0 < sample.record_error_count < 200

    def test_chunking_is_invisible(self, rng_seed, monkeypatch):
        import repro.noise.sampler as sampler_module
        circuit = deterministic_feedback_circuit()
        whole = sample_noisy(circuit, DEPOLARIZING, 100, seed=rng_seed,
                             method="frame")
        monkeypatch.setattr(sampler_module, "_MAX_UNIFORM_ENTRIES", 64)
        chunked = sample_noisy(circuit, DEPOLARIZING, 100, seed=rng_seed,
                               method="frame")
        assert np.array_equal(whole.flips, chunked.flips)
        assert np.array_equal(whole.survival, chunked.survival)

    def test_statevector_chunking_is_invisible(self, rng_seed, monkeypatch):
        # Chunks after the first re-seed their measurement streams from
        # the absolute shot index; random outcomes, feedback and resets
        # make any misalignment visible.
        import repro.noise.sampler as sampler_module
        from repro.testing import random_dynamic_circuit
        circuit = random_dynamic_circuit(3, 40, seed=rng_seed % 1000)
        whole = sample_noisy(circuit, DEPOLARIZING, 40, seed=rng_seed,
                             method="statevector")
        monkeypatch.setattr(sampler_module, "_MAX_CHUNK_AMPLITUDES", 24)
        chunked = sample_noisy(circuit, DEPOLARIZING, 40, seed=rng_seed,
                               method="statevector")
        assert np.array_equal(whole.noisy_bits, chunked.noisy_bits)
        assert np.array_equal(whole.reference_bits, chunked.reference_bits)
        assert np.array_equal(whole.record_error, chunked.record_error)
        assert np.array_equal(whole.survival, chunked.survival)
        assert 0 < whole.record_error_count < 40


class TestEstimator:
    def test_wilson_interval_extremes(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and 0.0 < high < 0.15
        low, high = wilson_interval(50, 50)
        assert 0.85 < low < 1.0 and high == 1.0
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)

    def test_record_and_survival_fidelity(self, rng_seed):
        sample = sample_noisy(deterministic_feedback_circuit(),
                              DEPOLARIZING, 500, seed=rng_seed)
        record = record_fidelity(sample)
        survival = survival_fidelity(sample)
        assert 0.0 < survival.estimate <= record.estimate <= 1.0
        assert record.ci_low <= record.estimate <= record.ci_high

    def test_estimate_fidelity_statistics(self, rng_seed):
        circuit = deterministic_feedback_circuit()
        est = estimate_fidelity(circuit, DEPOLARIZING, 200, seed=rng_seed)
        assert isinstance(est, FidelityEstimate)
        assert est.method == "frame"
        assert est.error_rate == pytest.approx(1.0 - est.estimate)
        with pytest.raises(ValueError, match="statistic"):
            estimate_fidelity(circuit, DEPOLARIZING, 10, statistic="nope")

    def test_fidelity_decreases_with_noise(self, rng_seed):
        circuit = deterministic_feedback_circuit()
        quiet = estimate_fidelity(
            circuit, NoiseModel(gate_1q=1e-4, gate_2q=1e-3), 2000,
            seed=rng_seed)
        loud = estimate_fidelity(
            circuit, NoiseModel(gate_1q=1e-2, gate_2q=1e-1), 2000,
            seed=rng_seed)
        assert loud.estimate < quiet.estimate


class TestPinnedSamples:
    """Speed work on the sampler must not change one sampled bit.

    The digest covers every ``NoiseSample`` array and the method of the
    eleven distinct ``paper`` circuits at scale 0.03 (the circuits of a
    warm benchmark sweep) under ``depolarizing_1e3`` with 32 shots.
    Those circuits exercise all three methods.  The digest was taken
    before the diagonal/permutation kernels, the vectorized batched
    measurement, the identity-site skip and the per-call channel memo
    went in, and must never change.
    """

    DIGEST = ("c5c5854fd96b2433041309d3b46f092425ca1a59"
              "c5e51603879f140f095344aa")
    FIELDS = ("flips", "record_error", "survival", "desynced",
              "reference_bits", "noisy_bits")

    @staticmethod
    def _circuits():
        from repro.harness import registry
        registry.ensure_builtin_workloads()
        distinct = {}
        for name in registry.workload_names(["paper"]):
            circuit = registry.get_workload(name).spec(0.03, 0.25).circuit()
            key = repr(((circuit.num_qubits, circuit.num_clbits),
                        [(op.name, op.qubits, op.params, op.cbit,
                          op.condition) for op in circuit]))
            distinct.setdefault(key, (name, circuit))
        return list(distinct.values())

    def test_sampled_bits_are_pinned(self):
        from repro.noise.model import PRESETS, derive_seed
        from repro.sim.config import SimulationConfig
        circuits = self._circuits()
        assert len(circuits) == 11
        digest = hashlib.sha256()
        methods = set()
        for name, circuit in circuits:
            sample = sample_noisy(circuit, PRESETS["depolarizing_1e3"], 32,
                                  seed=derive_seed("digest", name),
                                  config=SimulationConfig())
            methods.add(sample.method)
            digest.update(sample.method.encode())
            for field in self.FIELDS:
                array = getattr(sample, field)
                digest.update(field.encode())
                if array is not None:
                    digest.update(repr((array.dtype.str,
                                        array.shape)).encode())
                    digest.update(np.ascontiguousarray(array).tobytes())
        assert methods == {"frame", "frame_approx", "statevector"}
        assert digest.hexdigest() == self.DIGEST
