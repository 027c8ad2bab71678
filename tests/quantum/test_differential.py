"""Differential-testing backbone for the quantum simulators.

Two independent implementations constrain each other:

* seeded random Clifford circuits must yield the same measurement
  *statistics* on the dense statevector backend and the stabilizer
  (CHP tableau) backend — deterministic bits must agree exactly, random
  bits must agree in distribution;
* batched multi-shot statevector execution must match the per-shot loop
  **bit for bit** under a fixed seed, for static, dynamic and Clifford
  circuits alike;
* the diagonal/anti-diagonal 1-qubit kernel shortcuts must reproduce
  the general 2x2 formula exactly, and the vectorized batched
  measurement must collapse each state exactly as a per-shot run does.
"""

import numpy as np
import pytest

from repro.errors import QuantumStateError
from repro.quantum.gates import gate_matrix
from repro.quantum.stabilizer import StabilizerBackend
from repro.quantum.statevector import (BatchedStatevectorBackend,
                                       StatevectorBackend, _apply_1q_kernel,
                                       _shot_seed, measurement_counts,
                                       run_multishot)
from repro.testing import random_clifford_circuit, random_dynamic_circuit

CLIFFORD_CASES = [(2, 30, 11), (3, 40, 12), (4, 60, 13), (5, 80, 14),
                  (6, 90, 15)]


def _deterministic_bits(circuit, shots, seed):
    """Classical bits that came out identical across every shot."""
    rows = run_multishot(circuit, shots, seed=seed, batched=True)
    same = (rows == rows[0]).all(axis=0)
    return same, rows


class TestStatevectorVsStabilizer:
    """Same Clifford circuit, two formalisms, one distribution."""

    @pytest.mark.parametrize("num_qubits,depth,seed", CLIFFORD_CASES)
    def test_deterministic_bits_agree(self, num_qubits, depth, seed):
        """Bits that are deterministic must match across backends exactly.

        A bit is called deterministic when 64 statevector shots agree on
        it; the stabilizer backend must then produce that same value on
        every one of its shots.
        """
        circuit = random_clifford_circuit(num_qubits, depth, seed)
        assert circuit.is_clifford
        same, rows = _deterministic_bits(circuit, 64, seed=seed)
        reference = rows[0]
        for shot in range(16):
            backend = StabilizerBackend(circuit.num_qubits,
                                        seed=seed * 1000 + shot)
            bits = backend.run_circuit(circuit)
            for b in range(circuit.num_clbits):
                if same[b]:
                    assert bits[b] == reference[b], (
                        "deterministic cbit {} differs on shot {}".format(
                            b, shot))

    @pytest.mark.parametrize("num_qubits,depth,seed", CLIFFORD_CASES[:3])
    def test_marginal_frequencies_agree(self, num_qubits, depth, seed):
        """Per-bit marginals agree within sampling error.

        Clifford measurement probabilities are always 0, 1/2 or 1, so
        400 shots separate the three cases with huge margin (binomial
        std at p=1/2 is ~0.025).
        """
        shots = 400
        circuit = random_clifford_circuit(num_qubits, depth, seed)
        sv = run_multishot(circuit, shots, seed=seed, batched=True)
        st = np.zeros_like(sv)
        for shot in range(shots):
            backend = StabilizerBackend(circuit.num_qubits,
                                        seed=seed * 7919 + shot)
            st[shot] = backend.run_circuit(circuit)
        sv_freq = sv.mean(axis=0)
        st_freq = st.mean(axis=0)
        # Each true marginal is 0, 1/2 or 1: snap both to the grid and
        # require the same cell.
        for b in range(circuit.num_clbits):
            assert abs(sv_freq[b] - st_freq[b]) < 0.15, (
                "cbit {} marginal: sv={:.3f} stab={:.3f}".format(
                    b, sv_freq[b], st_freq[b]))
            snapped_sv = min((0.0, 0.5, 1.0), key=lambda p: abs(p - sv_freq[b]))
            snapped_st = min((0.0, 0.5, 1.0), key=lambda p: abs(p - st_freq[b]))
            assert snapped_sv == snapped_st

    def test_ghz_distribution_exact_shape(self):
        """GHZ: both backends produce only all-zeros / all-ones strings."""
        from repro.circuits.ghz import build_ghz
        circuit = build_ghz(4)
        circuit.num_clbits = 4
        for q in range(4):
            circuit.measure(q, q)
        sv_counts = measurement_counts(
            run_multishot(circuit, 200, seed=3, batched=True))
        assert set(sv_counts) <= {"0000", "1111"}
        st_rows = []
        for shot in range(200):
            backend = StabilizerBackend(4, seed=shot)
            st_rows.append(backend.run_circuit(circuit))
        st_counts = measurement_counts(np.array(st_rows))
        assert set(st_counts) <= {"0000", "1111"}
        for counts in (sv_counts, st_counts):
            assert abs(counts.get("0000", 0) - 100) < 50


class TestBatchedVsShotLoop:
    """The batched (shots, 2**n) path against the reference loop."""

    @pytest.mark.parametrize("num_qubits,depth,seed",
                             [(2, 25, 21), (3, 40, 22), (4, 60, 23),
                              (5, 70, 24)])
    def test_dynamic_circuits_bit_for_bit(self, num_qubits, depth, seed):
        circuit = random_dynamic_circuit(num_qubits, depth, seed)
        batched = run_multishot(circuit, 48, seed=seed, batched=True)
        looped = run_multishot(circuit, 48, seed=seed, batched=False)
        assert np.array_equal(batched, looped)

    @pytest.mark.parametrize("num_qubits,depth,seed", CLIFFORD_CASES[:3])
    def test_clifford_circuits_bit_for_bit(self, num_qubits, depth, seed):
        circuit = random_clifford_circuit(num_qubits, depth, seed)
        batched = run_multishot(circuit, 48, seed=seed, batched=True)
        looped = run_multishot(circuit, 48, seed=seed, batched=False)
        assert np.array_equal(batched, looped)

    def test_teleportation_feedback_bit_for_bit(self):
        """The Figure-14 long-range CNOT gadget, feedback included."""
        from repro.quantum.teleport import build_long_range_cnot_circuit
        circuit = build_long_range_cnot_circuit(5)
        circuit.measure(0, circuit.num_clbits - 2)
        circuit.measure(5, circuit.num_clbits - 1)
        batched = run_multishot(circuit, 64, seed=99, batched=True)
        looped = run_multishot(circuit, 64, seed=99, batched=False)
        assert np.array_equal(batched, looped)

    def test_forced_outcomes_match(self):
        """Forced-FIFO post-selection follows the same semantics."""
        from repro.quantum import QuantumCircuit
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.x(1, condition=(0, 1))
        circuit.measure(1, 1)
        forced = {0: [1]}
        batched = run_multishot(circuit, 8, seed=5, batched=True,
                                forced_outcomes=forced)
        looped = run_multishot(circuit, 8, seed=5, batched=False,
                               forced_outcomes=forced)
        assert np.array_equal(batched, looped)
        assert (batched[:, 0] == 1).all() and (batched[:, 1] == 1).all()

    def test_states_match_shot_zero(self):
        """Not just bits: shot s's statevector equals the loop backend's."""
        circuit = random_dynamic_circuit(3, 30, seed=31)
        shots = 6
        backend = BatchedStatevectorBackend(3, shots, seed=31)
        backend.run_circuit(circuit)
        from repro.quantum.statevector import _shot_seed
        for s in range(shots):
            single = StatevectorBackend(3, seed=_shot_seed(31, s))
            single.run_circuit(circuit)
            assert np.array_equal(single.state, backend.states[s])

    def test_shot_count_and_dtype(self):
        circuit = random_dynamic_circuit(2, 10, seed=41)
        rows = run_multishot(circuit, 17, seed=0)
        assert rows.shape == (17, circuit.num_clbits)
        assert rows.dtype == np.int8


#: Every diagonal (z, s, sdg, t, tdg, rz, u1) and anti-diagonal (x, y)
#: 1-qubit gate — the ones the kernel's shortcuts serve.
FAST_PATH_GATES = [("x", ()), ("y", ()), ("z", ()), ("s", ()), ("sdg", ()),
                   ("t", ()), ("tdg", ()), ("rz", (0.7,)), ("rz", (-2.9,)),
                   ("u1", (1.3,)), ("u1", (np.pi / 2,))]


def _general_1q(state, matrix, qubit):
    """The general formula the shortcuts must reproduce."""
    psi = state.reshape(state.shape[:-1] + (-1, 1 << (qubit + 1)))
    lo = psi[..., :1 << qubit]
    hi = psi[..., 1 << qubit:]
    new_lo = matrix[0, 0] * lo + matrix[0, 1] * hi
    new_hi = matrix[1, 0] * lo + matrix[1, 1] * hi
    psi[..., :1 << qubit] = new_lo
    psi[..., 1 << qubit:] = new_hi


def _reference_measure(state, rng, qubit, forced=None):
    """Per-shot projective measurement written out plainly: the
    reference the vectorized kernel's collapse must reproduce."""
    psi = state.reshape(-1, 1 << (qubit + 1))
    p1 = float(np.sum(np.abs(psi[:, 1 << qubit:]) ** 2))
    outcome = int(rng.random() < p1) if forced is None else forced
    if outcome:
        psi[:, :1 << qubit] = 0.0
        state /= np.sqrt(p1)
    else:
        psi[:, 1 << qubit:] = 0.0
        state /= np.sqrt(1.0 - p1)
    return outcome


def _random_states(rng, shape):
    states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return states / np.linalg.norm(states, axis=-1, keepdims=True)


class TestKernelFastPaths:
    @pytest.mark.parametrize("name,params", FAST_PATH_GATES)
    @pytest.mark.parametrize("shape", [(1 << 5,), (7, 1 << 5)])
    def test_matches_general_formula(self, name, params, shape, rng):
        matrix = gate_matrix(name, params)
        assert matrix[0, 1] == matrix[1, 0] == 0 or \
            matrix[0, 0] == matrix[1, 1] == 0
        for qubit in range(5):
            state = _random_states(rng, shape)
            fast, general = state.copy(), state.copy()
            _apply_1q_kernel(fast, matrix, qubit)
            _general_1q(general, matrix, qubit)
            assert np.array_equal(fast, general), (name, shape, qubit)


class TestBatchedMeasure:
    """The vectorized measure against per-shot runs, states included."""

    def _trio(self, rng, num_qubits, shots, seed):
        """A batched backend on random states, per-shot backends and
        reference (state, rng) pairs holding the same states and
        streams."""
        batched = BatchedStatevectorBackend(num_qubits, shots, seed=seed)
        batched.states[:] = _random_states(rng, batched.states.shape)
        singles, references = [], []
        for s in range(shots):
            single = StatevectorBackend(num_qubits, seed=_shot_seed(seed, s))
            single.state = batched.states[s].copy()
            singles.append(single)
            stream = np.random.default_rng(_shot_seed(seed, s))
            references.append((batched.states[s].copy(), stream))
        return batched, singles, references

    def _check_shot(self, batched, singles, references, s, qubit, outcome,
                    forced=None):
        assert outcome == singles[s].measure(qubit, forced=forced)
        assert np.array_equal(batched.states[s], singles[s].state)
        state, stream = references[s]
        assert outcome == _reference_measure(state, stream, qubit, forced)
        assert np.array_equal(batched.states[s], state)

    @pytest.mark.parametrize("qubit", [0, 2, 3])
    def test_masked_and_forced_match_per_shot(self, qubit, rng):
        shots = 9
        batched, singles, references = self._trio(rng, 4, shots, seed=17)
        before = batched.states.copy()
        active = np.array([1, 0, 1, 1, 0, 1, 1, 0, 1], dtype=bool)
        forced = [None, 1, 0, None, 1, 1, None, 0, None]
        outcomes = batched.measure(qubit, forced=forced, active=active)
        for s in range(shots):
            if not active[s]:
                assert outcomes[s] == 0
                assert np.array_equal(batched.states[s], before[s])
                continue
            self._check_shot(batched, singles, references, s, qubit,
                             outcomes[s], forced[s])

    def test_unmasked_repeated_measures_match_per_shot(self, rng):
        shots = 6
        batched, singles, references = self._trio(rng, 3, shots, seed=5)
        for qubit in (1, 0, 2, 1):
            outcomes = batched.measure(qubit)
            for s in range(shots):
                self._check_shot(batched, singles, references, s, qubit,
                                 outcomes[s])

    def test_zero_probability_forced_outcome_raises(self):
        batched = BatchedStatevectorBackend(2, 3, seed=1)
        with pytest.raises(QuantumStateError, match="probability 0"):
            batched.measure(0, forced=[None, 1, None])
        active = np.array([False, True, True])
        with pytest.raises(QuantumStateError, match="probability 0"):
            batched.measure(1, forced=[None, None, 1], active=active)
        with pytest.raises(QuantumStateError, match="probability 0"):
            StatevectorBackend(2, seed=1).measure(0, forced=1)
