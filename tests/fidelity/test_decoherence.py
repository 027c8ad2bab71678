"""Decoherence model and fidelity metrics."""

import random

import pytest

from repro.errors import ReproError
from repro.fidelity.decoherence import (circuit_fidelity, circuit_infidelity,
                                        infidelity_sweep, reduction_ratio,
                                        survival_probability)
from repro.fidelity.metrics import (arithmetic_mean, geometric_mean,
                                    normalized_runtime,
                                    runtime_reduction_percent,
                                    summarize_lifetimes)


class TestSurvival:
    def test_zero_duration_is_perfect(self):
        assert survival_probability(0.0, 30.0) == pytest.approx(1.0)

    def test_monotone_in_duration(self):
        a = survival_probability(1000.0, 30.0)
        b = survival_probability(2000.0, 30.0)
        assert b < a < 1.0

    def test_monotone_in_t1(self):
        a = survival_probability(1000.0, 30.0)
        b = survival_probability(1000.0, 300.0)
        assert a < b

    def test_t2_defaults_to_t1(self):
        assert survival_probability(500.0, 50.0) == \
            survival_probability(500.0, 50.0, 50.0)

    def test_t2_cannot_exceed_twice_t1(self):
        with pytest.raises(ReproError):
            survival_probability(1.0, 10.0, 30.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ReproError):
            survival_probability(-1.0, 10.0)

    @pytest.mark.parametrize("t1,t2", [
        (0.0, None), (-5.0, None),       # used to raise, still must
        (10.0, 0.0),                     # used to divide by zero
        (10.0, -3.0),                    # used to return F > 1
    ])
    def test_nonpositive_times_rejected(self, t1, t2):
        with pytest.raises(ReproError, match="positive"):
            survival_probability(100.0, t1, t2)

    def test_small_time_expansion(self):
        # 1 - F ~ (3/4) t (1/T1' terms); check first-order scale.
        t1_us = 100.0
        t_ns = 10.0
        infid = 1.0 - survival_probability(t_ns, t1_us)
        expected = 0.75 * t_ns / (t1_us * 1000.0)
        assert infid == pytest.approx(expected, rel=0.01)


class TestCircuitFidelity:
    def test_product_over_qubits(self):
        lifetimes = {0: 1000.0, 1: 2000.0}
        got = circuit_fidelity(lifetimes, 30.0)
        want = (survival_probability(1000.0, 30.0) *
                survival_probability(2000.0, 30.0))
        assert got == pytest.approx(want)

    def test_infidelity_complement(self):
        lifetimes = {0: 500.0}
        assert circuit_infidelity(lifetimes, 50.0) == \
            pytest.approx(1.0 - circuit_fidelity(lifetimes, 50.0))

    def test_sweep_decreasing_in_t1(self):
        sweep = infidelity_sweep({0: 3000.0}, [30, 100, 300])
        assert sweep[30] > sweep[100] > sweep[300]

    def test_sweep_rejects_nonpositive_t1_values(self):
        with pytest.raises(ReproError, match=r"positive.*\[0\]"):
            infidelity_sweep({0: 3000.0}, [30, 0])
        with pytest.raises(ReproError, match="positive"):
            infidelity_sweep({0: 3000.0}, [-10.0])

    def test_reduction_ratio(self):
        base = {30: 0.10, 300: 0.01}
        ours = {30: 0.02, 300: 0.002}
        ratio = reduction_ratio(base, ours)
        assert ratio[30] == pytest.approx(5.0)
        assert ratio[300] == pytest.approx(5.0)

    def test_longer_schedule_means_higher_infidelity(self):
        short = circuit_infidelity({0: 1000.0, 1: 1000.0}, 30.0)
        long = circuit_infidelity({0: 5000.0, 1: 5000.0}, 30.0)
        assert long > short


def _reference_fidelity(lifetimes, t1_us, t2_us=None):
    """The per-qubit definition, multiplied in mapping order."""
    fidelity = 1.0
    for duration in lifetimes.values():
        fidelity *= survival_probability(duration, t1_us, t2_us)
    return fidelity


def _error_text(call):
    with pytest.raises(ReproError) as excinfo:
        call()
    return str(excinfo.value)


class TestCircuitFidelityExactness:
    """``circuit_fidelity`` validates T1/T2 once and hoists the
    constants; it must stay bit-identical to the per-qubit product and
    raise exactly what ``survival_probability`` raises."""

    @pytest.mark.parametrize("t1,t2", [
        (30.0, None), (300.0, None), (50.0, 100.0), (80.0, 45.5),
        (0.75, 1.5), (120, 7),
    ])
    def test_bit_identical_to_per_qubit_product(self, t1, t2):
        rng = random.Random(repr((t1, t2)))
        for size in (1, 2, 7, 64, 300):
            lifetimes = {q: rng.uniform(0.0, 5e4) for q in range(size)}
            lifetimes[size] = rng.randrange(0, 20000)  # int durations
            lifetimes[size + 1] = 0.0
            assert circuit_fidelity(lifetimes, t1, t2) == \
                _reference_fidelity(lifetimes, t1, t2)

    @pytest.mark.parametrize("lifetimes,t1,t2", [
        ({0: 10.0, 1: -1.0}, 30.0, None),   # negative duration, later qubit
        ({0: -1.0}, 30.0, None),
        ({0: -1.0}, 0.0, None),             # both bad: duration wins
        ({0: 10.0}, 0.0, None),
        ({0: 10.0}, -5.0, None),
        ({0: 10.0}, 10.0, 0.0),
        ({0: 10.0}, 10.0, -3.0),
        ({0: 10.0}, 10.0, 30.0),            # T2 > 2*T1
    ])
    def test_same_errors_as_per_qubit(self, lifetimes, t1, t2):
        assert _error_text(lambda: circuit_fidelity(lifetimes, t1, t2)) == \
            _error_text(lambda: _reference_fidelity(lifetimes, t1, t2))

    def test_empty_mapping_is_one_without_validating(self):
        assert circuit_fidelity({}, 30.0) == 1.0
        assert circuit_fidelity({}, -1.0, 99.0) == 1.0


class TestMetrics:
    def test_normalized_runtime(self):
        assert normalized_runtime(200, 150) == pytest.approx(0.75)

    def test_normalized_runtime_requires_positive_base(self):
        with pytest.raises(ValueError):
            normalized_runtime(0, 10)

    def test_means(self):
        assert arithmetic_mean([0.5, 1.0]) == pytest.approx(0.75)
        assert geometric_mean([0.25, 1.0]) == pytest.approx(0.5)

    def test_empty_means_name_the_metric(self):
        with pytest.raises(ValueError,
                           match="geometric_mean of normalized runtime"):
            geometric_mean([], metric="normalized runtime")
        with pytest.raises(ValueError,
                           match="arithmetic_mean of makespans"):
            arithmetic_mean([], metric="makespans")

    def test_estimator_api_reexported(self):
        # The package surface is the supported import path; deep
        # submodule imports are deprecated.
        from repro.fidelity import (FidelityEstimate, estimate_fidelity,
                                    survival_fidelity, wilson_interval)
        assert callable(estimate_fidelity) and callable(survival_fidelity)
        assert callable(wilson_interval)
        assert FidelityEstimate.from_counts(3, 4).estimate == \
            pytest.approx(0.75)

    def test_reduction_percent(self):
        assert runtime_reduction_percent([0.772]) == pytest.approx(22.8)

    def test_summarize_lifetimes(self):
        summary = summarize_lifetimes({0: 10.0, 1: 30.0})
        assert summary["count"] == 2
        assert summary["total_ns"] == 40.0
        assert summary["max_ns"] == 30.0

    def test_summarize_empty(self):
        assert summarize_lifetimes({})["count"] == 0
