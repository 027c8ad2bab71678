"""Decoherence model: execution time -> infidelity (Figure 16).

During a circuit, every qubit decoheres for as long as it is "alive"
(from its first operation to its final measurement) with amplitude-damping
time T1 and dephasing time T2.  The per-qubit survival probability over a
window of duration t is modeled with the standard exponential factors; the
circuit fidelity is the product over qubits, and the infidelity 1 - F is
what Figure 16 plots against the relaxation time.

This deliberately ignores gate error (both schemes execute the same
gates — only the *schedule* differs), so the fidelity gap between
Distributed-HISQ and the lock-step baseline comes purely from the extra
wall-clock time the baseline adds, exactly the effect the paper isolates.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from ..errors import ReproError


def _lifetimes_ns(t1_us: float, t2_us: Optional[float]):
    """Validated (T1, T2) in nanoseconds; T2 defaults to T1."""
    if t1_us <= 0:
        raise ReproError("T1 must be positive, got {}".format(t1_us))
    t2_us = t2_us if t2_us is not None else t1_us
    if t2_us <= 0:
        # Guard the exp(-t/T2) below: T2 = 0 used to divide by zero and
        # negative T2 silently produced "fidelities" above 1.
        raise ReproError("T2 must be positive, got {}".format(t2_us))
    if t2_us > 2 * t1_us + 1e-12:
        raise ReproError("T2 cannot exceed 2*T1")
    return t1_us * 1000.0, t2_us * 1000.0


def survival_probability(duration_ns: float, t1_us: float,
                         t2_us: Optional[float] = None) -> float:
    """Probability a qubit keeps its state over ``duration_ns``.

    Combines amplitude damping (T1) and pure dephasing (T_phi derived from
    T2 via 1/T_phi = 1/T2 - 1/(2 T1)); with T2 defaulting to T1 as in the
    paper's sweep ("T1/T2 time ranging from 30 us to 300 us").
    """
    if duration_ns < 0:
        raise ReproError("negative duration")
    t1_ns, t2_ns = _lifetimes_ns(t1_us, t2_us)
    t_ns = duration_ns
    # Average state fidelity of the idle channel (depolarizing-equivalent
    # average over the Bloch sphere): (1/6)(2 + 2 e^{-t/T2} + e^{-t/T1} + ...)
    # A standard simple form: F = (1 + e^{-t/T1} + 2 e^{-t/T2}) / 4 averaged
    # over basis states; we use the common two-factor approximation.
    return (1.0 + math.exp(-t_ns / t1_ns) +
            2.0 * math.exp(-t_ns / t2_ns)) / 4.0


def circuit_fidelity(lifetimes_ns: Mapping[int, float], t1_us: float,
                     t2_us: Optional[float] = None) -> float:
    """Product of per-qubit survival over their activity windows.

    Bit-identical to multiplying :func:`survival_probability` per qubit
    in mapping order, and raises what it would raise; T1/T2 are
    validated once, at the first qubit (an empty mapping validates
    nothing and returns 1.0).  With T2 = T1 (the default) both decay
    factors are the same double, so it is computed once."""
    fidelity = 1.0
    t1_ns = t2_ns = None
    exp = math.exp
    for duration in lifetimes_ns.values():
        if duration < 0:
            raise ReproError("negative duration")
        if t1_ns is None:
            t1_ns, t2_ns = _lifetimes_ns(t1_us, t2_us)
        decay1 = exp(-duration / t1_ns)
        decay2 = decay1 if t2_ns == t1_ns else exp(-duration / t2_ns)
        fidelity *= (1.0 + decay1 + 2.0 * decay2) / 4.0
    return fidelity


def circuit_infidelity(lifetimes_ns: Mapping[int, float], t1_us: float,
                       t2_us: Optional[float] = None) -> float:
    """1 - :func:`circuit_fidelity` (what Figure 16 plots)."""
    return 1.0 - circuit_fidelity(lifetimes_ns, t1_us, t2_us)


def infidelity_sweep(lifetimes_ns: Mapping[int, float],
                     t1_values_us) -> Dict[float, float]:
    """Infidelity for each T1 (= T2) value in ``t1_values_us``."""
    bad = [t1 for t1 in t1_values_us if t1 <= 0]
    if bad:
        raise ReproError(
            "T1 sweep values must be positive, got {}".format(bad))
    return {t1: circuit_infidelity(lifetimes_ns, t1) for t1 in t1_values_us}


def reduction_ratio(baseline: Mapping[float, float],
                    improved: Mapping[float, float]) -> Dict[float, float]:
    """Per-T1 infidelity reduction (baseline / improved), Figure 16's
    right-hand axis."""
    out = {}
    for t1, base in baseline.items():
        value = improved[t1]
        out[t1] = base / value if value > 0 else math.inf
    return out
