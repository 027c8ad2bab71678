"""Monte-Carlo noisy sampling: Pauli-frame propagation + statevector path.

Three execution methods share one *site* model — every scheduled
operation slot owns zero or more noise sites (depolarizing, per-slot
T1/T2 damping, readout flip), and shot ``s`` consumes one pre-drawn
uniform per site from a private crc32-seeded stream — so the methods
sample literally the same errors for the same ``(model, seed, shot)``:

* ``"frame"`` — the fast path for Clifford circuits: one noiseless
  stabilizer reference run, then per-shot Pauli frames (an (x, z) bit
  pair per qubit) conjugated through the Clifford gates; a measurement's
  noisy outcome is the reference outcome XOR the frame's X bit XOR the
  readout flip.  Classically conditioned Pauli gates are exact (a
  branch divergence *is* a Pauli, absorbed into the frame); conditioned
  non-Pauli Cliffords mark diverging shots ``desynced`` (such shots
  already have a recorded error, so fidelity estimates stay exact).
* ``"statevector"`` — the exact-for-everything fallback: two
  :class:`~repro.quantum.statevector.BatchedStatevectorBackend` runs
  (reference and noisy) with *identical* per-shot measurement RNG
  streams, errors applied to the noisy one.  With a zero-rate model the
  two runs are bit-for-bit identical to the noiseless backends.
* ``"frame_approx"`` — frames for non-Clifford circuits beyond
  statevector reach: non-Clifford gates propagate frames as identity
  (diagonal gates keep Z errors exact) — a Pauli-transfer
  approximation, labeled as such in the results.

Noise is attached to operation *slots*, not executed branches: a
conditionally-skipped gate still idles its qubits for the slot, so its
channel applies either way.  That choice is what lets the frame path
stay reference-free for error injection — and it is how the companion
:func:`run_noisy_stabilizer` validation backend behaves too.

Determinism: shot ``s`` draws from ``default_rng(derive_seed("noise",
seed, s))`` regardless of execution order or chunking, so serial,
parallel, and cache-replayed sweeps produce byte-identical shot tables.

Identity-site skip: at low error rates almost every site draws the
identity for every shot of a chunk.  Both exact-injection loops skip a
site unless some shot's draw falls below its last cumulative bound.
That is exact, not an approximation: ``searchsorted(bounds, u,
"right")`` returns the identity bin ``len(bounds)`` iff ``u >=
bounds[-1]``, so a skipped site would have applied nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..quantum.circuit import QuantumCircuit
from ..quantum.stabilizer import StabilizerBackend
from ..quantum.statevector import BatchedStatevectorBackend
from ..sim.config import SimulationConfig
from .channels import PAULI_BITS, PauliChannel, pauli_twirled_damping
from .model import NoiseModel, derive_seed

#: Gates whose conditional execution the frame formalism absorbs exactly.
_PAULI_GATES = frozenset(["x", "y", "z"])

#: Auto-mode ceiling for the batched-statevector fallback (two backends
#: of ``shots * 2**n`` amplitudes live at once).
SV_AUTO_MAX_QUBITS = 14

#: Chunk bound: at most this many (shot, site) uniforms live at once.
_MAX_UNIFORM_ENTRIES = 1 << 22

#: Statevector chunk bound: at most this many amplitudes per backend
#: (``shots * 2**n``) live at once.
_MAX_CHUNK_AMPLITUDES = 1 << 24


class NoiseSamplingError(ReproError):
    """Raised on unsupported circuits/methods for noisy sampling."""


# -- compiled noise program ---------------------------------------------------

@dataclass(frozen=True)
class _ErrorSite:
    """One noise-injection point: a channel on ``qubits`` at site index
    ``site`` (its column in the per-shot uniform table)."""

    site: int
    qubits: Tuple[int, ...]
    channel: PauliChannel
    #: cumulative probability bounds and per-term (x, z) masks.
    bounds: Tuple[float, ...]
    term_x: Tuple[Tuple[int, ...], ...]
    term_z: Tuple[Tuple[int, ...], ...]
    paulis: Tuple[str, ...]


def _channel_tables(channel: PauliChannel) -> dict:
    """A channel's site tables: cumulative bounds, Paulis, term masks."""
    bounds, paulis = channel.cumulative()
    term_x = tuple(tuple(PAULI_BITS[c][0] for c in p) for p in paulis)
    term_z = tuple(tuple(PAULI_BITS[c][1] for c in p) for p in paulis)
    return {"bounds": bounds, "term_x": term_x, "term_z": term_z,
            "paulis": paulis}


@dataclass(frozen=True)
class _Step:
    """One entry of the compiled program.

    ``kind`` is ``"error"``, ``"gate"``, ``"measure"`` or ``"reset"``.
    ``error`` is set for error steps; ``flip_site`` for measure steps
    with a readout-flip channel.
    """

    kind: str
    qubits: Tuple[int, ...] = ()
    name: str = ""
    params: Tuple[float, ...] = ()
    condition: Optional[Tuple[int, int]] = None
    cbit: Optional[int] = None
    error: Optional[_ErrorSite] = None
    flip_site: Optional[_ErrorSite] = None


def _slot_duration_ns(op, config: Optional[SimulationConfig]
                      ) -> Optional[float]:
    """Wall-clock duration of one operation slot.

    ``config=None`` means "no per-slot damping anywhere" — including
    delays, whose duration lives in their params: callers pass None
    exactly when lifetime-integrated idle channels already cover every
    slot, and charging delay decay again would double-count.
    """
    if config is None:
        return None
    if op.name == "delay":
        return float(op.params[0]) if op.params else None
    if op.is_measurement:
        return config.measurement_ns
    if len(op.qubits) >= 2:
        return config.two_qubit_gate_ns
    return config.single_qubit_gate_ns


def compile_noise_program(circuit: QuantumCircuit, model: NoiseModel,
                          idle_channels: Optional[Dict[int, PauliChannel]]
                          = None,
                          config: Optional[SimulationConfig] = None
                          ) -> Tuple[List[_Step], int]:
    """Lower (circuit, model) to the shared step/site program.

    Returns ``(steps, num_sites)``.  Site indices are assigned in
    program order — the contract every sampling method relies on to
    consume identical draws.
    """
    steps: List[_Step] = []
    sites = 0
    # Memos local to this call: a circuit repeats a handful of channels
    # thousands of times.  Idle channels carry per-cell float durations,
    # so a module-level cache would grow without bound in a long-running
    # service.
    tables: Dict[PauliChannel, dict] = {}
    slot_channels: Dict[tuple, list] = {}

    def new_site(qubits: Tuple[int, ...],
                 channel: PauliChannel) -> _ErrorSite:
        nonlocal sites
        table = tables.get(channel)
        if table is None:
            table = tables[channel] = _channel_tables(channel)
        site = _ErrorSite(site=sites, qubits=qubits, channel=channel,
                          **table)
        sites += 1
        return site

    def add_error(qubits: Tuple[int, ...], channel: PauliChannel):
        steps.append(_Step(kind="error", qubits=qubits,
                           error=new_site(qubits, channel)))

    for qubit in sorted(idle_channels or {}):
        add_error((qubit,), (idle_channels or {})[qubit])
    measure_channel = model.measure_channel()
    for op in circuit:
        if op.is_barrier:
            continue
        if op.is_measurement:
            duration = _slot_duration_ns(op, config)
            if model.t1_us is not None and duration:
                damping = pauli_twirled_damping(duration, model.t1_us,
                                                model.t2_us)
                if damping.error_probability > 0:
                    add_error((op.qubits[0],), damping)
            flip_site = None
            if measure_channel is not None:
                flip_site = new_site((op.qubits[0],), measure_channel)
            steps.append(_Step(kind="measure", qubits=op.qubits,
                               cbit=op.cbit, condition=op.condition,
                               flip_site=flip_site))
            continue
        if op.is_reset:
            steps.append(_Step(kind="reset", qubits=op.qubits,
                               condition=op.condition))
            continue
        steps.append(_Step(kind="gate", qubits=op.qubits, name=op.name,
                           params=op.params, condition=op.condition))
        # Gate channels depend on qubit positions only, never identities.
        arity = len(op.qubits)
        duration = _slot_duration_ns(op, config)
        key = (op.name, arity, duration)
        channels = slot_channels.get(key)
        if channels is None:
            channels = slot_channels[key] = model.gate_channels(
                op.name, tuple(range(arity)), duration)
        for positions, channel in channels:
            add_error(tuple(op.qubits[i] for i in positions), channel)
    return steps, sites


def _shot_uniforms(seed: int, shot: int, num_sites: int) -> np.ndarray:
    """Shot ``shot``'s site draws — independent of chunking/order."""
    rng = np.random.default_rng(derive_seed("noise", seed, shot))
    return rng.random(num_sites)


def _uniform_block(seed: int, shot_offset: int, shots: int,
                   num_sites: int) -> np.ndarray:
    block = np.empty((shots, num_sites), dtype=np.float64)
    for s in range(shots):
        block[s] = _shot_uniforms(seed, shot_offset + s, num_sites)
    return block


def _error_hits(steps: List[_Step], uniforms: np.ndarray) -> np.ndarray:
    """Per site: does any shot of ``uniforms`` draw an error there?

    Only error-step sites are flagged.  A draw lands in the identity bin
    (``searchsorted(bounds, u, "right") == len(bounds)``) exactly when
    ``u >= bounds[-1]``, so a site with no hit applies nothing.
    """
    last_bound = np.zeros(uniforms.shape[1])
    for step in steps:
        if step.kind == "error" and step.error.bounds:
            last_bound[step.error.site] = step.error.bounds[-1]
    return (uniforms < last_bound).any(axis=0)


# -- results ------------------------------------------------------------------

@dataclass
class NoiseSample:
    """Outcome of a noisy multishot sampling run.

    ``flips`` is the final classical record XOR the noiseless reference
    record; ``record_error`` marks shots where *any* recorded
    measurement event disagreed with the reference (robust to classical
    bits being overwritten later); ``survival`` marks shots with no
    recorded deviation *and* no residual end-of-shot error (identity
    final frame, resp. unit overlap with the reference state) — the
    empirical twin of the Figure-16 survival proxy, meaningful even for
    workloads that never measure; ``desynced`` marks frame-path shots
    whose branch diverged at a non-Pauli conditional (their ``flips``
    rows are approximate — their ``record_error`` is already True).
    """

    method: str
    shots: int
    seed: int
    flips: np.ndarray
    record_error: np.ndarray
    survival: np.ndarray
    desynced: np.ndarray
    reference_bits: Optional[np.ndarray] = None
    noisy_bits: Optional[np.ndarray] = None

    @property
    def record_error_count(self) -> int:
        return int(np.count_nonzero(self.record_error))

    @property
    def survival_count(self) -> int:
        return int(np.count_nonzero(self.survival))


def _concat(samples: Sequence[NoiseSample], method: str, shots: int,
            seed: int) -> NoiseSample:
    if len(samples) == 1:
        return samples[0]

    def cat(field):
        parts = [getattr(s, field) for s in samples]
        return None if parts[0] is None else np.concatenate(parts)

    return NoiseSample(method=method, shots=shots, seed=seed,
                       flips=cat("flips"), record_error=cat("record_error"),
                       survival=cat("survival"), desynced=cat("desynced"),
                       reference_bits=cat("reference_bits"),
                       noisy_bits=cat("noisy_bits"))


# -- Pauli-frame propagation --------------------------------------------------

def _conjugate_frame(name: str, params, qubits, fx: np.ndarray,
                     fz: np.ndarray) -> bool:
    """Propagate frames through one gate in place.

    Returns True when the propagation is exact (Clifford rule applied);
    False means the gate was treated as identity (the documented
    Pauli-transfer approximation for non-Clifford gates).
    """
    if name in ("i", "x", "y", "z", "delay"):
        return True
    if name == "h":
        q = qubits[0]
        fx[:, q], fz[:, q] = fz[:, q].copy(), fx[:, q].copy()
        return True
    if name in ("s", "sdg"):
        q = qubits[0]
        fz[:, q] ^= fx[:, q]
        return True
    if name == "sx":
        q = qubits[0]
        fx[:, q] ^= fz[:, q]
        return True
    if name in ("rz", "u1"):
        (theta,) = params
        steps = theta / (math.pi / 2)
        k = round(steps)
        if abs(steps - k) > 1e-9:
            return False  # diagonal: Z frames exact, X frames approximate
        if k % 2:
            q = qubits[0]
            fz[:, q] ^= fx[:, q]
        return True
    if name in ("t", "tdg"):
        return False  # diagonal non-Clifford
    if name == "cx":
        c, t = qubits
        fx[:, t] ^= fx[:, c]
        fz[:, c] ^= fz[:, t]
        return True
    if name == "cz":
        a, b = qubits
        fz[:, a] ^= fx[:, b]
        fz[:, b] ^= fx[:, a]
        return True
    if name == "swap":
        a, b = qubits
        fx[:, a], fx[:, b] = fx[:, b].copy(), fx[:, a].copy()
        fz[:, a], fz[:, b] = fz[:, b].copy(), fz[:, a].copy()
        return True
    if name in ("cp", "crz"):
        (theta,) = params
        steps = theta / math.pi
        k = round(steps)
        if abs(steps - k) > 1e-9:
            return False
        if k % 2:
            a, b = qubits
            fz[:, a] ^= fx[:, b]
            fz[:, b] ^= fx[:, a]
        return True
    if name in ("rx", "ry"):
        return False
    raise NoiseSamplingError(
        "no frame propagation rule for gate {!r}".format(name))


def _apply_error_to_frames(site: _ErrorSite, draws: np.ndarray,
                           fx: np.ndarray, fz: np.ndarray) -> None:
    """XOR sampled Pauli errors into the frames of every shot."""
    if not site.bounds:
        return
    index = np.searchsorted(site.bounds, draws, side="right")
    for term in np.unique(index):
        if term >= len(site.bounds):
            continue  # identity bin
        rows = index == term
        for position, qubit in enumerate(site.qubits):
            if site.term_x[term][position]:
                fx[rows, qubit] ^= 1
            if site.term_z[term][position]:
                fz[rows, qubit] ^= 1


def _reference_trace(circuit: QuantumCircuit, seed: int):
    """One noiseless stabilizer run, recording per-op branch decisions
    and the evolving classical record (the frame path's reference)."""
    backend = StabilizerBackend(circuit.num_qubits,
                                seed=derive_seed("noise-ref", seed))
    cbits = [0] * circuit.num_clbits
    taken: List[bool] = []
    for op in circuit:
        if op.is_barrier:
            taken.append(True)
            continue
        if op.is_conditional:
            bit, value = op.condition
            if cbits[bit] != value:
                taken.append(False)
                continue
        taken.append(True)
        if op.is_reset:
            backend.reset(op.qubits[0])
        elif op.is_measurement:
            outcome = backend.measure(op.qubits[0])
            if op.cbit is not None:
                cbits[op.cbit] = outcome
        else:
            backend.apply_gate(op.name, op.qubits, op.params)
    return np.asarray(cbits, dtype=np.int8), taken


def _sample_frames(circuit: QuantumCircuit, model: NoiseModel,
                   steps: List[_Step], num_sites: int,
                   shots: int, shot_offset: int, seed: int,
                   ref_taken: Optional[Dict[int, bool]],
                   exact: bool) -> NoiseSample:
    n, m = circuit.num_qubits, circuit.num_clbits
    uniforms = _uniform_block(seed, shot_offset, shots, num_sites)
    hit = _error_hits(steps, uniforms)
    fx = np.zeros((shots, n), dtype=np.uint8)
    fz = np.zeros((shots, n), dtype=np.uint8)
    flips = np.zeros((shots, max(m, 1)), dtype=np.uint8)
    record_error = np.zeros(shots, dtype=bool)
    desynced = np.zeros(shots, dtype=bool)
    gate_index = 0
    for step in steps:
        if step.kind == "error":
            if hit[step.error.site]:
                _apply_error_to_frames(step.error,
                                       uniforms[:, step.error.site], fx, fz)
            continue
        if step.kind == "reset":
            q = step.qubits[0]
            fx[:, q] = 0
            fz[:, q] = 0
            continue
        if step.kind == "measure":
            q = step.qubits[0]
            event = fx[:, q].copy()
            if step.flip_site is not None:
                draws = uniforms[:, step.flip_site.site]
                event ^= (draws <
                          step.flip_site.channel.error_probability
                          ).astype(np.uint8)
            fz[:, q] = 0  # Z errors are destroyed by Z-basis measurement
            if step.cbit is not None:
                flips[:, step.cbit] = event
                record_error |= event.astype(bool)
            continue
        # gate step
        index = gate_index
        gate_index += 1
        if step.condition is not None:
            bit, _ = step.condition
            diverged = flips[:, bit].astype(bool)
            if step.name in _PAULI_GATES:
                # Taken in exactly one of the runs: the difference IS the
                # Pauli — XOR it into the diverging shots' frames.
                xbit, zbit = PAULI_BITS[step.name.upper()]
                q = step.qubits[0]
                if xbit:
                    fx[diverged, q] ^= 1
                if zbit:
                    fz[diverged, q] ^= 1
                continue
            # Non-Pauli conditional: diverging shots leave the frame
            # formalism (they already carry a recorded error).
            desynced |= diverged
            taken = True if ref_taken is None else ref_taken.get(index, True)
            if taken:
                _conjugate_frame(step.name, step.params, step.qubits, fx, fz)
            continue
        _conjugate_frame(step.name, step.params, step.qubits, fx, fz)
    residual = fx.any(axis=1) | fz.any(axis=1)
    survival = ~(record_error | residual | desynced)
    return NoiseSample(method="frame" if exact else "frame_approx",
                       shots=shots, seed=seed,
                       flips=flips[:, :m], record_error=record_error,
                       survival=survival, desynced=desynced)


# -- statevector path ---------------------------------------------------------

def _sample_statevector(circuit: QuantumCircuit, model: NoiseModel,
                        steps: List[_Step], num_sites: int,
                        shots: int, shot_offset: int, seed: int
                        ) -> NoiseSample:
    n, m = circuit.num_qubits, circuit.num_clbits
    uniforms = _uniform_block(seed, shot_offset, shots, num_sites)
    hit = _error_hits(steps, uniforms)
    # Identical per-shot measurement streams: zero noise => bit identity.
    reference = BatchedStatevectorBackend(n, shots, seed=seed)
    noisy = BatchedStatevectorBackend(n, shots, seed=seed)
    if shot_offset:
        # Chunked runs must reproduce the absolute shot's RNG stream.
        from ..quantum.statevector import _shot_seed
        reference.rngs = [np.random.default_rng(
            _shot_seed(seed, shot_offset + s)) for s in range(shots)]
        noisy.rngs = [np.random.default_rng(
            _shot_seed(seed, shot_offset + s)) for s in range(shots)]
    ref_cbits = np.zeros((shots, max(m, 1)), dtype=np.int8)
    noisy_cbits = np.zeros((shots, max(m, 1)), dtype=np.int8)
    record_error = np.zeros(shots, dtype=bool)
    for step in steps:
        if step.kind == "error":
            site = step.error
            if not hit[site.site]:
                continue
            index = np.searchsorted(site.bounds, uniforms[:, site.site],
                                    side="right")
            for term in np.unique(index):
                if term >= len(site.bounds):
                    continue
                noisy.apply_pauli(site.paulis[term], site.qubits,
                                  active=index == term)
            continue
        ref_active = noisy_active = None
        if step.condition is not None:
            bit, value = step.condition
            ref_active = ref_cbits[:, bit] == value
            noisy_active = noisy_cbits[:, bit] == value
        if step.kind == "reset":
            if ref_active is None or ref_active.any():
                reference.reset(step.qubits[0], active=ref_active)
            if noisy_active is None or noisy_active.any():
                noisy.reset(step.qubits[0], active=noisy_active)
            continue
        if step.kind == "measure":
            q = step.qubits[0]
            ref_out = reference.measure(q, active=ref_active)
            noisy_out = noisy.measure(q, active=noisy_active)
            record = noisy_out.copy()
            if step.flip_site is not None:
                draws = uniforms[:, step.flip_site.site]
                record ^= (draws <
                           step.flip_site.channel.error_probability
                           ).astype(np.int8)
            if step.cbit is not None:
                if ref_active is None:
                    ref_cbits[:, step.cbit] = ref_out
                    noisy_cbits[:, step.cbit] = record
                    record_error |= ref_out != record
                else:
                    ref_cbits[ref_active, step.cbit] = ref_out[ref_active]
                    noisy_cbits[noisy_active, step.cbit] = \
                        record[noisy_active]
                    both = ref_active & noisy_active
                    record_error |= both & (ref_out != record)
                    record_error |= ref_active != noisy_active
            continue
        # gate step
        if ref_active is None or ref_active.any():
            reference.apply_gate(step.name, step.qubits, step.params,
                                 active=ref_active)
        if noisy_active is None or noisy_active.any():
            noisy.apply_gate(step.name, step.qubits, step.params,
                             active=noisy_active)
    flips = (ref_cbits[:, :m] ^ noisy_cbits[:, :m]).astype(np.uint8)
    overlap = np.abs(np.sum(np.conj(reference.states) * noisy.states,
                            axis=1)) ** 2
    survival = ~record_error & (overlap > 1.0 - 1e-9)
    return NoiseSample(method="statevector", shots=shots, seed=seed,
                       flips=flips, record_error=record_error,
                       survival=survival,
                       desynced=np.zeros(shots, dtype=bool),
                       reference_bits=ref_cbits[:, :m],
                       noisy_bits=noisy_cbits[:, :m])


# -- validation backend -------------------------------------------------------

def run_noisy_stabilizer(circuit: QuantumCircuit, model: NoiseModel,
                         shots: int, seed: int = 0,
                         idle_channels: Optional[Dict[int, PauliChannel]]
                         = None,
                         config: Optional[SimulationConfig] = None
                         ) -> np.ndarray:
    """Trusted-but-slow reference: per-shot noisy stabilizer execution.

    Consumes exactly the same per-shot site draws as the frame sampler
    (same compiled program), so on circuits whose measurements are
    deterministic in every error branch the returned ``(shots,
    num_clbits)`` record matches the frame path's noisy bits *bit for
    bit*; elsewhere the two agree in distribution.
    """
    if not circuit.is_clifford:
        raise NoiseSamplingError(
            "noisy stabilizer execution needs a Clifford circuit")
    steps, num_sites = compile_noise_program(circuit, model,
                                             idle_channels, config)
    out = np.zeros((shots, max(circuit.num_clbits, 1)), dtype=np.int8)
    for s in range(shots):
        uniforms = _shot_uniforms(seed, s, num_sites)
        backend = StabilizerBackend(circuit.num_qubits,
                                    seed=derive_seed("noise-stab", seed, s))
        cbits = [0] * circuit.num_clbits
        for step in steps:
            if step.kind == "error":
                pauli = step.error.channel.sample(
                    float(uniforms[step.error.site]))
                if pauli is not None:
                    backend.apply_pauli(pauli, step.error.qubits)
                continue
            if step.condition is not None:
                bit, value = step.condition
                if cbits[bit] != value:
                    continue
            if step.kind == "reset":
                backend.reset(step.qubits[0])
                continue
            if step.kind == "measure":
                outcome = backend.measure(step.qubits[0])
                if step.flip_site is not None:
                    draw = float(uniforms[step.flip_site.site])
                    if draw < step.flip_site.channel.error_probability:
                        outcome ^= 1
                if step.cbit is not None:
                    cbits[step.cbit] = outcome
                continue
            backend.apply_gate(step.name, step.qubits, step.params)
        out[s, :circuit.num_clbits] = cbits
    return out[:, :circuit.num_clbits]


# -- entry point --------------------------------------------------------------

def _frame_compatible(circuit: QuantumCircuit) -> bool:
    """Frame paths cannot branch measurements/resets on noisy bits."""
    return not any(op.is_conditional and (op.is_measurement or op.is_reset)
                   for op in circuit)


def choose_method(circuit: QuantumCircuit) -> str:
    """The method ``sample_noisy`` picks under ``method="auto"``."""
    frame_ok = _frame_compatible(circuit)
    if circuit.is_clifford and frame_ok:
        return "frame"
    if circuit.num_qubits <= SV_AUTO_MAX_QUBITS:
        return "statevector"
    if frame_ok:
        return "frame_approx"
    raise NoiseSamplingError(
        "no sampling method covers a {}-qubit circuit with conditional "
        "measurements/resets (statevector reach ends at {} qubits)"
        .format(circuit.num_qubits, SV_AUTO_MAX_QUBITS))


def sample_noisy(circuit: QuantumCircuit, model: NoiseModel, shots: int,
                 seed: int = 0,
                 idle_channels: Optional[Dict[int, PauliChannel]] = None,
                 config: Optional[SimulationConfig] = None,
                 method: str = "auto") -> NoiseSample:
    """Sample ``shots`` noisy executions of ``circuit`` under ``model``.

    ``idle_channels`` adds one start-of-shot channel per qubit (see
    :func:`~repro.noise.channels.idle_channels_from_lifetimes`);
    ``config`` supplies slot durations for T1/T2 gate damping.
    ``method`` is ``"auto"`` (see :func:`choose_method`), ``"frame"``,
    ``"statevector"`` or ``"frame_approx"``.
    """
    if shots < 1:
        raise NoiseSamplingError("need at least one shot")
    if method == "auto":
        method = choose_method(circuit)
    steps, num_sites = compile_noise_program(circuit, model, idle_channels,
                                             config)
    if method in ("frame", "frame_approx"):
        if not _frame_compatible(circuit):
            raise NoiseSamplingError(
                "frame sampling does not support conditional "
                "measurements/resets; use method='statevector'")
        exact = method == "frame"
        ref_bits = None
        ref_taken: Optional[Dict[int, bool]] = None
        if exact:
            if not circuit.is_clifford:
                raise NoiseSamplingError(
                    "frame sampling is exact only for Clifford circuits; "
                    "use method='statevector' or 'frame_approx'")
            ref_bits, taken = _reference_trace(circuit, seed)
            # Branch decisions indexed the way the frame loop counts gate
            # steps: circuit order, barriers/measures/resets excluded.
            ref_taken = dict(enumerate(
                t for op, t in zip(circuit, taken)
                if not (op.is_barrier or op.is_measurement or op.is_reset)))
        chunk = max(1, _MAX_UNIFORM_ENTRIES // max(1, num_sites))
        parts = [_sample_frames(circuit, model, steps, num_sites,
                                min(chunk, shots - offset), offset, seed,
                                ref_taken, exact)
                 for offset in range(0, shots, chunk)]
        sample = _concat(parts, parts[0].method, shots, seed)
        if ref_bits is not None:
            sample.reference_bits = np.tile(ref_bits, (shots, 1))
            sample.noisy_bits = (sample.reference_bits ^
                                 sample.flips).astype(np.int8)
        return sample
    if method == "statevector":
        chunk = max(1, _MAX_CHUNK_AMPLITUDES >> circuit.num_qubits)
        parts = [_sample_statevector(circuit, model, steps, num_sites,
                                     min(chunk, shots - offset), offset,
                                     seed)
                 for offset in range(0, shots, chunk)]
        return _concat(parts, "statevector", shots, seed)
    raise NoiseSamplingError(
        "unknown sampling method {!r}; expected auto/frame/"
        "statevector/frame_approx".format(method))
