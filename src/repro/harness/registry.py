"""Pluggable workload registry: circuit families self-register by name.

The Figure-15 suite used to be a hard-coded list inside
:mod:`repro.harness.runner`; adding a workload meant editing the harness.
This module turns the suite into a decorator-based registry:

* A circuit family registers each instance with
  :func:`register_workload` — name, nominal size, scaling rule, dynamic-
  conversion parameters (substitution fraction, distance threshold, mesh
  kind) and free-form tags.
* The harness, the parallel sweeper and the ``repro.harness.sweep`` CLI
  all resolve workloads by name through :func:`get_workload`, so worker
  processes rebuild circuits from (name, scale) pairs — tasks stay tiny
  and spawn-safe no matter how many families exist.
* ``tags`` partition the registry: the paper's thirteen-workload
  Figure-15 list is ``tag="paper"``; new families register under
  ``tag="extra"`` (or anything else) and are picked up automatically by
  the sweep grid.

Registering a new workload takes ~10 lines in the family's module::

    from ..harness.registry import register_workload

    @register_workload("ghz_n500", size=500, min_size=4, tags=("extra",))
    def _ghz(size: int):
        return build_ghz(size)

The decorated builder receives the *scaled* size and returns a
:class:`~repro.quantum.circuit.QuantumCircuit`.  Names must be unique —
duplicate registration raises :class:`WorkloadRegistryError` instead of
silently shadowing an existing family.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..quantum.circuit import QuantumCircuit

#: Valid workload-name shape: lowercase identifier with digits/underscores.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Mesh kinds understood by the compiler driver.
MESH_KINDS = ("line", "interaction")


class WorkloadRegistryError(ReproError):
    """Raised on duplicate names or invalid workload parameters."""


def _scaled(value: int, scale: float, minimum: int) -> int:
    """Linear size scaling with a floor (the suite's historical rule)."""
    return max(minimum, int(round(value * scale)))


def _sqrt_scaled(value: int, scale: float, minimum: int) -> int:
    """Square-root scaling, used for code distances (area ~ d**2)."""
    return max(minimum, int(round(value * scale ** 0.5)))


#: Named scaling rules — kept as an enum-of-strings so Workload stays
#: picklable and JSON-describable (a bare callable would be neither).
SCALE_RULES: Dict[str, Callable[[int, float, int], int]] = {
    "linear": _scaled,
    "sqrt": _sqrt_scaled,
}


@dataclass(frozen=True)
class Workload:
    """One registered workload: a named, parameterized circuit family.

    ``builder`` maps the *scaled* size to a circuit.  All other fields
    describe how the harness turns that circuit into a Figure-15-style
    dynamic workload (or declare it already dynamic).
    """

    name: str
    builder: Callable[[int], QuantumCircuit]
    #: nominal full-scale size parameter (qubits, or code distance).
    size: int
    #: floor for the scaled size (keeps tiny test sweeps well-formed).
    min_size: int = 4
    #: how ``size`` shrinks under ``scale`` — a key of :data:`SCALE_RULES`.
    scale_rule: str = "linear"
    #: probability an eligible distant CNOT becomes a teleportation
    #: gadget; ``None`` defers to the sweep-wide default.
    substitution_fraction: Optional[float] = None
    #: linear-layout distance above which a CNOT is "long-range".
    distance_threshold: int = 1
    #: skip dynamic conversion (the family already has feedback).
    already_dynamic: bool = False
    #: intra-layer controller mesh: "line" or "interaction".
    mesh_kind: str = "line"
    tags: Tuple[str, ...] = ()

    def scaled_size(self, scale: float) -> int:
        """The size parameter after applying this family's scaling rule."""
        return SCALE_RULES[self.scale_rule](self.size, scale, self.min_size)

    def build(self, scale: float = 1.0) -> QuantumCircuit:
        """Build the (static) circuit at ``scale``."""
        return self.builder(self.scaled_size(scale))

    def spec(self, scale: float = 1.0,
             substitution_fraction: float = 0.25):
        """A :class:`~repro.harness.runner.BenchmarkSpec` view of this
        workload, for the serial harness.  ``substitution_fraction`` is
        the sweep default; the workload's own value (if any) wins."""
        from .runner import BenchmarkSpec
        fraction = (self.substitution_fraction
                    if self.substitution_fraction is not None
                    else substitution_fraction)
        return BenchmarkSpec(
            self.name, lambda size=self.scaled_size(scale): self.builder(size),
            substitution_fraction=fraction,
            distance_threshold=self.distance_threshold,
            already_dynamic=self.already_dynamic,
            mesh_kind=self.mesh_kind)


def _validate(workload: Workload) -> None:
    if not _NAME_RE.match(workload.name):
        raise WorkloadRegistryError(
            "workload name {!r} must match {}".format(
                workload.name, _NAME_RE.pattern))
    if not callable(workload.builder):
        raise WorkloadRegistryError(
            "{}: builder must be callable".format(workload.name))
    if workload.size < 1 or workload.min_size < 1:
        raise WorkloadRegistryError(
            "{}: size and min_size must be >= 1 (got {}, {})".format(
                workload.name, workload.size, workload.min_size))
    if workload.scale_rule not in SCALE_RULES:
        raise WorkloadRegistryError(
            "{}: unknown scale_rule {!r}; expected one of {}".format(
                workload.name, workload.scale_rule,
                sorted(SCALE_RULES)))
    fraction = workload.substitution_fraction
    if fraction is not None and not 0.0 <= fraction <= 1.0:
        raise WorkloadRegistryError(
            "{}: substitution_fraction must be in [0, 1], got {}".format(
                workload.name, fraction))
    if workload.distance_threshold < 1:
        raise WorkloadRegistryError(
            "{}: distance_threshold must be >= 1, got {}".format(
                workload.name, workload.distance_threshold))
    if workload.mesh_kind not in MESH_KINDS:
        raise WorkloadRegistryError(
            "{}: unknown mesh_kind {!r}; expected one of {}".format(
                workload.name, workload.mesh_kind, MESH_KINDS))


_REGISTRY: Dict[str, Workload] = {}
#: (module, sequence) per name — canonical ordering metadata (see
#: :func:`workload_names`).
_ORIGIN: Dict[str, Tuple[str, int]] = {}
#: Bumped by every register and unregister, so it doubles as the
#: registry's :func:`generation`.
_SEQUENCE = [0]


def register(workload: Workload) -> Workload:
    """Add a pre-built :class:`Workload`; rejects duplicates."""
    _validate(workload)
    if workload.name in _REGISTRY:
        raise WorkloadRegistryError(
            "workload {!r} is already registered".format(workload.name))
    _REGISTRY[workload.name] = workload
    _SEQUENCE[0] += 1
    _ORIGIN[workload.name] = (getattr(workload.builder, "__module__", ""),
                              _SEQUENCE[0])
    return workload


def register_workload(name: str, *, size: int, min_size: int = 4,
                      scale_rule: str = "linear",
                      substitution_fraction: Optional[float] = None,
                      distance_threshold: int = 1,
                      already_dynamic: bool = False,
                      mesh_kind: str = "line",
                      tags: Sequence[str] = ()):
    """Decorator: register ``fn(scaled_size) -> QuantumCircuit``."""
    def decorate(fn: Callable[[int], QuantumCircuit]
                 ) -> Callable[[int], QuantumCircuit]:
        register(Workload(
            name=name, builder=fn, size=size, min_size=min_size,
            scale_rule=scale_rule,
            substitution_fraction=substitution_fraction,
            distance_threshold=distance_threshold,
            already_dynamic=already_dynamic, mesh_kind=mesh_kind,
            tags=tuple(tags)))
        return fn
    return decorate


def unregister(name: str) -> None:
    """Remove a workload (tests use this to keep the registry clean)."""
    if _REGISTRY.pop(name, None) is not None:
        _SEQUENCE[0] += 1
    _ORIGIN.pop(name, None)


#: Modules whose import populates the registry.  Third-party families
#: just import their module before building a sweep — tasks record each
#: workload's origin module and spawn workers re-import it, so nothing
#: more is needed.  There is deliberately no setuptools entry-point
#: machinery, to stay stdlib-only.
BUILTIN_WORKLOAD_MODULES = [
    "repro.harness.workloads",        # the paper's Figure-15 suite
    "repro.circuits.clifford_t",      # random Clifford+T layers
    "repro.circuits.hidden_shift",    # bent-function hidden shift
    "repro.circuits.repetition",      # repetition-code memory (feedback)
    "repro.circuits.qaoa",            # QAOA-style MaxCut ansatz
]


def ensure_builtin_workloads() -> None:
    """Import every module in :data:`BUILTIN_WORKLOAD_MODULES` (idempotent:
    re-imports are no-ops, and each module registers at import time)."""
    import importlib
    for module in BUILTIN_WORKLOAD_MODULES:
        importlib.import_module(module)


def generation() -> int:
    """A number that changes whenever a workload is registered or
    unregistered.  Builtins are loaded first, so memos keyed on it (the
    sweep service's shard memo) never see the pre-load registry."""
    ensure_builtin_workloads()
    return _SEQUENCE[0]


def get_workload(name: str) -> Workload:
    """Look up one workload; unknown names raise with the known list."""
    ensure_builtin_workloads()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise WorkloadRegistryError(
            "unknown workload {!r} (registered: {})".format(
                name, workload_names())) from None


def origin_module(name: str) -> str:
    """Module that registered ``name`` (sweep workers import it so
    third-party families are rebuildable under ``spawn`` too)."""
    get_workload(name)  # ensure builtins are loaded / name exists
    return _ORIGIN[name][0]


def _canonical_key(name: str) -> Tuple[int, str, int]:
    """Sort key independent of *import* order: builtin modules rank in
    :data:`BUILTIN_WORKLOAD_MODULES` order (third-party modules after, by
    name), then by registration order *within* the module — which is the
    source-code definition order no matter when the module was imported."""
    module, sequence = _ORIGIN[name]
    try:
        rank = BUILTIN_WORKLOAD_MODULES.index(module)
    except ValueError:
        rank = len(BUILTIN_WORKLOAD_MODULES)
    return (rank, module, sequence)


def workload_names(tags: Optional[Sequence[str]] = None) -> List[str]:
    """Registered names in canonical order, optionally tag-filtered.

    The order is deterministic across processes and import orders — the
    sweep grid, cache layout and BENCH artifacts all depend on that.
    """
    ensure_builtin_workloads()
    wanted = set(tags) if tags is not None else None
    return sorted((name for name, w in _REGISTRY.items()
                   if wanted is None or wanted & set(w.tags)),
                  key=_canonical_key)


def all_workloads(tags: Optional[Sequence[str]] = None) -> List[Workload]:
    """Registered workloads in canonical order, optionally filtered."""
    return [_REGISTRY[name] for name in workload_names(tags)]
