"""Per-layer tracing for the traced run, installed from outside ``src/``.

:func:`install` wraps the public entry point of each layer with a
:class:`~stats.SpanClock` span.  A function imported by name elsewhere
(``from ..isa.decoded import decode_program``) is a separate binding in
every importing module, so functions are patched in *every* loaded
``repro`` module that holds the original object — patching only the
defining module would silently lose the calls made through the other
bindings.  Methods are patched once, on their class.

:func:`counters` reads the program's own always-on counters, which the
untraced runs use too (the workload-validity guards).
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from typing import Dict, List, Tuple

from stats import SpanClock, ratio

#: (layer, defining module, attribute path).  Order is only cosmetic.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("build", "repro.harness.runner", "BenchmarkSpec.circuit"),
    ("lower", "repro.compiler.schemes", "Scheme.lower_and_optimize"),
    ("emit", "repro.compiler.driver", "emit_program"),
    ("decode", "repro.isa.decoded", "decode_program"),
    ("store.put", "repro.compiler.cache", "CompileCache.put"),
    ("store.get", "repro.compiler.cache", "CompileCache.get"),
    ("system.build", "repro.compiler.driver",
     "CompilationResult.build_system"),
    ("engine", "repro.sim.system", "ControlSystem.run"),
    ("lanes", "repro.sim.lanes", "run_extra_shots"),
    ("noise", "repro.noise.estimator", "estimate_fidelity"),
)

#: Modules that bind ``decode_program`` by name; each must be patched.
DECODE_BINDERS = ("repro.isa.decoded", "repro.core.node", "repro.sim.system",
                  "repro.compiler.cache")


class GCMonitor:
    """Collector pause time and generation-2 collections, from
    ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self._started = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_s += time.perf_counter() - self._started
            self._started = None
            if info.get("generation") == 2:
                self.gen2 += 1

    def start(self) -> None:
        gc.callbacks.append(self)

    def stop(self) -> None:
        if self in gc.callbacks:
            gc.callbacks.remove(self)


class LayerCounts:
    """Work counts taken from the wrapped calls' return values."""

    def __init__(self):
        self.build_ops = 0
        self.emit_instructions = 0
        self.store_hits = 0
        self.store_misses = 0
        self.engine_events = 0
        self.engine_instructions = 0
        self.engine_stall_cycles = 0
        self.noise_samples = 0

    def hooks(self) -> Dict[str, object]:
        def build(circuit):
            self.build_ops += len(circuit)

        def emit(program):
            self.emit_instructions += len(program)

        def get(result):
            if result is None:
                self.store_misses += 1
            else:
                self.store_hits += 1

        def engine(stats):
            self.engine_events += stats.events_processed
            self.engine_instructions += stats.instructions_executed
            self.engine_stall_cycles += stats.sync_stall_cycles

        def noise(estimate):
            self.noise_samples += estimate.shots

        return {"build": build, "emit": emit, "store.get": get,
                "engine": engine, "noise": noise}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(clock: SpanClock, counts: LayerCounts) -> Dict[str, List[str]]:
    """Wrap every layer of :data:`LAYERS`; returns layer -> patched
    bindings (``module.attr`` or ``module.Class.attr``)."""
    hooks = counts.hooks()
    patched: Dict[str, List[str]] = {}
    for layer, module_name, path in LAYERS:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        wrapped = clock.wrap(layer, original, hooks.get(layer))
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            patched[layer] = ["{}.{}".format(module_name, path)]
            continue
        names = []
        for name, module in sorted(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
                names.append("{}.{}".format(name, attr))
        patched[layer] = names
    missing = [m for m in DECODE_BINDERS
               if "{}.decode_program".format(m) not in patched["decode"]]
    if missing:
        raise RuntimeError("decode_program binding not patched in "
                           "{}".format(missing))
    return patched


def counters() -> Dict[str, Dict[str, int]]:
    """Snapshot of the program's always-on work counters."""
    from repro.compiler.cache import compile_cache_totals
    from repro.isa.decoded import decode_cache_stats, replay_totals
    from repro.network.sync_plan import sync_plan_totals
    from repro.obs import metrics
    from repro.sim.lanes import lane_totals

    snapshot = metrics.snapshot()
    return {"decode": decode_cache_stats(), "replay": replay_totals(),
            "lanes": lane_totals(), "sync_plan": sync_plan_totals(),
            "compile_cache": compile_cache_totals(),
            "compilations": {"total": int(snapshot.get(
                "repro_compilations_total", 0))}}


def counter_delta(before: Dict[str, Dict[str, int]],
                  after: Dict[str, Dict[str, int]]
                  ) -> Dict[str, Dict[str, int]]:
    return {group: {key: after[group][key] - before[group].get(key, 0)
                    for key in after[group]}
            for group in after}


def layer_metrics(clock: SpanClock, counts: LayerCounts,
                  delta: Dict[str, Dict[str, int]], gc_monitor: GCMonitor,
                  traced_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced sweep (names as in
    ``BENCHMARK.json``); ``traced_s`` is the traced ``run_sweep`` call."""
    own = clock.self_s
    decode = delta["decode"]
    decode_calls = decode["pin_hits"] + decode["content_hits"] + \
        decode["misses"]
    lanes = delta["lanes"]
    plans = delta["sync_plan"]
    attributed = sum(own.values())
    return {
        "build.s": own["build"], "build.ops": counts.build_ops,
        "lower.s": own["lower"], "lower.calls": clock.calls["lower"],
        "emit.s": own["emit"], "emit.instructions": counts.emit_instructions,
        "decode.s": own["decode"], "decode.misses": decode["misses"],
        "decode.hit_ratio": ratio(decode_calls - decode["misses"],
                                  decode_calls),
        "store.put_s": own["store.put"], "store.get_s": own["store.get"],
        "store.hits": counts.store_hits, "store.misses": counts.store_misses,
        "system.build_s": own["system.build"],
        "engine.s": own["engine"], "engine.events": counts.engine_events,
        "engine.instructions": counts.engine_instructions,
        "engine.instr_per_s": ratio(counts.engine_instructions,
                                    own["engine"]),
        "engine.sync_stall_cycles": counts.engine_stall_cycles,
        "lanes.s": clock.total_s["lanes"],
        "lanes.union_engine_s": clock.union_s("engine", "lanes"),
        "lanes.fastforward_ratio": ratio(
            lanes["fastforward"], lanes["fastforward"] + lanes["replayed"]),
        "sync_plan.resolved_ratio": ratio(
            plans["resolved"], plans["resolved"] + plans["fallback"]),
        "replay.vector_batches": delta["replay"]["vector"],
        "replay.block_batches": delta["replay"]["block"],
        "noise.s": own["noise"], "noise.samples": counts.noise_samples,
        "sweep.unattributed_s": max(0.0, traced_s - attributed),
        "gc.pause_s": gc_monitor.pause_s,
        "gc.gen2_collections": gc_monitor.gen2,
    }
