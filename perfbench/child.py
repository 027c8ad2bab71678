"""One measured process of a sweep workload.

``python3 perfbench/child.py '<json job>'`` with ``src`` on
``PYTHONPATH``.  Modes:

* ``import`` — import one module and report how long it took (set-up
  primes ``__pycache__`` and the page cache with it);
* ``fill`` — compile every cell of a grid into a compile store, the way
  the sweep's own compile path would (set-up of ``sweep_warm``);
* ``sweep`` — run the grid through ``repro.harness.sweep.run_sweep``
  (``processes=1``), write the BENCH artifact, and report timings,
  rows, digest and counters; ``trace: true`` adds the per-layer split.

The report goes to the JSON file named by ``job["report"]``; the parent
times the process from outside (spawn to ``artifact_at``) and reads its
peak RSS from ``wait4``.  ``artifact_at`` is ``time.monotonic()``, one
system-wide clock on Linux, so it compares with the parent's stamps.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _spec(grid):
    from repro.harness.spec import SweepSpec
    from repro.noise.model import resolve_noise_model

    kwargs = {}
    if grid.get("noise"):
        kwargs = {"noise": resolve_noise_model(grid["noise"]),
                  "noise_shots": grid["noise_shots"]}
    return SweepSpec(tags=tuple(grid["tags"]), schemes=tuple(grid["schemes"]),
                     scales=(grid["scale"],), shots=(grid["shots"],),
                     device_seed=grid["seed"], **kwargs)


def _import(job):
    start = time.monotonic()
    importlib.import_module(job["module"])
    return {"import_s": time.monotonic() - start}


def _fill(job):
    """Compile each cell once into the store (no simulation)."""
    from repro.compiler.cache import CompileCache, cached_compile
    from repro.harness import registry

    spec = _spec(job["grid"])
    cache = CompileCache(job["compile_store"])
    cells = 0
    for cell in spec.cells():
        bench = registry.get_workload(cell.workload).spec(
            cell.scale, spec.substitution_fraction)
        cached_compile(bench.circuit(), scheme=cell.scheme,
                       config=spec.config, mesh_kind=bench.mesh_kind,
                       cache=cache)
        cells += 1
    return {"cells": cells}


def _sweep(job):
    started = time.monotonic()
    import repro.harness.sweep as sweep_mod
    from repro.harness import parallel
    from repro.harness.benchjson import make_bench, write_bench
    imported = time.monotonic()

    import layers
    from stats import SpanClock, reference_ms

    spec = _spec(job["grid"])
    tracing = job.get("trace", False)
    if tracing:
        clock = SpanClock()
        counts = layers.LayerCounts()
        patched = layers.install(clock, counts)
        gc_monitor = layers.GCMonitor()

    # Per-cell latency: one perf_counter pair around each cell, traced
    # or not (48 pairs against seconds of work), keyed by the cell; and
    # before each cell, outside its timing, one reading of the host's
    # speed on the same CPU.
    cell_ms = {}
    ref_ms = []
    run_cell = parallel.run_cell

    def timed_cell(task):
        ref_ms.append(reference_ms())
        t0 = time.perf_counter()
        try:
            return run_cell(task)
        finally:
            cell_ms["{}/{}".format(task.spec_name, task.scheme)] = \
                (time.perf_counter() - t0) * 1e3

    parallel.run_cell = timed_cell
    before = layers.counters()
    if tracing:
        gc_monitor.start()
    called = time.monotonic()
    rows, stats = sweep_mod.run_sweep(
        spec, processes=1, compile_cache_dir=job.get("compile_store"))
    returned = time.monotonic()
    if tracing:
        gc_monitor.stop()
    delta = layers.counter_delta(before, layers.counters())
    doc = make_bench("perfbench", rows, kind="sweep", spec=spec.to_dict(),
                     cache={"hits": stats.hits, "misses": stats.misses,
                            "compile_hits": stats.compile_hits,
                            "compile_misses": stats.compile_misses})
    write_bench(job["out"], doc)
    written = time.monotonic()
    report = {
        "artifact_at": written, "imported_at": imported,
        "import_s": imported - started, "sweep_s": returned - called,
        "rows": rows, "results_sha256": doc["results_sha256"],
        "cell_ms": cell_ms, "ref_ms": ref_ms, "counters": delta,
    }
    if tracing:
        report["layers"] = layers.layer_metrics(
            clock, counts, delta, gc_monitor, returned - called)
        report["patched"] = patched
    return report


MODES = {"import": _import, "fill": _fill, "sweep": _sweep}


def main(argv):
    job = json.loads(argv[1])
    report = MODES[job["mode"]](job)
    with open(job["report"], "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
