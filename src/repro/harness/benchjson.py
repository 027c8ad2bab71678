"""Machine-readable benchmark artifacts: ``BENCH_<name>.json``.

Every benchmark — the sweep CLI and each script under ``benchmarks/`` —
emits its numbers as a schema-validated JSON document alongside its text
output, so CI can archive, diff and regression-gate them instead of
grepping stdout.  The schema is enforced by :func:`validate_bench`
(hand-rolled: the container deliberately has no ``jsonschema``
dependency) both when writing and when loading.

Document layout (schema version 2)::

    {
      "schema_version": 2,
      "name": "sweep",                  # -> file BENCH_sweep.json
      "kind": "sweep" | "benchmark",
      "machine": {"platform": ..., "python": ..., "cpu_count": ...},
      "spec": {...} | null,             # SweepSpec.to_dict() for sweeps
      "cache": {"hits": 0, "misses": 63} | null,
      "results": [ {flat scalar row}, ... ],   # non-empty
      "results_sha256": "...",          # digest of canonical results JSON
      "volatile": {...}                 # optional; wall-clock etc.
    }

``results`` rows are flat string-to-scalar maps.  ``kind="sweep"`` rows
must carry the full cell identity + metrics (:data:`SWEEP_ROW_KEYS`);
noisy sweeps add the Monte-Carlo columns of
:data:`SWEEP_NOISE_ROW_KEYS` (``fidelity_empirical`` with its
confidence interval plus shot/seed/method metadata — type-checked
whenever present, required as a group when any one appears).
``kind="service"`` rows carry the sweep-service counters of
:data:`SERVICE_ROW_KEYS` (submission/cell totals, store + in-flight
dedup hits, lease bookkeeping); timing-dependent detail — lease-latency
percentiles, queue-depth traces, throughput — belongs in ``volatile``
with the wall-clocks.  ``kind="chaos"`` rows summarise one seeded
fault-injection soak (:data:`CHAOS_ROW_KEYS`): the injected-fault
counters by site, quarantine count and the converged sweep's own
``results_sha256`` — everything a fixed chaos seed reproduces exactly.
Timing-coupled bookkeeping (client retries, re-leases, wall-clock)
reports through ``volatile``.  ``kind="benchmark"`` rows are free-form
but need at least one numeric value.  Everything outside ``volatile`` is
deterministic for a fixed spec and seed — byte-identical between serial
and parallel execution — which is why wall-clock timings are *only*
allowed inside ``volatile`` (it is excluded from ``results_sha256``).

Version history: v2 added the noise columns and the optional ``noise``/
``noise_shots`` spec fields; v3 added the ``service`` row family
(``repro.service`` load/soak artifacts) and later the ``chaos`` row
family (seeded fault-injection soaks; same version — purely additive).  Older artifacts still *load*
— the validator accepts them read-only so old baselines keep gating —
but :func:`write_bench` only emits the current version.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile
from typing import Dict, List, Optional

from ..errors import ReproError

BENCH_SCHEMA_VERSION = 3

#: Schema versions :func:`validate_bench` accepts on *load*; only the
#: current version may be written (older artifacts are read-only).
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3)

#: Required keys (and checked types) of every ``kind="sweep"`` result row.
SWEEP_ROW_KEYS = {
    "workload": str,
    "scheme": str,
    "scale": (int, float),
    "shots": int,
    "num_qubits": int,
    "num_ops": int,
    "feedback_ops": int,
    "makespan_cycles": int,
    "sync_stall_cycles": int,
    "runtime_ns": (int, float),
    "fidelity_proxy": (int, float),
}

#: Monte-Carlo columns of noisy sweep rows (schema v2): all-or-none per
#: row, type-checked when present.
SWEEP_NOISE_ROW_KEYS = {
    "fidelity_empirical": (int, float),
    "fidelity_ci_low": (int, float),
    "fidelity_ci_high": (int, float),
    "noise_method": str,
    "noise_shots": int,
    "noise_seed": int,
}

#: Required keys (and checked types) of every ``kind="service"`` row —
#: the deterministic counters of one sweep-service run (schema v3).
#: ``hits`` is store hits + in-flight dedup hits combined: for a fixed
#: warm store the *sum* is deterministic while the split depends on
#: completion timing, so the split (and every latency number) reports
#: through ``volatile`` instead.
SERVICE_ROW_KEYS = {
    "label": str,
    "submissions": int,
    "cells_total": int,
    "hits": int,
    "misses": int,
    "hit_rate": (int, float),
    "leases_granted": int,
    "leases_expired": int,
}

#: Required keys (and checked types) of every ``kind="chaos"`` row —
#: the deterministic outcome of one seeded fault-injection soak.  Every
#: counter here replays byte-identically for a fixed chaos seed (fault
#: budgets are exhausted by construction); anything traffic- or
#: timing-dependent (client retries, re-leases, expiry sweeps,
#: wall-clock) belongs in ``volatile``.
CHAOS_ROW_KEYS = {
    "label": str,
    "chaos_seed": int,
    "cells_total": int,
    "faults_total": int,
    "faults_http": int,
    "faults_worker": int,
    "faults_scheduler": int,
    "faults_diskcache": int,
    "worker_crashes": int,
    "store_quarantines": int,
    "converged": bool,
    "sweep_results_sha256": str,
}

_SCALARS = (str, int, float, bool, type(None))

#: Required-key tables of the row families that have one.
_ROW_KEYS = {"sweep": SWEEP_ROW_KEYS, "service": SERVICE_ROW_KEYS,
             "chaos": CHAOS_ROW_KEYS}


class BenchSchemaError(ReproError):
    """Raised when a BENCH document violates the schema."""


def machine_stats() -> Dict[str, object]:
    """Stable facts about the executing machine (no wall-clock, no PIDs:
    this block must not break serial/parallel bit-identity)."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }


def canonical_results_json(results: List[Dict[str, object]]) -> str:
    """Canonical (sorted-keys, no-whitespace) JSON of the results rows."""
    return json.dumps(results, sort_keys=True, separators=(",", ":"))


def results_digest(results: List[Dict[str, object]]) -> str:
    """SHA-256 of the canonical results JSON — the artifact's identity."""
    return hashlib.sha256(
        canonical_results_json(results).encode("utf-8")).hexdigest()


def make_bench(name: str, results: List[Dict[str, object]],
               kind: str = "benchmark",
               spec: Optional[Dict[str, object]] = None,
               cache: Optional[Dict[str, int]] = None,
               volatile: Optional[Dict[str, object]] = None
               ) -> Dict[str, object]:
    """Assemble (and validate) a BENCH document from its parts."""
    doc: Dict[str, object] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "kind": kind,
        "machine": machine_stats(),
        "spec": spec,
        "cache": cache,
        "results": results,
        "results_sha256": results_digest(results),
    }
    if volatile is not None:
        doc["volatile"] = volatile
    validate_bench(doc)
    return doc


def _fail(path: str, message: str) -> None:
    raise BenchSchemaError("{}: {}".format(path, message))


def _row_path(index: int, key: Optional[str] = None) -> str:
    path = "results[{}]".format(index)
    return path if key is None else "{}.{}".format(path, key)


def _check_type(path: str, value: object, types, optional: bool = False):
    if optional and value is None:
        return
    if not isinstance(value, types):
        names = (types.__name__ if isinstance(types, type)
                 else "/".join(t.__name__ for t in types))
        _fail(path, "expected {}, got {!r}".format(names, type(value).__name__))


def validate_bench(doc: object) -> Dict[str, object]:
    """Validate a BENCH document against the schema.

    Both schema versions in :data:`SUPPORTED_SCHEMA_VERSIONS` validate
    (v1 artifacts remain loadable); returns the document on success and
    raises :class:`BenchSchemaError` naming the offending path otherwise.
    """
    if not isinstance(doc, dict):
        raise BenchSchemaError("document must be a JSON object")
    required = ("schema_version", "name", "kind", "machine", "spec",
                "cache", "results", "results_sha256")
    for key in required:
        if key not in doc:
            _fail(key, "missing required key")
    allowed = set(required) | {"volatile"}
    extra = set(doc) - allowed
    if extra:
        _fail(sorted(extra)[0], "unknown top-level key")
    if doc["schema_version"] not in SUPPORTED_SCHEMA_VERSIONS:
        _fail("schema_version", "expected one of {}, got {!r}".format(
            SUPPORTED_SCHEMA_VERSIONS, doc["schema_version"]))
    _check_type("name", doc["name"], str)
    if not doc["name"] or not all(
            c.isalnum() or c == "_" for c in doc["name"]):
        _fail("name", "must be a non-empty [A-Za-z0-9_]+ string")
    if doc["kind"] not in ("sweep", "benchmark", "service", "chaos"):
        _fail("kind", "must be 'sweep', 'benchmark', 'service' or 'chaos'")
    if doc["kind"] in ("service", "chaos") and doc["schema_version"] < 3:
        _fail("kind", "'{}' rows need schema_version >= 3, got {}"
              .format(doc["kind"], doc["schema_version"]))
    _check_type("machine", doc["machine"], dict)
    for key in ("platform", "python", "cpu_count"):
        if key not in doc["machine"]:
            _fail("machine." + key, "missing required key")
    _check_type("machine.cpu_count", doc["machine"]["cpu_count"], int)
    _check_type("spec", doc["spec"], dict, optional=True)
    _check_type("cache", doc["cache"], dict, optional=True)
    if doc["cache"] is not None:
        for key in ("hits", "misses"):
            if key not in doc["cache"]:
                _fail("cache." + key, "missing required key")
            _check_type("cache." + key, doc["cache"][key], int)
    _check_type("results", doc["results"], list)
    if not doc["results"]:
        _fail("results", "must be non-empty")
    kind = doc["kind"]
    row_keys = _ROW_KEYS.get(kind)
    # Valid rows are the common case (every make_bench runs this), so a
    # field's path is only formatted once the field has failed.
    for i, row in enumerate(doc["results"]):
        if not isinstance(row, dict):
            _check_type(_row_path(i), row, dict)
        for key, value in row.items():
            if not isinstance(value, _SCALARS):
                _check_type(_row_path(i, key), value, _SCALARS)
        if row_keys is not None:
            for key, types in row_keys.items():
                if key not in row:
                    _fail(_row_path(i, key),
                          "missing {}-row key".format(kind))
                if not isinstance(row[key], types):
                    _check_type(_row_path(i, key), row[key], types)
        if kind == "sweep":
            present = [key for key in SWEEP_NOISE_ROW_KEYS if key in row]
            if present and len(present) != len(SWEEP_NOISE_ROW_KEYS):
                missing = sorted(set(SWEEP_NOISE_ROW_KEYS) - set(present))
                _fail(_row_path(i, missing[0]),
                      "noisy sweep rows need all of {}".format(
                          sorted(SWEEP_NOISE_ROW_KEYS)))
            for key in present:
                if not isinstance(row[key], SWEEP_NOISE_ROW_KEYS[key]):
                    _check_type(_row_path(i, key), row[key],
                                SWEEP_NOISE_ROW_KEYS[key])
        elif kind == "service":
            if row["hits"] + row["misses"] != row["cells_total"]:
                _fail(_row_path(i), "hits + misses must equal cells_total")
        elif kind == "chaos":
            by_site = (row["faults_http"] + row["faults_worker"] +
                       row["faults_scheduler"] + row["faults_diskcache"])
            if by_site != row["faults_total"]:
                _fail(_row_path(i),
                      "per-site fault counts must sum to faults_total")
        elif not any(isinstance(v, (int, float)) and not isinstance(v, bool)
                     for v in row.values()):
            _fail(_row_path(i),
                  "benchmark row needs at least one numeric value")
    _check_type("results_sha256", doc["results_sha256"], str)
    expected = results_digest(doc["results"])
    if doc["results_sha256"] != expected:
        _fail("results_sha256", "digest mismatch (expected {})".format(
            expected))
    if "volatile" in doc:
        _check_type("volatile", doc["volatile"], dict)
    return doc


def bench_filename(name: str) -> str:
    return "BENCH_{}.json".format(name)


def write_bench(directory: str, doc: Dict[str, object]) -> str:
    """Validate and atomically write ``BENCH_<name>.json`` under
    ``directory`` (created if missing).  Returns the file path.

    Only the current schema version may be written — older artifacts
    load read-only; rebuild them through :func:`make_bench` to migrate.
    """
    validate_bench(doc)
    if doc["schema_version"] != BENCH_SCHEMA_VERSION:
        raise BenchSchemaError(
            "schema_version: refusing to write version {} (older "
            "artifacts are read-only; current version is {})".format(
                doc["schema_version"], BENCH_SCHEMA_VERSION))
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, bench_filename(doc["name"]))
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_bench(path: str) -> Dict[str, object]:
    """Read and validate a BENCH artifact."""
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise BenchSchemaError(
                "{}: invalid JSON: {}".format(path, exc)) from None
    return validate_bench(doc)


def _row_key(row: Dict[str, object]):
    return (row.get("workload"), row.get("scheme"), row.get("scale"),
            row.get("shots"))


def compare_benches(baseline: Dict[str, object], current: Dict[str, object],
                    max_regression: float = 0.25,
                    metric: str = "makespan_cycles") -> List[str]:
    """Regression-gate ``current`` against ``baseline``.

    Returns human-readable violation strings: a cell whose ``metric``
    grew by more than ``max_regression`` (fraction), or a baseline cell
    missing from the current run (coverage loss).  Cells that are new in
    ``current`` — freshly registered workloads — are fine.
    """
    current_rows = {_row_key(r): r for r in current["results"]}
    violations = []
    for row in baseline["results"]:
        key = _row_key(row)
        label = "{}/{} scale={} shots={}".format(*key)
        now = current_rows.get(key)
        if now is None:
            violations.append(
                "coverage loss: baseline cell {} missing".format(label))
            continue
        old_value, new_value = row.get(metric), now.get(metric)
        if not isinstance(old_value, (int, float)) or \
                not isinstance(new_value, (int, float)):
            continue
        if old_value > 0 and new_value > old_value * (1.0 + max_regression):
            violations.append(
                "regression: {} {} {} -> {} (+{:.1f}% > {:.0f}%)".format(
                    label, metric, old_value, new_value,
                    100.0 * (new_value / old_value - 1.0),
                    100.0 * max_regression))
    return violations
