"""Reference benchmark of the sweep harness and the sweep service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``sweep_cold``        fresh process, empty compile store per sweep;
* ``sweep_warm``        fresh process, compile store filled at set-up,
                        multishot plus Monte-Carlo noise;
* ``service_roundtrip`` ``python -m repro.service serve --workers 1``,
                        one cold submission then warm re-submissions.

Each run repeats its sweeps (or service rounds) for ``--seconds``.
Timings take each part of a repeat at its fastest and are scaled to a
reference host speed (``stats.host_scale``); set-up and memory are
medians.

Every run checks its outputs and the workload's validity guards.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  The line before it carries the
machine fingerprint, the seed, the workload parameters and the digest.
A failed check or guard exits 1; a checkout without ``src/repro`` exits
2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import (SpanClock, failure_fraction, fastest,  # noqa: E402
                   geomean_ratio, host_scale, median, percentile, ratio,
                   reference_ms)

SRC = "src"
WORK = ".perfbench_work"
CHILD = os.path.join(HERE, "child.py")

#: The grid every workload runs: the paper tag (12 workloads) x 4 schemes.
BASE_GRID = {"tags": ["paper"],
             "schemes": ["bisp", "demand", "lockstep", "oracle"]}
CELLS = 12 * len(BASE_GRID["schemes"])

#: Per-workload parameters (see README for the deviations from the
#: ROADMAP reference set).
WORKLOADS: Dict[str, dict] = {
    "sweep_cold": {"scale": 0.1, "shots": 1, "store": "empty"},
    "sweep_warm": {"scale": 0.03, "shots": 6, "store": "filled",
                   "noise": "depolarizing_1e3", "noise_shots": 32},
    "service_roundtrip": {"scale": 0.05, "shots": 1, "warm": 200},
}

SETUPS = 3           # set-ups per sweep run; setup_s is their median
MIN_REPEATS = 3      # sweeps or service rounds measured, at least
MAX_REPEATS = 40
LATENCY_Q = 90       # highest percentile with >= 10 samples beyond it
DEADLINE_S = 165.0   # the whole run, set-up included, ends before 180 s
CHILD_TIMEOUT_S = 150.0

E2E_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "op_ref_ms": "ms", "sim_makespan_cycles": "cycles",
             "sim_bisp_vs_lockstep": "ratio", "sim_bisp_vs_oracle": "ratio",
             "fidelity_bisp_mean": "fraction"}

LAYER_UNITS = {
    "import.s": "s", "build.s": "s", "build.ops": "count",
    "lower.s": "s", "lower.calls": "count",
    "emit.s": "s", "emit.instructions": "count",
    "decode.s": "s", "decode.misses": "count", "decode.hit_ratio": "ratio",
    "store.put_s": "s", "store.get_s": "s", "store.hits": "count",
    "store.misses": "count", "system.build_s": "s",
    "engine.s": "s", "engine.events": "count", "engine.instructions": "count",
    "engine.instr_per_s": "1/s", "engine.sync_stall_cycles": "cycles",
    "lanes.s": "s", "lanes.fastforward_ratio": "ratio",
    "sync_plan.resolved_ratio": "ratio", "replay.vector_batches": "count",
    "replay.block_batches": "count", "noise.s": "s", "noise.samples": "count",
    "sweep.unattributed_s": "s",
    "service.submit_s": "s", "service.wait_s": "s", "service.fetch_s": "s",
    "service.lease_latency_p50_s": "s", "service.leases_granted": "count",
    "service.store_hit_rate": "ratio",
    "gc.pause_s": "s", "gc.gen2_collections": "count",
    "trace.overhead_frac": "frac", "ops_failed_frac": "frac",
}


class Run:
    """State of one benchmark run: its work directory, deadline, child
    processes, failed checks and the fingerprint it reports."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.params = dict(WORKLOADS[workload])
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.dir = os.path.abspath(os.path.join(
            WORK, "{}-s{}-t{}-{}".format(workload, seed, int(trace),
                                         os.getpid())))
        os.makedirs(self.dir)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.info: Dict[str, object] = {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "params": self.params,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg_before": os.getloadavg()}
        self._serial = 0

    # -- bookkeeping -------------------------------------------------------

    def grid(self) -> dict:
        grid = dict(BASE_GRID, scale=self.params["scale"],
                    shots=self.params["shots"], seed=self.seed)
        if self.params.get("noise"):
            grid.update(noise=self.params["noise"],
                        noise_shots=self.params["noise_shots"])
        return grid

    def path(self, stem: str) -> str:
        self._serial += 1
        return os.path.join(self.dir, "{}-{}".format(stem, self._serial))

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def elapsed(self, since: float) -> float:
        return time.monotonic() - since

    def fail(self, message: str, cells: int) -> None:
        """Record a failed check that spoils ``cells`` operations."""
        self.problems.append(message)
        self.failed += cells

    # -- child processes ---------------------------------------------------

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.pop("REPRO_OBS", None)
        return env

    def child(self, job: dict) -> dict:
        """Run ``child.py`` on ``job``; returns its report plus
        ``spawned_at`` and ``rss_mb`` (peak RSS of the child and its
        reaped descendants, from ``wait4``)."""
        job = dict(job, report=self.path("report") + ".json")
        log_path = self.path("child") + ".log"
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            process = subprocess.Popen(
                [sys.executable, CHILD, json.dumps(job)], env=self.env(),
                stdout=log, stderr=subprocess.STDOUT)
            status, rss_kb = reap(process, min(CHILD_TIMEOUT_S,
                                               self.remaining()))
        if status != 0:
            with open(log_path) as log:
                tail = log.read()[-2000:]
            raise BenchmarkError("child {} exited with {}:\n{}".format(
                job["mode"], status, tail))
        with open(job["report"]) as handle:
            report = json.load(handle)
        report.update(spawned_at=spawned, rss_mb=rss_kb / 1024.0)
        return report

    # -- output checks -----------------------------------------------------

    def check_rows(self, rows: List[dict], label: str) -> None:
        """Every cell completed, once; no makespan beats ``oracle``."""
        seen = {(row["workload"], row["scheme"]) for row in rows}
        if len(rows) != CELLS or len(seen) != CELLS:
            self.fail("{}: {} rows / {} distinct cells, expected {}".format(
                label, len(rows), len(seen), CELLS),
                max(CELLS - len(seen), 1))
        oracle = {row["workload"]: row["makespan_cycles"]
                  for row in rows if row["scheme"] == "oracle"}
        for row in rows:
            bound = oracle.get(row["workload"])
            if bound is None:
                self.fail("{}: {} has no oracle cell".format(
                    label, row["workload"]), 1)
            elif row["makespan_cycles"] < bound:
                self.fail("{}: {}/{} makespan {} below oracle {}".format(
                    label, row["workload"], row["scheme"],
                    row["makespan_cycles"], bound), 1)

    def check_digest(self, digest: str, cells: int) -> None:
        """One digest per (grid, seed) across every run in this checkout
        — and across workloads that compute the same grid."""
        ledger_path = os.path.join(WORK, "digests.json")
        key = json.dumps(self.grid(), sort_keys=True)
        try:
            with open(ledger_path) as handle:
                ledger = json.load(handle)
        except (OSError, ValueError):
            ledger = {}
        known = ledger.setdefault(key, digest)
        if known != digest:
            self.fail("results_sha256 {} differs from {} recorded earlier "
                      "for this grid and seed".format(digest[:16],
                                                      known[:16]), cells)
            return
        tmp = ledger_path + ".{}.tmp".format(os.getpid())
        with open(tmp, "w") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
        os.replace(tmp, ledger_path)

    def guard(self, ok: bool, message: str, cells: int) -> None:
        guards = self.info.setdefault("guards", {})
        guards[message] = guards.get(message, True) and bool(ok)
        if not ok:
            self.fail("validity guard failed: " + message, cells)


class BenchmarkError(RuntimeError):
    """A workload could not be run at all."""


def reap(process: subprocess.Popen, timeout: float):
    """Wait for ``process`` (killing it after ``timeout`` s); returns
    (exit status, peak RSS in KiB) from ``wait4``."""
    deadline = time.monotonic() + max(timeout, 1.0)
    delay = 0.002
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            process.returncode = os.waitstatus_to_exitcode(status)
            return process.returncode, usage.ru_maxrss
        if time.monotonic() > deadline:
            process.kill()
            _, status, usage = os.wait4(process.pid, 0)
            process.returncode = os.waitstatus_to_exitcode(status)
            raise BenchmarkError("pid {} killed after {:.0f} s".format(
                process.pid, timeout))
        time.sleep(delay)
        delay = min(delay * 2, 0.02)


# ---------------------------------------------------------------------------
# Metrics shared by every workload.
# ---------------------------------------------------------------------------

def sim_metrics(rows: List[dict]) -> Dict[str, float]:
    """Simulated-time and fidelity metrics of one grid's rows."""
    bisp = [row for row in rows if row["scheme"] == "bisp"]
    fidelity = [row.get("fidelity_empirical", row["fidelity_proxy"])
                for row in bisp]
    return {
        "sim_makespan_cycles": sum(row["makespan_cycles"] for row in rows),
        "sim_bisp_vs_lockstep": geomean_ratio(rows, "bisp", "lockstep"),
        "sim_bisp_vs_oracle": geomean_ratio(rows, "bisp", "oracle"),
        "fidelity_bisp_mean": sum(fidelity) / len(fidelity),
    }


def repeat(run: Run, once) -> list:
    """``once()`` at least ``MIN_REPEATS`` times and then while another
    repeat would mostly end within ``--seconds`` (and well before the
    deadline); returns the reports."""
    reports: list = []
    began = time.monotonic()
    while len(reports) < MAX_REPEATS:
        started = time.monotonic()
        reports.append(once())
        last = run.elapsed(started)
        if len(reports) >= MIN_REPEATS and \
                run.elapsed(began) + last / 2 >= run.seconds:
            break
        if run.remaining() < 2.5 * last:
            break
    if len(reports) < MIN_REPEATS:
        raise BenchmarkError("only {} repeats fit the deadline".format(
            len(reports)))
    return reports


# ---------------------------------------------------------------------------
# Sweep workloads.
# ---------------------------------------------------------------------------

def sweep_setup(run: Run) -> Optional[str]:
    """One set-up: prime imports (fresh process) and, for the warm
    workload, fill a fresh compile store.  Returns the store to use."""
    store = None
    if run.params["store"] == "filled":
        store = run.path("store-filled")
        report = run.child({"mode": "fill", "grid": run.grid(),
                            "compile_store": store})
        if report["cells"] != CELLS:
            raise BenchmarkError("fill compiled {} cells".format(
                report["cells"]))
    else:
        run.child({"mode": "import", "module": "repro.harness.sweep"})
    return store


def sweep_once(run: Run, store: Optional[str], trace: bool = False) -> dict:
    if run.params["store"] == "empty":
        store = run.path("store-empty")
        os.makedirs(store)
    report = run.child({"mode": "sweep", "grid": run.grid(),
                        "compile_store": store, "trace": trace,
                        "out": run.path("artifact")})
    report["wall_s"] = report["artifact_at"] - report["spawned_at"]
    report["phases_ms"] = dict(
        report["cell_ms"],
        startup=(report["imported_at"] - report["spawned_at"]) * 1e3,
        rest=(report["wall_s"] - (report["imported_at"] -
                                  report["spawned_at"])) * 1e3 -
        sum(report["cell_ms"].values()))
    run.attempted += CELLS
    label = "sweep {}".format("traced" if trace else "untraced")
    run.check_rows(report["rows"], label)
    run.check_digest(report["results_sha256"], CELLS)
    sweep_guards(run, report)
    return report


def sweep_guards(run: Run, report: dict) -> None:
    """The mechanism each sweep workload exists for must have fired."""
    counters = report["counters"]
    compile_cache = counters["compile_cache"]
    if run.workload == "sweep_cold":
        run.guard(compile_cache["misses"] == CELLS and
                  compile_cache["hits"] == 0,
                  "cold: every cell compiles and writes the store", CELLS)
    elif run.workload == "sweep_warm":
        run.guard(compile_cache["hits"] == CELLS and
                  counters["compilations"]["total"] == 0,
                  "warm: compile-store hits == cells, nothing compiled",
                  CELLS)
        if "layers" in report:
            run.guard(report["layers"]["lower.calls"] == 0,
                      "warm: lower.calls == 0", CELLS)
        lanes = counters["lanes"]
        run.guard(lanes["fastforward"] + lanes["replayed"] ==
                  CELLS * (run.params["shots"] - 1),
                  "shots: fast-forwarded + replayed == cells x (shots-1)",
                  CELLS)


def sweep_workload(run: Run) -> Dict[str, float]:
    setups = []
    store = None
    for _ in range(1 if run.trace else SETUPS):
        began = time.monotonic()
        store = sweep_setup(run)
        setups.append(run.elapsed(began))
    run.info["setup_s"] = setups

    if run.trace:
        # Untraced sweeps on both sides of the traced one; the overhead
        # is the traced wall over their mean.
        plain = [sweep_once(run, store)]
        traced = sweep_once(run, store, trace=True)
        plain.append(sweep_once(run, store))
        run.info["patched"] = traced["patched"]
        layer = dict(traced["layers"])
        layer["import.s"] = traced["import_s"]
        layer["trace.overhead_frac"] = traced["wall_s"] / (
            sum(report["wall_s"] for report in plain) / len(plain)) - 1
        run.info["shares"] = shares(layer, traced["sweep_s"])
        run.info["results_sha256"] = traced["results_sha256"]
        run.info["counters"] = traced["counters"]
        return layer

    reports = repeat(run, lambda: sweep_once(run, store))
    run.info.update(sweeps=len(reports),
                    results_sha256=reports[0]["results_sha256"],
                    counters=reports[0]["counters"],
                    wall_s=[r["wall_s"] for r in reports])
    # The host's speed swings by up to 1.7x from one second to the next,
    # and how much of it runs slow drifts over minutes (README).  Each
    # part of a sweep at its fastest over the run's sweeps follows the
    # first far less than any one sweep does; scaling to the reference
    # speed takes out the second.
    phases = fastest([r["phases_ms"] for r in reports])
    cells = fastest([r["cell_ms"] for r in reports])
    raw = {"wall_s": sum(phases.values()) / 1e3,
           "op_ms": sum(cells.values()) / len(cells)}
    scale = host_scale([ms for r in reports for ms in r["ref_ms"]])
    run.info.update(sweep_s=[r["sweep_s"] for r in reports], raw=raw,
                    host_scale=scale)
    metrics = {
        "wall_ref_s": raw["wall_s"] * scale,
        "setup_s": median(setups),
        "peak_rss_mb": median([r["rss_mb"] for r in reports]),
        "op_ref_ms": raw["op_ms"] * scale,
    }
    metrics.update(sim_metrics(reports[0]["rows"]))
    return metrics


def shares(layer: Dict[str, float], traced_s: float) -> Dict[str, float]:
    """Self-time shares of the traced ``run_sweep`` call; engine-or-lanes
    is the union of both layers' spans, so nothing is counted twice."""
    return {
        "compile_side": ratio(layer["lower.s"] + layer["emit.s"] +
                              layer["decode.s"] + layer["store.put_s"],
                              traced_s),
        "engine": ratio(layer["engine.s"], traced_s),
        "engine_or_lanes": ratio(layer["lanes.union_engine_s"], traced_s),
        "noise": ratio(layer["noise.s"], traced_s),
        "system_build": ratio(layer["system.build_s"], traced_s),
        "store_get": ratio(layer["store.get_s"], traced_s),
    }


# ---------------------------------------------------------------------------
# Service workload.
# ---------------------------------------------------------------------------

class Service:
    """``python -m repro.service serve --workers 1`` on fresh stores."""

    BOOT = re.compile(r"repro sweep service on (http://\S+)")

    def __init__(self, run: Run):
        self.run = run
        self.store = run.path("cells")
        self.compile_store = run.path("compile")
        self.log_path = run.path("serve") + ".log"
        self.process: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None
        self.rss_mb = 0.0

    def start(self, client, probe) -> None:
        """Spawn, wait for ``/healthz``, then push one probe cell through
        the worker, so the service is ready to serve end to end."""
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve",
                 "--port", "0", "--workers", "1", "--worker-poll", "1",
                 "--store", self.store, "--compile-cache",
                 self.compile_store],
                env=self.run.env(), stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
        deadline = time.monotonic() + 60
        while self.url is None:
            with open(self.log_path) as log:
                match = self.BOOT.search(log.read())
            if match:
                self.url = match.group(1)
            elif self.process.poll() is not None or \
                    time.monotonic() > deadline:
                raise BenchmarkError("service did not boot")
            else:
                time.sleep(0.01)
        client.wait_healthy(self.url, timeout=60, interval=0.01,
                            max_interval=0.05)
        status = submit_fetch(client, self.url, probe, "probe")[0]
        if status["state"] != "done":
            raise BenchmarkError("probe submission {}".format(
                status["state"]))

    def stop(self) -> None:
        """Stop the worker first, then the service.

        The service blocks its event loop while it waits for its
        workers, so a worker still in a lease long-poll would hang until
        the service kills it.  SIGTERM to the worker lets the long-poll
        return (``--worker-poll`` bounds it) and the worker exit; the
        service then reaps it at once, and the service's own ``wait4``
        RSS covers the worker too."""
        if self.process is None or self.process.returncode is not None:
            return
        try:
            for pid in children_of(self.process.pid):
                os.kill(pid, signal.SIGTERM)
            deadline = time.monotonic() + 15
            while children_alive(self.process.pid) and \
                    time.monotonic() < deadline:
                time.sleep(0.02)
            self.process.send_signal(signal.SIGTERM)
            _, rss_kb = reap(self.process, 20)
            self.rss_mb = rss_kb / 1024.0
        finally:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass


def children_of(pid: int) -> List[int]:
    """Direct children of ``pid`` (Linux ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def children_alive(pid: int) -> bool:
    """Whether ``pid`` has a child that has not exited yet (zombies,
    which have exited and wait to be reaped, do not count)."""
    for child in children_of(pid):
        try:
            with open("/proc/{}/stat".format(child)) as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z":
            return True
    return False


def submit_fetch(client, url: str, spec, name: str, clock=None):
    """One closed-loop round trip: submit -> wait_done -> fetch."""
    from repro.harness.spec import SweepSubmission

    submission = SweepSubmission(spec=spec, name=name, owner="perfbench")
    calls = (client.submit, client.wait_done, client.fetch)
    if clock is not None:
        calls = (clock.wrap("submit", calls[0]),
                 clock.wrap("wait", calls[1]),
                 clock.wrap("fetch", calls[2]))
    status = calls[0](url, submission)
    status = calls[1](url, status["id"], timeout=120, interval=0.01,
                      max_interval=0.02)
    doc = calls[2](url, status["id"]) if status["state"] == "done" else None
    return status, doc


def service_workload(run: Run) -> Dict[str, float]:
    sys.path.insert(0, os.path.abspath(SRC))
    from repro.service import client
    from repro.harness.spec import SweepSpec

    grid = run.grid()
    spec = SweepSpec(tags=tuple(grid["tags"]), schemes=tuple(grid["schemes"]),
                     scales=(grid["scale"],), shots=(grid["shots"],),
                     device_seed=grid["seed"])
    # Probe: one cell outside the measured grid (other scale).
    probe = SweepSpec(workloads=("bv_n400",), schemes=("oracle",),
                      scales=(0.02,), device_seed=grid["seed"])

    # Each set-up's service also serves one measured round: a cold
    # submission on its fresh stores, then warm re-submissions.  Rounds
    # repeat for --seconds, as the sweeps of a sweep workload do.
    def one_round() -> dict:
        service = Service(run)
        try:
            began = time.monotonic()
            service.start(client, probe)
            setup_s = run.elapsed(began)
            result = service_loop(run, client, service.url, spec)
        finally:
            service.stop()
        return dict(result, setup_s=setup_s, rss_mb=service.rss_mb)

    if run.trace:
        layer = dict(one_round()["layers"])
        layer["import.s"] = run.child({"mode": "import",
                                       "module": "repro.service.__main__"}
                                      )["import_s"]
        return layer
    rounds = repeat(run, one_round)
    warm_ms = [ms for r in rounds for ms in r["warm_ms"]]
    run.info.update(setup_s=[r["setup_s"] for r in rounds],
                    wall_s=[r["wall_s"] for r in rounds],
                    warm_samples=len(warm_ms),
                    warm_ms_p50=median(warm_ms),
                    warm_ms_p90=percentile(warm_ms, LATENCY_Q))
    # As for sweeps: each part of a round (the cold submission, the i-th
    # warm re-submission) at its fastest over the run's rounds, scaled
    # by the client's readings of the host's speed.
    warm = fastest([dict(enumerate(r["warm_ms"])) for r in rounds])
    raw = {"wall_s": min(r["cold_s"] for r in rounds) +
           sum(warm.values()) / 1e3,
           "op_ms": sum(warm.values()) / len(warm)}
    scale = host_scale([ms for r in rounds for ms in r["ref_ms"]])
    run.info.update(cold_s=[r["cold_s"] for r in rounds], raw=raw,
                    host_scale=scale)
    metrics = {
        "wall_ref_s": raw["wall_s"] * scale,
        "setup_s": median([r["setup_s"] for r in rounds]),
        "peak_rss_mb": median([r["rss_mb"] for r in rounds]),
        "op_ref_ms": raw["op_ms"] * scale,
    }
    metrics.update(sim_metrics(rounds[0]["rows"]))
    return metrics


def warm_pass(run: Run, client, url: str, spec, cold: dict, count: int,
              clocks: tuple = (None,), ref_ms: Optional[list] = None
              ) -> List[float]:
    """``count`` warm re-submissions, each under its own name; every fetch
    must return the cold fetch's rows.  Submission ``i`` is timed by
    ``clocks[i % len(clocks)]`` (None: untraced); before each, outside
    its timing, one reading of the host's speed goes to ``ref_ms``.
    Returns the latencies in ms."""
    latencies: List[float] = []
    for index in range(count):
        if ref_ms is not None:
            ref_ms.append(reference_ms())
        start = time.monotonic()
        status, doc = submit_fetch(client, url, spec,
                                   "warm_{:04d}".format(index),
                                   clocks[index % len(clocks)])
        latencies.append((time.monotonic() - start) * 1e3)
        run.attempted += CELLS
        if doc is None:
            run.fail("warm submission {} ended {}".format(
                index, status["state"]), CELLS)
        elif doc["results"] != cold["results"]:
            run.fail("warm fetch {} rows differ from the cold fetch".format(
                index), CELLS)
    return latencies


def service_loop(run: Run, client, url: str, spec) -> dict:
    """Cold submission, then warm re-submissions under distinct names."""
    warm = run.params["warm"]
    before = client.metrics(url)["counters"]
    attempted = run.attempted
    began = time.monotonic()
    status, cold = submit_fetch(client, url, spec, "cold")
    cold_s = run.elapsed(began)
    after_cold = client.metrics(url)
    run.attempted += CELLS
    if cold is None:
        run.fail("cold submission ended {}".format(status["state"]), CELLS)
        raise BenchmarkError("cold submission failed")
    run.check_rows(cold["results"], "service cold")
    run.check_digest(cold["results_sha256"], CELLS)
    cold_leases = after_cold["counters"]["leases_granted"] - \
        before["leases_granted"]
    run.guard(cold_leases > 0, "service: cold submission is leased", CELLS)

    # The traced run alternates traced and untraced round trips, so the
    # overhead estimate does not pick up drift in the host's speed.
    clock = SpanClock()
    if run.trace:
        both = warm_pass(run, client, url, spec, cold, 2 * warm,
                         clocks=(clock, None))
        warm_ms, plain_ms = both[0::2], both[1::2]
    else:
        ref_ms: List[float] = []
        warm_ms = warm_pass(run, client, url, spec, cold, warm,
                            ref_ms=ref_ms)
    wall_s = run.elapsed(began)
    counters = client.metrics(url)["counters"]
    warm_leases = counters["leases_granted"] - \
        after_cold["counters"]["leases_granted"]
    warm_hits = counters["store_hits"] - after_cold["counters"]["store_hits"]
    warm_cells = run.attempted - attempted - CELLS
    run.guard(warm_leases == 0, "service: warm submissions get 0 leases",
              warm_cells)
    run.guard(warm_hits == warm_cells,
              "service: every warm cell is a store hit", warm_cells)
    run.info.update(results_sha256=cold["results_sha256"],
                    cold_leases=cold_leases, warm_leases=warm_leases)
    if run.trace:
        lease = after_cold.get("lease_latency") or {}
        layers = {
            "service.submit_s": clock.self_s["submit"] / warm,
            "service.wait_s": clock.self_s["wait"] / warm,
            "service.fetch_s": clock.self_s["fetch"] / warm,
            "service.lease_latency_p50_s": lease.get("p50_s", 0.0),
            "service.leases_granted": cold_leases,
            "service.store_hit_rate": ratio(warm_hits, warm_cells),
            "trace.overhead_frac": median(warm_ms) / median(plain_ms) - 1,
        }
        return {"layers": layers}
    return {"wall_s": wall_s, "cold_s": cold_s, "warm_ms": warm_ms,
            "ref_ms": ref_ms,
            "rows": cold["results"]}


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("error: no {}/repro here; run from the root of a "
                         "checkout\n".format(SRC))
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        if args.workload == "service_roundtrip":
            metrics = service_workload(run)
        else:
            metrics = sweep_workload(run)
    except Exception as exc:  # any failure: report it, print no result
        sys.stderr.write("error: {}: {}: {}\n".format(
            args.workload, type(exc).__name__, exc))
        for problem in run.problems:
            sys.stderr.write("  {}\n".format(problem))
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    run.failed = min(run.failed, run.attempted)
    frac = failure_fraction(run.failed, run.attempted)
    if args.trace:
        # A layer the workload does not reach in this process reads 0:
        # sweeps have no service layers, and the service's worker runs
        # the sweep layers in its own, untraced process.
        metrics = dict({name: 0.0 for name in LAYER_UNITS}, **metrics,
                       ops_failed_frac=frac)
        units = LAYER_UNITS
    else:
        units = E2E_UNITS
    run.info.update(loadavg_after=os.getloadavg(), problems=run.problems,
                    ops_failed_frac=frac,
                    run_s=time.monotonic() - run.started)
    correct = not run.problems
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps({"fingerprint": run.info}, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
