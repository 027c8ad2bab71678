"""Tests of the output checks and their failure accounting.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import pytest

import run as bench


def grid_rows(bump=None):
    """A complete 12 x 4 grid; ``bump`` = (workload, scheme, makespan)."""
    rows = []
    for index in range(12):
        base = 1000 + 10 * index
        for scheme, factor in (("bisp", 1.2), ("demand", 1.5),
                               ("lockstep", 2.0), ("oracle", 1.0)):
            rows.append({"workload": "w{}".format(index), "scheme": scheme,
                         "makespan_cycles": int(base * factor),
                         "fidelity_proxy": 0.5})
    if bump is not None:
        for row in rows:
            if (row["workload"], row["scheme"]) == bump[:2]:
                row["makespan_cycles"] = bump[2]
    return rows


@pytest.fixture
def run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return bench.Run("sweep_cold", 1, 10, False)


def test_complete_grid_passes(run):
    run.attempted += bench.CELLS
    run.check_rows(grid_rows(), "sweep")
    assert run.problems == [] and run.failed == 0


def test_makespan_below_oracle_fails_that_cell(run):
    run.check_rows(grid_rows(bump=("w3", "bisp", 999)), "sweep")
    assert run.failed == 1
    assert "below oracle" in run.problems[0]


def test_missing_cells_fail(run):
    rows = grid_rows()[:-2]  # w11 loses lockstep and oracle
    run.check_rows(rows, "sweep")
    # Two cells missing, and w11's remaining cells have no oracle bound.
    assert run.failed == 2 + 2


def test_digest_must_repeat_for_a_grid_and_seed(run):
    run.check_digest("a" * 64, bench.CELLS)
    run.check_digest("a" * 64, bench.CELLS)
    assert run.failed == 0
    run.check_digest("b" * 64, bench.CELLS)
    assert run.failed == bench.CELLS


def test_failed_guard_spoils_its_cells(run):
    run.guard(True, "fine", bench.CELLS)
    run.guard(False, "bypassed", bench.CELLS)
    assert run.failed == bench.CELLS
    assert run.info["guards"] == {"fine": True, "bypassed": False}


def test_sim_metrics():
    metrics = bench.sim_metrics(grid_rows())
    assert metrics["sim_bisp_vs_lockstep"] == pytest.approx(0.6, rel=1e-2)
    assert metrics["sim_bisp_vs_oracle"] == pytest.approx(1.2, rel=1e-2)
    assert metrics["fidelity_bisp_mean"] == 0.5
    assert metrics["sim_makespan_cycles"] == sum(
        row["makespan_cycles"] for row in grid_rows())
