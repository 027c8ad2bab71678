"""Tests of the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import math

import pytest

from stats import (REFERENCE_MS, SpanClock, failure_fraction, fastest,
                   geomean_ratio, host_scale, percentile, ratio,
                   reference_ms)


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def spanned(clock, tracer, layer, duration, inner=None):
    """A wrapped function of ``layer`` that spends ``duration`` of its
    own time around an optional nested call."""

    def body():
        clock.now += duration / 2
        if inner is not None:
            inner()
        clock.now += duration / 2

    return tracer.wrap(layer, body)


# -- self time with nested spans --------------------------------------------

def test_self_time_excludes_nested_spans():
    clock = FakeClock()
    tracer = SpanClock(clock)
    decode = spanned(clock, tracer, "decode", 2.0)
    put = spanned(clock, tracer, "store.put", 3.0, inner=decode)
    put()
    assert tracer.total_s["store.put"] == pytest.approx(5.0)
    assert tracer.self_s["store.put"] == pytest.approx(3.0)
    assert tracer.self_s["decode"] == pytest.approx(2.0)
    # Self times partition the outermost span: nothing counted twice.
    assert sum(tracer.self_s.values()) == pytest.approx(5.0)


def test_self_time_three_levels_and_siblings():
    clock = FakeClock()
    tracer = SpanClock(clock)
    decode = spanned(clock, tracer, "decode", 1.0)
    build = spanned(clock, tracer, "system.build", 2.0, inner=decode)
    engine = spanned(clock, tracer, "engine", 4.0)

    def shot():
        build()
        engine()

    lanes = spanned(clock, tracer, "lanes", 0.5, inner=shot)
    lanes()
    engine()  # a sibling engine span outside lanes
    assert tracer.self_s["lanes"] == pytest.approx(0.5)
    assert tracer.total_s["lanes"] == pytest.approx(7.5)
    assert tracer.self_s["system.build"] == pytest.approx(2.0)
    assert tracer.self_s["engine"] == pytest.approx(8.0)
    assert tracer.calls["engine"] == 2
    assert tracer.inside["engine", "lanes"] == pytest.approx(4.0)
    assert tracer.inside["decode", "lanes"] == pytest.approx(1.0)
    # Union of engine and lanes: lanes inclusive + the engine outside it.
    assert tracer.union_s("engine", "lanes") == pytest.approx(11.5)


def test_recursive_span_of_one_layer_is_not_double_counted():
    clock = FakeClock()
    tracer = SpanClock(clock)
    inner = spanned(clock, tracer, "decode", 1.0)
    outer = spanned(clock, tracer, "decode", 1.0, inner=inner)
    outer()
    assert tracer.self_s["decode"] == pytest.approx(2.0)
    assert tracer.total_s["decode"] == pytest.approx(3.0)
    assert tracer.inside["decode", "decode"] == 0.0


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = SpanClock(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("lower", boom)()
    assert tracer.self_s["lower"] == pytest.approx(1.0)
    # The open-span stack is empty again: a following span is top level.
    spanned(clock, tracer, "emit", 1.0)()
    assert tracer.inside == {}


def test_on_result_sees_the_return_value():
    seen = []
    wrapped = SpanClock().wrap("build", lambda: [1, 2, 3],
                               on_result=lambda result: seen.append(
                                   len(result)))
    assert wrapped() == [1, 2, 3]
    assert seen == [3]


# -- geomean ratios ------------------------------------------------------------

def rows(table):
    return [{"workload": w, "scheme": s, "makespan_cycles": v}
            for w, schemes in table.items() for s, v in schemes.items()]


def test_geomean_ratio():
    grid = rows({"a": {"bisp": 50, "lockstep": 100, "oracle": 40},
                 "b": {"bisp": 80, "lockstep": 100, "oracle": 80}})
    assert geomean_ratio(grid, "bisp", "lockstep") == pytest.approx(
        math.sqrt(0.5 * 0.8))
    assert geomean_ratio(grid, "bisp", "oracle") == pytest.approx(
        math.sqrt(1.25 * 1.0))


def test_geomean_ratio_skips_incomplete_workloads():
    grid = rows({"a": {"bisp": 50, "lockstep": 100},
                 "b": {"bisp": 80}})
    assert geomean_ratio(grid, "bisp", "lockstep") == pytest.approx(0.5)
    with pytest.raises(ValueError):
        geomean_ratio(rows({"b": {"bisp": 80}}), "bisp", "lockstep")
    with pytest.raises(ValueError):
        geomean_ratio(rows({"a": {"bisp": 0, "lockstep": 1}}),
                      "bisp", "lockstep")


# -- the percentile rule -------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 90) == 90.0
    assert percentile(values, 50) == 50.0
    with pytest.raises(ValueError):
        percentile(values[:99], 90)   # 9 beyond p90
    with pytest.raises(ValueError):
        percentile(values, 95)        # 5 beyond p95
    assert percentile([float(v) for v in range(200)], 95) == 189.0


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert percentile(values, 90) == 5.0
    assert percentile(values, 50) == 3.0


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 100)
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 0)


# -- failure fraction ----------------------------------------------

def test_failure_fraction():
    assert failure_fraction(0, 48) == 0.0
    assert failure_fraction(3, 48) == pytest.approx(0.0625)
    assert failure_fraction(48, 48) == 1.0
    with pytest.raises(ValueError):
        failure_fraction(0, 0)
    with pytest.raises(ValueError):
        failure_fraction(49, 48)
    with pytest.raises(ValueError):
        failure_fraction(-1, 48)


def test_ratio_of_nothing_is_zero():
    assert ratio(3, 0) == 0.0
    assert ratio(1, 4) == 0.25


# -- each operation's fastest repeat ------------------------------------------

def test_fastest_takes_each_operation_minimum_over_repeats():
    repeats = [{"a": 3.0, "b": 10.0}, {"a": 2.0, "b": 12.0},
               {"a": 4.0, "b": 9.0}]
    assert fastest(repeats) == {"a": 2.0, "b": 9.0}


def test_fastest_rejects_repeats_over_different_operations():
    with pytest.raises(ValueError):
        fastest([{"a": 1.0, "b": 2.0}, {"a": 1.0}])
    with pytest.raises(ValueError):
        fastest([])


# -- the host-speed reference --------------------------------------------------

def test_reference_ms_times_one_pass_of_the_loop():
    ticks = iter([10.0, 10.0005])
    assert reference_ms(lambda: next(ticks)) == pytest.approx(0.5)


def test_host_scale_uses_the_tenth_percentile_of_the_readings():
    # 100 readings: ten quick ones, the rest slow spells of 2x.
    readings = [1.0] * 10 + [2.0] * 90
    assert host_scale(readings) == pytest.approx(REFERENCE_MS / 1.0)
    # A host twice as slow throughout scales its timings down by half.
    assert host_scale([2 * r for r in readings]) == pytest.approx(
        host_scale(readings) / 2)


def test_host_scale_needs_enough_readings():
    with pytest.raises(ValueError):
        host_scale([1.0] * 10)
