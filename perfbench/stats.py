"""The benchmark's own arithmetic: self time from nested spans, medians,
each operation's fastest repeat, the host-speed reference, the
percentile rule, geomean scheme ratios and the failure fraction.

Pure standard library and free of any ``repro`` import, so the tests in
``perfbench/tests`` exercise it without the program under test.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from typing import (Callable, Dict, Iterable, List, Mapping, Sequence,
                    Tuple)


class SpanClock:
    """Layer timer that charges each wrapped call its *self* time.

    Every wrapped call is a span.  A span's self time is its duration
    minus the time of the wrapped calls nested inside it, so a layer
    that calls another (``store.put`` decodes, ``system.build`` decodes)
    is never charged twice and the self times of all layers sum to at
    most the traced interval.  ``total`` keeps the inclusive time too,
    for layers that are reported inclusively (``lanes``).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: (layer, enclosing layer) -> self time of ``layer`` spent
        #: inside an open span of the enclosing layer.
        self.inside: Dict[Tuple[str, str], float] = defaultdict(float)
        #: open spans, innermost last: [layer, nested-child time].
        self._open: List[list] = []

    def wrap(self, layer: str, fn: Callable,
             on_result: Callable = None) -> Callable:
        """``fn`` timed as a span of ``layer``; ``on_result(result)`` runs
        after the span closes (counter bookkeeping stays off the clock)."""
        clock = self.clock
        open_spans = self._open

        def wrapper(*args, **kwargs):
            open_spans.append([layer, 0.0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - open_spans.pop()[1]
                self.self_s[layer] += own
                self.total_s[layer] += elapsed
                self.calls[layer] += 1
                if open_spans:
                    open_spans[-1][1] += elapsed
                    for outer in {span[0] for span in open_spans} - {layer}:
                        self.inside[layer, outer] += own
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def union_s(self, inner: str, outer: str) -> float:
        """Time covered by spans of ``outer`` or ``inner`` (``outer``
        inclusive, plus ``inner`` self time outside ``outer``)."""
        return self.total_s[outer] + self.self_s[inner] - \
            self.inside[inner, outer]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def fastest(repeats: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Each operation's fastest time over repeats of the same operations.

    ``repeats`` holds one ``{operation: time}`` mapping per repeat; every
    repeat must cover the same operations, or ``ValueError`` is raised.
    """
    if not repeats:
        raise ValueError("no repeats")
    keys = set(repeats[0])
    for other in repeats[1:]:
        if set(other) != keys:
            raise ValueError("repeats cover different operations: {}".format(
                sorted(keys ^ set(other))[:4]))
    return {key: min(repeat[key] for repeat in repeats)
            for key in sorted(keys)}


#: Reference speed the timings are scaled to: the reference loop's
#: 10th-percentile time, in ms.
REFERENCE_MS = 0.5
REFERENCE_Q = 10


def reference_ms(clock: Callable[[], float] = time.perf_counter) -> float:
    """Time one pass of a fixed pure-Python loop (~0.5 ms on an idle
    2 GHz Xeon core), in ms: a reading of the host's speed right now."""
    start = clock()
    table: Dict[int, int] = {}
    for i in range(3000):
        table[i & 63] = table.get(i & 63, 0) + len(str(i))
    return (clock() - start) * 1e3


def host_scale(samples_ms: Sequence[float]) -> float:
    """Factor that scales a timing taken alongside ``samples_ms``
    (readings of :func:`reference_ms`) to the reference speed: a host
    whose reference loop has its 10th percentile at ``REFERENCE_MS``."""
    return REFERENCE_MS / percentile(samples_ms, REFERENCE_Q)


def percentile(values: Sequence[float], q: float,
               min_beyond: int = 10) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q < 100``).

    A percentile is only reported when at least ``min_beyond`` samples
    lie beyond it; with fewer it would be set by one or two outliers,
    so asking for it raises ``ValueError``.
    """
    if not 0 < q < 100:
        raise ValueError("percentile must be in (0, 100), got {}".format(q))
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise ValueError(
            "p{:g} of {} samples has {} beyond it; need {}".format(
                q, len(ordered), beyond, min_beyond))
    return ordered[rank - 1]


def geomean_ratio(rows: Iterable[Mapping[str, object]], numerator: str,
                  denominator: str, field: str = "makespan_cycles"
                  ) -> float:
    """Geometric mean over workloads of ``numerator``/``denominator``
    scheme values of ``field`` (Figure 15's headline statistic).

    Workloads lacking either scheme are skipped; with none left, or a
    non-positive value, ``ValueError`` is raised.
    """
    by_workload: Dict[str, Dict[str, float]] = defaultdict(dict)
    for row in rows:
        by_workload[row["workload"]][row["scheme"]] = row[field]
    logs = []
    for name, schemes in sorted(by_workload.items()):
        if numerator not in schemes or denominator not in schemes:
            continue
        top, bottom = schemes[numerator], schemes[denominator]
        if top <= 0 or bottom <= 0:
            raise ValueError("non-positive {} for {}".format(field, name))
        logs.append(math.log(top / bottom))
    if not logs:
        raise ValueError("no workload has both {} and {}".format(
            numerator, denominator))
    return math.exp(sum(logs) / len(logs))


def failure_fraction(failed: int, attempted: int) -> float:
    """Failed over attempted operations; nothing attempted is a failure
    of the run itself, never a perfect score."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed={} outside [0, attempted={}]".format(
            failed, attempted))
    return failed / attempted


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
