"""Summary statistics and the open-loop request generator.

Every timed figure the benchmark reports is a median or a rate over many
operations, or a tail by the rule below, so one slow sample on a shared
machine cannot set it.
"""

from __future__ import annotations

import itertools
import math
import statistics
import threading
import time

import numpy as np

__all__ = [
    "TAIL_BEYOND",
    "TAIL_PERCENTILES",
    "median",
    "tail",
    "poisson_offsets",
    "run_open_loop",
    "open_loop_figures",
]

#: A tail is the highest of these conventional percentiles with at least
#: :data:`TAIL_BEYOND` samples beyond it.  On a shared 2-vCPU machine a tail
#: resting on exactly ten samples moved by 20-50% between runs, so a tail
#: here rests on fifteen or more; the fixed ladder also keeps the
#: percentile from creeping when a run completes a few more operations.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 15


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n)`` for the highest of
    :data:`TAIL_PERCENTILES` with at least :data:`TAIL_BEYOND` samples
    beyond it (nearest-rank percentiles).  Raises ``ValueError`` when there
    are too few samples for any of them.
    """
    ordered = sorted(values)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(round(percentile * n / 100.0, 6))
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return float(ordered[rank - 1]), percentile, n
    raise ValueError(f"{n} samples are too few for a tail")


def poisson_offsets(rate: float, seconds: float, rng: np.random.Generator) -> list[float]:
    """Arrival offsets (s) of a Poisson process at ``rate`` over ``seconds``,
    conditioned on ``rate * seconds`` arrivals so every run sends as many
    requests: given their count, Poisson arrivals are uniform over the span."""
    count = max(1, round(rate * seconds))
    return sorted(float(t) for t in rng.uniform(0.0, seconds, size=count))


def run_open_loop(offsets, send, connections: int = 2, clock=time.perf_counter,
                  sleep=time.sleep, start_delay: float = 0.05) -> list[tuple]:
    """Send request ``i`` at ``start + offsets[i]`` over ``connections`` senders.

    ``send(i)`` performs request ``i`` and returns its outcome.  Requests
    leave in schedule order; when every sender is busy at a request's due
    time, it leaves late.  Returns one ``(due, sent, done, ok, outcome)``
    per request, where ``outcome`` is the exception when ``ok`` is false.
    """
    records: list[tuple | None] = [None] * len(offsets)
    counter = itertools.count()
    start = clock() + start_delay

    def sender():
        while True:
            i = next(counter)
            if i >= len(offsets):
                return
            due = start + offsets[i]
            now = clock()
            if due > now:
                sleep(due - now)
            sent = clock()
            try:
                outcome, ok = send(i), True
            except Exception as exc:  # counted as a failed request
                outcome, ok = exc, False
            records[i] = (due, sent, clock(), ok, outcome)

    if connections == 1:
        sender()
    else:
        threads = [threading.Thread(target=sender, daemon=True) for _ in range(connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return records


def open_loop_figures(records) -> dict:
    """Latency from the due time, and how late the generator ran.

    A request sent late because the senders were busy pays that wait in
    its latency: that is the stall a real client would see.
    """
    latency = [done - due for due, _, done, ok, _ in records if ok]
    late = [max(0.0, sent - due) for due, sent, _, _, _ in records]
    return {
        "latency_s": latency,
        "late_s": late,
        "failed": sum(1 for r in records if not r[3]),
    }
