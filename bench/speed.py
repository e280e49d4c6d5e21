"""Times scaled to a reference speed of the CPU.

The benchmark runs on a vCPU of a shared host. Co-tenants slow it by up to
2.5x, in spells of seconds to minutes, and the slowdown counts as the
process's own CPU time, so neither medians over a run nor CPU time remove
it. The benchmark therefore times a fixed piece of interpreter work, the
reference, next to every item, and scales each item's latency by

    REFERENCE_S / (median time of the nearby references)

A time reported in s or ms is thus the time on this CPU when the
reference takes REFERENCE_S, its time on an uncontended vCPU of the
machine the bounds were set on (Intel Xeon, Python 3.11). The reference
is code of the benchmark, not of the program: a change to the program
moves the scaled times as it moves the raw ones, while a spell that
slows both largely cancels out. The run prints raw times in its '#'
lines.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 255e-6
REPEATS = 3  # runs of the reference per timing
WINDOW = 5  # timings on each side of an item that set its speed


class _Node:
    __slots__ = ("a", "b", "name")

    def __init__(self, a, b, name):
        self.a, self.b, self.name = a, b, name


def reference_work() -> int:
    """About 0.25 ms of the interpreter work the CLI does: small objects,
    tuples, strings, dicts of lists, frozensets, calls and a sort.

    Allocating work tracks the program's slowdowns more closely than a
    tight loop does: over the same rounds, the log of a scaled latency
    spread 0.12-0.13 with this reference and 0.14-0.15 with a dict-and-
    tuple loop.
    """
    nodes = [_Node(i % 13, (i * 7) % 11, str(i)) for i in range(300)]
    groups = {}
    for node in nodes:
        groups.setdefault((node.a, node.b), []).append(node)
    sets = {frozenset((node.a, node.b, node.name)) for node in nodes}
    return len(sorted(groups, key=lambda k: (len(groups[k]), k))) + len(sets)


def time_reference() -> float:
    """The fastest of REPEATS back-to-back runs of the reference: the first
    run after an item pays for caches the item evicted."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        reference_work()
        best = min(best, perf_counter() - t0)
    return best


def reference_median(count: int) -> float:
    return statistics.median(time_reference() for _ in range(count))


def scaled(latencies: list[float], refs: list[float]) -> list[float]:
    """Scale latency j by the references timed around it.

    refs[j] is timed just before item j and refs[j + 1] just after it, so
    the window of item j holds both and WINDOW more on each side.
    """
    out = []
    for j, latency in enumerate(latencies):
        window = refs[max(0, j - WINDOW) : j + WINDOW + 2]
        out.append(latency * REFERENCE_S / statistics.median(window))
    return out
