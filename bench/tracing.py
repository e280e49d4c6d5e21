"""Spans around the calls between the program's modules.

The tracer replaces each listed public function, in every module of the
package that binds it, by a wrapper that records a span: name, start, end,
parent span and the id of the benchmark item that caused it. Replacing the
binding in the defining module as well catches calls inside that module
(search_derivation calling verify_chain, builtin calling
validate_ai_semiring). Term construction is only counted, since a span per
Term would cost more than the work it measures. Spans stay in memory; the
benchmark aggregates them per round and writes one round out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "parsing", "terms", "algebra", "deciders", "graphs", "witness", "derivation")

TRACED = (
    ("parsing", "parse_identity"),
    ("parsing", "parse_term"),
    ("terms", "components"),
    ("terms", "filter_content_subset"),
    ("terms", "delta_sets"),
    ("terms", "substitute"),
    ("algebra", "builtin"),
    ("algebra", "semiring_from_json"),
    ("algebra", "validate_ai_semiring"),
    ("deciders", "holds_bruteforce"),
    ("deciders", "holds_d2"),
    ("deciders", "holds_s7"),
    ("deciders", "holds_s7_0"),
    ("graphs", "term_graph"),
    ("graphs", "odd_cycle"),
    ("witness", "check_witness_facts"),
    ("witness", "check_axiom_conditions"),
    ("derivation", "search_derivation"),
    ("derivation", "verify_chain"),
)


def _count_delta(counts: Counter, args, result) -> None:
    k = len({x for w in args[0].words for x in w})
    counts["terms.delta_sets.subsets"] += 2**k - 1
    counts["terms.delta_sets.members"] += len(result)


def _count_chars(counts: Counter, args, result) -> None:
    counts["parsing.chars"] += len(args[0])


COUNTERS = {
    "terms.delta_sets": _count_delta,
    "parsing.parse_identity": _count_chars,
    "parsing.parse_term": _count_chars,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.item = None
        self.spans: list = []  # [name, start, end, parent index, item]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else None, self.item]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def install(self, package: str):
        """Wrap every TRACED function and count Term constructions.

        Returns the wrapped cli.main, the entry point items go through.
        """
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for layer, fname in TRACED:
            fn = getattr(sys.modules[f"{package}.{layer}"], fname)
            wrapper = self.wrap(f"{layer}.{fname}", fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

        term_cls = sys.modules[f"{package}.terms"].Term
        init = term_cls.__init__
        counts = self.counts

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            if self.active:
                counts["terms.Term.built"] += 1
            init(obj, *args, **kwargs)

        term_cls.__init__ = counted_init
        return self.wrap("cli.main", sys.modules[f"{package}.cli"].main)

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def aggregate(spans: list, counts: Counter) -> dict:
    """Per-function calls, time and self time; per-layer self time; busy time.

    Self time is a span's duration minus that of its direct children.
    Busy time is the total duration of the root spans.
    """
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = defaultdict(float)
    busy = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += duration
        out[f"{name}.self_s"] += duration - child[i]
        out[f"{name.split('.')[0]}.self_s"] += duration - child[i]
        if parent is None:
            busy += duration
    out["trace.busy_s"] = busy
    out["trace.spans"] = len(spans)
    out.update(counts)
    return out


def write_spans(path, header: dict, spans: list) -> None:
    """One JSON line of header, then one line per span, times relative to
    the first span's start."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for name, start, end, parent, item in spans:
            fh.write(
                json.dumps(
                    {"name": name, "start": start - t0, "end": end - t0, "parent": parent, "item": item}
                )
                + "\n"
            )
