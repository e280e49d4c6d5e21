"""Benchmark of the aisemiring CLI: one workload per run, closed loop, one client.

    python3 bench/run.py --workload check-mixed --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The workload's items are generated
from the seed (see workloads.py) into a temporary directory under
.bench_out/, then sent one after another, in this process and thread,
through aisemiring.cli.main(argv) with stdout and stderr captured. The
batch is repeated in rounds until --seconds is used up; every output is
checked (checks.py). Item times are scaled to a reference speed of the
CPU (speed.py), since co-tenants of the shared host slow it in spells.
With --trace 0 the end-to-end metrics are printed; with --trace 1 the
first half of the time runs untraced rounds and the second half traced
ones (tracing.py), and the per-layer metrics are printed, with the spans
of one traced round written to .bench_out/. The last line of standard
output is one JSON object; the exit code is 1 when any output was wrong
and 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from checks import check  # noqa: E402
from setup_probe import load_inputs  # noqa: E402
from speed import REFERENCE_S, reference_median, scaled, time_reference  # noqa: E402
from tracing import LAYERS, Tracer, aggregate, write_spans  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

PACKAGE = "aisemiring"
SETUP_PER_ROUND = 2  # set-ups timed before each untraced round
SETUP_REFERENCES = 11  # references timed before and after each set-up

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.main.calls": "count",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "parsing.parse_identity.calls": "count",
    "parsing.parse_identity.s": "s",
    "parsing.parse_term.calls": "count",
    "parsing.parse_term.s": "s",
    "parsing.chars_per_s": "1/s",
    "terms.Term.built": "count",
    "terms.Term.built_per_s": "1/s",
    "terms.substitute.calls": "count",
    "terms.substitute.s": "s",
    "terms.delta_sets.calls": "count",
    "terms.delta_sets.s": "s",
    "terms.delta_sets.subsets": "count",
    "terms.delta_sets.members": "count",
    "terms.delta_sets.subsets_per_s": "1/s",
    "terms.delta_sets.share": "ratio",
    "terms.components.s": "s",
    "terms.filter_content_subset.s": "s",
    "algebra.builtin.s": "s",
    "algebra.semiring_from_json.s": "s",
    "algebra.validate_ai_semiring.s": "s",
    "deciders.holds_bruteforce.calls": "count",
    "deciders.holds_bruteforce.s": "s",
    "deciders.holds_bruteforce.share": "ratio",
    "deciders.oracle.assignments": "count",
    "deciders.oracle.assignments_per_s": "1/s",
    "deciders.holds_s7.s": "s",
    "deciders.holds_s7_0.s": "s",
    "deciders.holds_d2.s": "s",
    "graphs.term_graph.s": "s",
    "graphs.odd_cycle.s": "s",
    "witness.check_witness_facts.s": "s",
    "witness.check_witness_facts.self_s": "s",
    "witness.check_axiom_conditions.s": "s",
    "witness.check_axiom_conditions.self_s": "s",
    "witness.skipped": "count",
    "derivation.search_derivation.s": "s",
    "derivation.search_derivation.share": "ratio",
    "derivation.search_derivation.explored": "count",
    "derivation.search_derivation.explored_per_s": "1/s",
    "derivation.search_derivation.truncated": "count",
    "derivation.verify_chain.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.busy_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


class MissingProgram(Exception):
    pass


def load(workload) -> None:
    """Import the package and its CLI and load the workload's inputs."""
    load_inputs(importlib.import_module(PACKAGE), workload.inputs)
    importlib.import_module(f"{PACKAGE}.cli")


def probe_setup(workload, src: Path, out_dir: Path) -> tuple[float, float]:
    """One set-up timed in a fresh interpreter (setup_probe.py), so that the
    benchmark's own process never re-imports the package; returns the time
    raw and scaled by the references timed just before and after it."""
    before = reference_median(SETUP_REFERENCES)
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(out_dir / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(src), *workload.inputs],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    if proc.returncode:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    raw = float(proc.stdout)
    ref = (before + reference_median(SETUP_REFERENCES)) / 2
    return raw, raw * REFERENCE_S / ref


def run_round(items, main, tracer=None):
    """Send every item once; returns (per-item results, reference times).

    The reference (speed.py) is timed before every item and after the
    last. Each item starts with a clean collector, as in a fresh CLI
    process: what the benchmark holds is frozen out of the collector's
    reach and garbage is collected before the item's clock starts.
    """
    gc.collect()
    gc.freeze()
    results, refs = [], []
    try:
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = i
            out, err = io.StringIO(), io.StringIO()
            gc.collect()  # the last item's garbage, before the reference
            refs.append(time_reference())
            gc.collect()
            t0 = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = main(list(item.argv))
            except SystemExit as exc:
                rc = None
                err.write(f"argument error, exit {exc.code}\n")
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            results.append((rc, out.getvalue(), err.getvalue(), perf_counter() - t0))
        refs.append(time_reference())
    finally:
        gc.unfreeze()
    return results, refs


def until(seconds: float, round_fn):
    """Yield round_fn() until another call would pass the budget (at least once)."""
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        result = round_fn()
        took = perf_counter() - t0
        yield result
        if perf_counter() + took > deadline:
            return


class Latencies:
    """Each item's scaled latencies over the rounds (speed.py), and the
    raw total of each round."""

    def __init__(self, count: int):
        self.scaled = [[] for _ in range(count)]
        self.raw_walls: list[float] = []
        self.refs: list[float] = []

    def add(self, results, refs) -> None:
        latencies = [r[3] for r in results]
        for samples, latency in zip(self.scaled, scaled(latencies, refs)):
            samples.append(latency)
        self.raw_walls.append(sum(latencies))
        self.refs.extend(refs)

    def item_s(self) -> list[float]:
        """Each item's median scaled latency."""
        return [statistics.median(samples) for samples in self.scaled]


def machine_info() -> dict:
    return {
        "cpu": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _ratio(a, b):
    return a / b if b else 0.0


class Judge:
    """Runs the output checks and keeps the tallies across rounds."""

    def __init__(self, items, tables):
        self.items, self.tables = items, tables
        self.attempted = self.failed = self.decided = 0
        self.problems: list[str] = []

    def __call__(self, results) -> dict:
        totals = dict(assignments=0, explored=0, truncated=0, skipped=0)
        for item, (rc, out, err, _) in zip(self.items, results):
            o = check(item, rc, out, err, self.tables, sys.modules[PACKAGE])
            self.attempted += 1
            self.failed += not o.ok
            self.decided += o.decided
            if not o.ok and len(self.problems) < 5:
                self.problems.append(f"{' '.join(item.argv[:3])}: {o.problem}")
            for key in totals:
                totals[key] += getattr(o, key)
        return totals


def slowest_items(items, per_item, tmp: Path, count: int = 12) -> list[str]:
    """The slowest items by median scaled latency, with quartiles over the rounds."""
    rows = []
    for item, samples in zip(items, per_item):
        q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive") if len(samples) > 1 else samples * 3
        label = " ".join(item.argv).replace(f"{tmp}/", "")
        rows.append((med, f"median {med * 1000:.1f} ms (q1 {q1 * 1000:.1f}, q3 {q3 * 1000:.1f}): {label[:90]}"))
    return [text for _, text in sorted(rows, reverse=True)[:count]]


def round_layers(agg: dict, totals: dict) -> dict:
    """Per-layer metrics of one traced round (everything but the wall times)."""
    g = lambda key: agg.get(key, 0)  # noqa: E731
    busy = g("trace.busy_s")
    out = {name: g(name) for name in PER_LAYER}
    parse_s = g("parsing.parse_identity.s") + g("parsing.parse_term.s")
    out.update(
        {
            "parsing.chars_per_s": _ratio(g("parsing.chars"), parse_s),
            "terms.delta_sets.subsets_per_s": _ratio(g("terms.delta_sets.subsets"), g("terms.delta_sets.s")),
            "terms.delta_sets.share": _ratio(g("terms.delta_sets.s"), busy),
            "deciders.holds_bruteforce.share": _ratio(g("deciders.holds_bruteforce.s"), busy),
            "deciders.oracle.assignments": totals["assignments"],
            "deciders.oracle.assignments_per_s": _ratio(totals["assignments"], g("deciders.holds_bruteforce.s")),
            "witness.skipped": totals["skipped"],
            "derivation.search_derivation.share": _ratio(g("derivation.search_derivation.s"), busy),
            "derivation.search_derivation.explored": totals["explored"],
            "derivation.search_derivation.explored_per_s": _ratio(
                totals["explored"], g("derivation.search_derivation.s")
            ),
            "derivation.search_derivation.truncated": totals["truncated"],
        }
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = g(f"{layer}.self_s")
        out[f"{layer}.self_share"] = _ratio(g(f"{layer}.self_s"), busy)
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool, root: Path) -> dict:
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise MissingProgram(f"no {PACKAGE} source under {src}")
    sys.path.insert(0, str(src))
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    # Set-up imports from a bytecode cache, as an installed CLI does,
    # whatever PYTHONDONTWRITEBYTECODE says; the cache stays in out_dir.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(out_dir / "pycache")
    info = {"workload": workload_name, "seed": seed, "machine": machine_info()}
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="inputs-") as tmp:
        workload = generate(workload_name, seed, Path(tmp), tiny)
        items = workload.items
        load(workload)
        pkg = sys.modules[PACKAGE]
        if Path(pkg.__file__).resolve().parent.parent != src:
            raise MissingProgram(f"imported {pkg.__file__}, not the checkout's source")
        judge = Judge(items, workload.tables)
        probe_setup(workload, src, out_dir)  # warm-up: writes the bytecode cache
        judge(run_round(items, pkg.cli.main)[0])  # warm-up round: checked, not timed

        def untraced_round():
            # Set-up is timed between rounds, so that its samples spread
            # over the whole run like the rounds' do.
            if not trace:
                setup_times.extend(probe_setup(workload, src, out_dir) for _ in range(SETUP_PER_ROUND))
            return run_round(items, pkg.cli.main)

        setup_times = []
        latencies = Latencies(len(items))
        untraced = seconds / 2 if trace else seconds
        for results, refs in until(untraced, untraced_round):
            latencies.add(results, refs)
            judge(results)
        item_s = latencies.item_s()
        wall_s = sum(item_s)
        info.update(
            items_per_round=len(items),
            rounds=len(latencies.raw_walls),
            item_samples=len(items) * len(latencies.raw_walls),
            setup_samples=len(setup_times),
            reference_s=statistics.median(latencies.refs),
            raw_round_walls_s=[round(w, 4) for w in latencies.raw_walls],
            slowest=slowest_items(items, latencies.scaled, Path(tmp)),
        )
        if setup_times:
            info["raw_setup_s"] = statistics.median(t[0] for t in setup_times)

        if not trace:
            deciles = statistics.quantiles(item_s, n=10, method="inclusive")
            metrics = {
                "setup_s": statistics.median(t[1] for t in setup_times),
                "wall_s": wall_s,
                "items_per_s": len(items) / wall_s,
                "item_ms_p50": deciles[4] * 1000,
                "item_ms_p90": deciles[8] * 1000,
                "decided_share": judge.decided / judge.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            tracer = Tracer()
            traced_main = tracer.install(PACKAGE)

            def traced_round():
                # One traced load first puts the loaders into the layer split;
                # it is not part of the round's wall time.
                tracer.active, tracer.item = True, "setup"
                load(workload)
                results, refs = run_round(items, traced_main, tracer)
                tracer.active = False
                return results, refs, tracer.take()

            per_round = []
            traced = Latencies(len(items))
            for results, refs, (spans, counts) in until(seconds - untraced, traced_round):
                traced.add(results, refs)
                per_round.append(round_layers(aggregate(spans, counts), judge(results)))
                if len(per_round) == 1:
                    header = dict(info, unit="s", note="times relative to the first span")
                    write_spans(out_dir / f"spans-{workload_name}-seed{seed}.jsonl", header, spans)
            metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
            traced_wall = sum(traced.item_s())
            metrics.update(
                {
                    "terms.Term.built_per_s": metrics["terms.Term.built"] / wall_s,
                    "trace.wall_s": traced_wall,
                    "trace.untraced_wall_s": wall_s,
                    "trace.overhead_s": traced_wall - wall_s,
                }
            )
            info["traced_rounds"] = len(per_round)
            metrics = {name: metrics.get(name, 0) for name in PER_LAYER}
    info.update(attempted=judge.attempted, failed=judge.failed, problems=judge.problems)
    return {"metrics": metrics, "info": info}


def report(result: dict, units: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    info, metrics = result["info"], result["metrics"]
    for key in ("workload", "seed", "machine", "items_per_round", "rounds", "traced_rounds",
                "item_samples", "setup_samples", "reference_s", "raw_setup_s", "raw_round_walls_s"):
        if key in info:
            print(f"# {key}: {info[key]}")
    for row in info.get("slowest", []):
        print(f"# item {row}")
    for problem in info["problems"]:
        print(f"# failed: {problem}")
    error_share = info["failed"] / info["attempted"]
    print(f"error_share = {error_share:.6g} ratio ({info['failed']} of {info['attempted']} items)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="a few items per kind, for the smoke test"
    )
    args = parser.parse_args(argv)
    root = BENCH.parent
    if hasattr(os, "sched_setaffinity"):
        # One client on one CPU: migrations between CPUs cost this
        # single-threaded loop more, and more unevenly, than staying put.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, root)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = report(result, PER_LAYER if args.trace else END_TO_END)
    sys.stdout.flush()
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
