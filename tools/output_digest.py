"""One digest of everything the CLI answers on the benchmark's inputs.

    python3 tools/output_digest.py [ROOT]

ROOT is a source checkout (default: the one holding this script); its
src/ is imported. The four benchmark workloads are generated for seeds 1,
7 and 11 by this checkout's bench/workloads.py into a temporary
directory, and every item runs in this process through
aisemiring.cli.main, once without --json and once with it. The temporary
directory's path is replaced by a fixed token in stdout and stderr, and
the script prints the number of calls and one SHA-256 over their exit
codes, stdout and stderr. Two checkouts that print the same line answer
every call the same. One such line per workload, the number of calls
that raised an exception and the seconds taken go to stderr, so that a
changed answer points to its workload; the exit code is 1 if any call
raised.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE / "bench"))

from workloads import WORKLOADS, generate  # noqa: E402

SEEDS = (1, 7, 11)
TOKEN = "<inputs>"


def run(main, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr, raised) of one in-process call; an
    exception is reported by its type and message, which do not name the
    checkout, and raised is whether there was one."""
    out, err = io.StringIO(), io.StringIO()
    raised = False
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = f"exit {exc.code}"
    except Exception as exc:  # a crash is an answer to compare, not to stop at
        rc = f"{type(exc).__name__}: {exc}"
        raised = True
    return rc, out.getvalue(), err.getvalue(), raised


def digest(root: Path) -> tuple[int, str, int, dict[str, tuple[int, str]]]:
    """(calls, SHA-256 of their answers, calls that raised, and each
    workload's (calls, SHA-256 of its answers))."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    from aisemiring import cli

    if Path(cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"imported {cli.__file__}, not the source under {src}")
    sha, calls, crashes = hashlib.sha256(), 0, 0
    per_workload = {}
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        for name in WORKLOADS:
            own, own_calls = hashlib.sha256(), 0
            for seed in SEEDS:
                where = Path(tmp) / f"{name}-{seed}"
                where.mkdir()
                for item in generate(name, seed, where).items:
                    argv = [a for a in item.argv if a != "--json"]
                    for json_flag in ([], ["--json"]):
                        rc, out, err, raised = run(cli.main, argv + json_flag)
                        text = f"{rc}\0{out}\0{err}\0".replace(tmp, TOKEN)
                        sha.update(text.encode("utf-8"))
                        own.update(text.encode("utf-8"))
                        calls += 1
                        own_calls += 1
                        crashes += raised
            per_workload[name] = own_calls, own.hexdigest()
    return calls, sha.hexdigest(), crashes, per_workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=HERE, help="source checkout")
    args = parser.parse_args(argv)
    t0 = perf_counter()
    calls, hexdigest, crashes, per_workload = digest(args.root)
    print(f"{calls} calls, sha256 {hexdigest}")
    for name, (n, own) in per_workload.items():
        print(f"{name}: {n} calls, sha256 {own}", file=sys.stderr)
    print(f"{crashes} calls raised an exception", file=sys.stderr)
    print(f"{perf_counter() - t0:.1f} s", file=sys.stderr)
    return 1 if crashes else 0


if __name__ == "__main__":
    sys.exit(main())
