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
every call the same; the seconds taken go to stderr.
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
    """(exit code, stdout, stderr) of one in-process call; an exception is
    reported by its type and message, which do not name the checkout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = f"exit {exc.code}"
    except Exception as exc:  # a crash is an answer to compare, not to stop at
        rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def digest(root: Path) -> tuple[int, str]:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    from aisemiring import cli

    if Path(cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"imported {cli.__file__}, not the source under {src}")
    sha, calls = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        for name in WORKLOADS:
            for seed in SEEDS:
                where = Path(tmp) / f"{name}-{seed}"
                where.mkdir()
                for item in generate(name, seed, where).items:
                    argv = [a for a in item.argv if a != "--json"]
                    for json_flag in ([], ["--json"]):
                        rc, out, err = run(cli.main, argv + json_flag)
                        text = f"{rc}\0{out}\0{err}\0".replace(tmp, TOKEN)
                        sha.update(text.encode("utf-8"))
                        calls += 1
    return calls, sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=HERE, help="source checkout")
    args = parser.parse_args(argv)
    t0 = perf_counter()
    calls, hexdigest = digest(args.root)
    print(f"{calls} calls, sha256 {hexdigest}")
    print(f"{perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
