"""Time one set-up in a fresh interpreter and print the seconds it took.

    python3 bench/setup_probe.py SRC_DIR [builtin:NAME | semiring:FILE | axioms:FILE]...

The clock covers importing aisemiring and its CLI module (with the
standard modules they pull in) and loading every named input through the
public loaders: the work a CLI process does before its first item.
Interpreter start-up is outside it.
"""

import sys
from time import perf_counter


def load_inputs(pkg, specs) -> None:
    """Load each 'builtin:NAME', 'semiring:FILE' or 'axioms:FILE' through
    the package's public loaders."""
    for spec in specs:
        kind, _, value = spec.partition(":")
        if kind == "builtin":
            pkg.builtin(value)
            continue
        with open(value, encoding="utf-8") as fh:
            text = fh.read()
        if kind == "axioms":
            pkg.axioms_from_json(text)
        elif not isinstance(pkg.semiring_from_json(text), pkg.FiniteSemiring):
            raise ValueError(f"generated table {value} rejected")


if __name__ == "__main__":
    t0 = perf_counter()
    sys.path.insert(0, sys.argv[1])
    import aisemiring
    import aisemiring.cli  # noqa: F401

    load_inputs(aisemiring, sys.argv[2:])
    print(repr(perf_counter() - t0))
