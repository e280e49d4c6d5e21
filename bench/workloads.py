"""Seeded input generation for the benchmark workloads.

Every workload is a fixed batch of CLI items built from one seed. The seed
picks variable names, word letters and word order; the shape of the batch
(how many items of each kind, how many variables, which verdict a
construction must get) is fixed, so that the cost of a batch and its share
of decided items do not drift from seed to seed. Generation imports nothing
from the program under test: it writes identity and term text, axiom files
and one semiring table file, and records what each item must answer.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# The builtin tables, copied from the paper's definitions so that the
# output checks evaluate witnesses without trusting the program's tables.
# S7 is the first three elements of S7_0; "∞" is the adjoined zero.
S7_0 = (
    ("1", "a", "0", "∞"),
    ((0, 2, 2, 0), (2, 1, 2, 1), (2, 2, 2, 2), (0, 1, 2, 3)),
    ((0, 1, 2, 3), (1, 2, 2, 3), (2, 2, 2, 3), (3, 3, 3, 3)),
)
S7 = (
    S7_0[0][:3],
    tuple(row[:3] for row in S7_0[1][:3]),
    tuple(row[:3] for row in S7_0[2][:3]),
)
D2 = (("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)))
TABLES = {"S7": S7, "S7_0": S7_0, "D2": D2}

DELTA_CAP = 20  # variables; items above it may end in a visible size limit

SMALL_BOUNDS = ["--max-depth", "2", "--max-words", "4", "--max-len", "4"]


@dataclass
class Item:
    """One CLI call and what its output must satisfy.

    kind is the subcommand ("check", "witness", "delta", "axiom-check",
    "derive"). expect holds what the construction knows: the generated
    words, the verdict a construction forces (None when only the two
    deciders' agreement is checked), and limit_ok when a visible size
    limit is an acceptable answer.
    """

    kind: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    items: list[Item]
    inputs: list[str]  # what set-up loads: "builtin:NAME", "semiring:FILE", "axioms:FILE"
    tables: dict  # semiring argument -> (elements, add, mul)


def _names(rng: random.Random, k: int, first: str = "b") -> list[str]:
    """k distinct variable names, all sorting after any name starting with 'a'."""
    letters = [chr(c) for c in range(ord(first), ord("z") + 1)]
    pool = [f"{c}{d}" for c in letters for d in range(10)] + letters
    return rng.sample(pool, k)


def word_text(w) -> str:
    return "*".join(w)


def term_text(words) -> str:
    return " + ".join(word_text(w) for w in words)


def identity_text(lhs, rhs) -> str:
    return f"{term_text(lhs)} == {term_text(rhs)}"


def _cycle(names: list[str]) -> list[tuple[str, str]]:
    k = len(names)
    return [(names[i], names[(i + 1) % k]) for i in range(k)]


def _shuffled(rng: random.Random, words) -> list:
    words = list(words)
    rng.shuffle(words)
    return words


# --- check-mixed -----------------------------------------------------------


def check_mixed(rng: random.Random, tmp: Path, tiny: bool) -> Workload:
    """Request-style traffic: small random identities, both deciders.

    Stratified so that every (semiring, mode, variable count) cell gets
    the same number of items; inside a cell words are uniform random.
    """
    per_cell = 1 if tiny else 12
    var_counts = (1, 3, 6) if tiny else (1, 2, 3, 4, 5, 6)
    items = []
    for name in ("S7", "S7_0", "D2"):
        for commutative in (False, True):
            for k in var_counts:
                for _ in range(per_cell):
                    alphabet = _names(rng, k)

                    def side():
                        return [
                            tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
                            for _ in range(rng.randint(1, 4))
                        ]

                    lhs, rhs = side(), side()
                    argv = ["check", "--semiring", name, "--method", "both", "--json"]
                    argv += ["--identity", identity_text(lhs, rhs)]
                    if commutative:
                        argv.append("--commutative")
                    items.append(
                        Item(
                            "check",
                            argv,
                            {
                                "semiring": name,
                                "lhs": lhs,
                                "rhs": rhs,
                                "commutative": commutative,
                                "holds": None,
                            },
                        )
                    )
    rng.shuffle(items)
    return Workload(items, ["builtin:S7", "builtin:S7_0", "builtin:D2"], dict(TABLES))


# --- oracle-heavy ----------------------------------------------------------


def product_table(s, t):
    """Direct product of two ai-semirings, elements named 'x.y'."""
    (es, adds, muls), (et, addt, mult) = s, t
    pairs = [(i, j) for i in range(len(es)) for j in range(len(et))]
    index = {p: n for n, p in enumerate(pairs)}
    elements = tuple(f"{es[i]}.{et[j]}" for i, j in pairs)

    def op(a, b):
        return tuple(
            tuple(index[(a[i][k], b[j][l])] for k, l in pairs) for i, j in pairs
        )

    return elements, op(adds, addt), op(muls, mult)


def table_json(table) -> str:
    elements, add, mul = table
    doc = {
        "elements": list(elements),
        "add": [[elements[c] for c in row] for row in add],
        "mul": [[elements[c] for c in row] for row in mul],
    }
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def _holding(rng: random.Random, n_vars: int, cycle_len: int):
    """u + K == u + q + K with u an odd cycle: holds in S7_0, S7 and D2.

    u ≈ u + q holds in S7_0 for the odd-cycle sum u and the product q of
    its variables, and adding the same term K to both sides keeps it. K
    mentions every extra variable once, next to a cycle variable.
    """
    names = _names(rng, n_vars)
    cyc, extra = names[:cycle_len], names[cycle_len:]
    u = _cycle(cyc)
    q = tuple(cyc)
    k_words = [(x, rng.choice(cyc)) for x in extra]
    lhs = _shuffled(rng, u + k_words)
    rhs = _shuffled(rng, u + [q] + k_words)
    return lhs, rhs


def _failing_late(rng: random.Random, n_vars: int, in_d2: bool):
    """A holding identity plus words on z, a variable that sorts first, so
    that the first witness lies far into the scan.

    Over S7_0 the left side gains z and the right side z*z, which differ
    only once z leaves 1 (about a quarter into the scan). Over D2 x S7 the
    S7 part of any odd-cycle sum is absorbing, so the identity is made to
    fail in D2 instead: z*c on both sides and z alone on the right differ
    only where z is 1 in D2, which the element order puts at half the scan.
    """
    lhs, rhs = _holding(rng, n_vars - 1, 5 if n_vars - 1 < 7 else 7)
    z = "a" + str(rng.randrange(10))
    if in_d2:
        zc = (z, lhs[0][0])
        lhs, rhs = lhs + [zc], rhs + [zc, (z,)]
    else:
        lhs, rhs = lhs + [(z,)], rhs + [(z, z)]
    return _shuffled(rng, lhs), _shuffled(rng, rhs)


def oracle_heavy(rng: random.Random, tmp: Path, tiny: bool) -> Workload:
    """Brute-force oracle runs that scan all or a large part of the space."""
    product = product_table(D2, S7)
    table_file = tmp / "d2xs7.json"
    table_file.write_text(table_json(product), encoding="utf-8")
    tables = {"S7_0": S7_0, str(table_file): product}

    items = [
        Item("witness", ["witness", "--n", str(n), "--oracle", "--json"], {"n": n, "oracle": True})
        for n in ((1, 2) if tiny else (1, 2, 3, 4))
    ]
    # (semiring argument, variables, holds)
    plan = [("S7_0", 5, True), ("S7_0", 6, False), (str(table_file), 5, True)]
    if not tiny:
        plan = (
            [("S7_0", 6, True)] * 6
            + [("S7_0", 7, True)] * 3
            + [("S7_0", 8, True)] * 2
            + [("S7_0", 7, False)] * 2
            + [("S7_0", 8, False)]
            + [(str(table_file), 6, True)] * 2
            + [(str(table_file), 6, False)] * 2
            + [("S7_0", 5, True)] * 40
            + [("S7_0", 6, False)] * 40
        )
    for semiring, k, holds in plan:
        if holds:
            lhs, rhs = _holding(rng, k, 5 if k < 7 else 7)
        else:
            lhs, rhs = _failing_late(rng, k, semiring != "S7_0")
        argv = ["check", "--semiring", semiring, "--method", "oracle", "--json"]
        argv += ["--identity", identity_text(lhs, rhs)]
        items.append(
            Item(
                "check",
                argv,
                {"semiring": semiring, "lhs": lhs, "rhs": rhs, "commutative": False, "holds": holds},
            )
        )
    rng.shuffle(items)
    return Workload(items, ["builtin:S7_0", f"semiring:{table_file}"], tables)


# --- delta-wide ------------------------------------------------------------


def _wide_term(rng: random.Random, k: int):
    """A term on k variables with a nonempty delta family.

    Variables split into two sides A and B; every word has exactly one
    letter of A, so A itself is a delta set. Most words are A-B edges,
    a few are longer words with one A letter and B letters.
    """
    names = _names(rng, k)
    half = k // 2
    side_a, side_b = names[:half], names[half:]
    words = [(side_a[i % half], b) for i, b in enumerate(side_b)]
    words += [(a, rng.choice(side_b)) for a in side_a]
    words += [(rng.choice(side_a), *rng.sample(side_b, 2)) for _ in range(2)]
    return _shuffled(rng, sorted(set(words))), side_a


def _graph_axiom(rng: random.Random, k: int):
    """Candidate axiom A == B: A is the edge words of a random graph plus
    a one-letter word for each variable no edge covers (at least one), B
    is the first quarter of A's words."""
    names = _names(rng, k)
    edges = {tuple(sorted(rng.sample(names, 2))) for _ in range(k + 2)}
    covered = {x for e in edges for x in e}
    words = sorted(edges) + [(x,) for x in names if x not in covered]
    if len(words) == len(edges):
        words.append((names[0],))
    lhs = _shuffled(rng, words)
    return lhs, lhs[: max(1, len(lhs) // 4)]


def delta_wide(rng: random.Random, tmp: Path, tiny: bool) -> Workload:
    """Wide terms where delta-set enumeration does the work; no oracle.

    Wide identities go to the CLI as files: passed inline, text longer
    than a file name may be fails with exit 2, because the CLI first
    probes the --identity value as a path.
    """

    def identity_file(lhs, rhs) -> str:
        path = tmp / f"identity-{len(items)}.txt"
        path.write_text(identity_text(lhs, rhs) + "\n", encoding="utf-8")
        return str(path)

    items = [
        Item("witness", ["witness", "--n", str(n), "--json"], {"n": n, "oracle": False})
        for n in ((5, 6, 10) if tiny else range(5, 13))
    ]
    small = (8, 9, 10, 11)
    for i, k in enumerate((12, 21) if tiny else small * 10 + (12, 13, 14, 15, 16, 17, 20, 21, 22)):
        words, planted = _wide_term(rng, k)
        commutative = i % 2 == 1
        argv = ["delta", "--term", term_text(words), "--json"]
        if commutative:
            argv.append("--commutative")
        items.append(
            Item(
                "delta",
                argv,
                {"words": words, "planted": planted, "limit_ok": k > DELTA_CAP},
            )
        )
    for k in (12, 23) if tiny else small * 5 + (12, 14, 16, 18, 23):
        lhs, rhs = _graph_axiom(rng, k)
        argv = ["axiom-check", "--identity", identity_file(lhs, rhs), "--commutative", "--json"]
        items.append(
            Item("axiom-check", argv, {"lhs": lhs, "rhs": rhs, "limit_ok": k > DELTA_CAP})
        )
    for k in (13, 14, 21) if tiny else small * 3 + (13, 14, 15, 16, 17, 21, 24):
        # u == u + q on a k-cycle holds in S7_0 exactly when k is odd.
        names = _names(rng, k)
        u = _shuffled(rng, _cycle(names))
        argv = ["check", "--semiring", "S7_0", "--method", "syntactic", "--commutative", "--json"]
        argv += ["--identity", identity_file(u, u + [tuple(names)])]
        items.append(
            Item(
                "check",
                argv,
                {
                    "semiring": "S7_0",
                    "lhs": u,
                    "rhs": u + [tuple(names)],
                    "commutative": True,
                    "holds": k % 2 == 1,
                    "limit_ok": k > DELTA_CAP,
                },
            )
        )
    rng.shuffle(items)
    return Workload(items, ["builtin:S7_0"], dict(TABLES))


# --- derive-search ---------------------------------------------------------

AXIOM_SETS = {
    "sqcomm": [("sq", "x == x + x*x"), ("comm", "x*y == y*x")],
    "sqdup": [("sq", "x == x + x*x"), ("dup", "x + y == x + y + x*y")],
    "comm": [("comm", "x*y == y*x")],
}

# The long search keeps its text fixed: renaming its variables reorders
# the breadth-first frontier and moves its cost by a third. The {sq, dup}
# search for x*y == x*y + (x*y)^2 + (x*y)^4 is left out: at three times
# this one's cost it would leave a run too few rounds for a steady median.
HEAVY_GOALS = [
    ("sqcomm", "x*y*z == x*y*z + z*y*x"),
]


def derive_search(rng: random.Random, tmp: Path, tiny: bool) -> Workload:
    """Bounded derivation searches: one long one and seeded small goals.

    Small goals come from templates whose status is known: one-step
    instances of sq, dup and comm are found; a content mismatch under comm
    alone exhausts the space; a reversed word under sq and dup cannot be
    derived and runs into the bounds.
    """
    files = {}
    for name, axioms in AXIOM_SETS.items():
        path = tmp / f"axioms-{name}.json"
        doc = {"commutative": False, "axioms": [{"name": n, "identity": i} for n, i in axioms]}
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        files[name] = path

    def item(axioms, goal, status, bounds=()):
        argv = ["derive", "search", "--axioms", str(files[axioms]), "--goal", goal, "--json"]
        return Item("derive", argv + list(bounds), {"goal": goal, "axioms": str(files[axioms]), "status": status})

    items = [] if tiny else [item(a, g, "found") for a, g in HEAVY_GOALS]
    # The median item falls among the exhausted searches and the 90th
    # percentile among the truncated ones, two classes whose cost hardly
    # varies; one-step searches cost 2-7 ms depending on the names drawn.
    counts = {"sq": 12, "dup": 12, "comm": 11, "exhaust": 30, "reverse": 35}
    if tiny:
        counts = dict.fromkeys(counts, 1)
    for _ in range(counts["sq"]):
        x, y, z = _names(rng, 3)
        w, r = (x, y), (rng.choice((y, z)), z)
        lhs = _shuffled(rng, sorted({w, r}))
        items.append(item("sqdup", identity_text(lhs, lhs + [w + w]), "found", SMALL_BOUNDS))
    for _ in range(counts["dup"]):
        x, y, z = _names(rng, 3)
        u, v = (x,), (y, z)
        lhs = _shuffled(rng, [u, v])
        items.append(item("sqdup", identity_text(lhs, lhs + [u + v]), "found", SMALL_BOUNDS))
    for _ in range(counts["comm"]):
        x, y, z = _names(rng, 3)
        items.append(item("comm", identity_text([(x, y), (z,)], [(y, x), (z,)]), "found", SMALL_BOUNDS))
    for _ in range(counts["exhaust"]):
        x, y, z = _names(rng, 3)
        items.append(item("comm", identity_text([(x, y)], [(x, y), (z,)]), "absent", SMALL_BOUNDS))
    for _ in range(counts["reverse"]):
        x, y = _names(rng, 2)
        items.append(item("sqdup", identity_text([(x, y)], [(y, x)]), "absent", SMALL_BOUNDS))
    rng.shuffle(items)
    return Workload(items, [f"axioms:{path}" for path in files.values()], {})


WORKLOADS = {
    "check-mixed": check_mixed,
    "oracle-heavy": oracle_heavy,
    "delta-wide": delta_wide,
    "derive-search": derive_search,
}


def generate(name: str, seed: int, tmp: Path, tiny: bool = False) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), tmp, tiny)
