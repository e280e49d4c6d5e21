import itertools
import random
from bisect import bisect_left
from functools import cache, partial
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aisemiring import (
    FiniteSemiring,
    Identity,
    SizeLimitError,
    Term,
    Verdict,
    adjoin_zero,
    builtin,
    content,
    cross_validate,
    delta_sets,
    evaluate,
    holds_bruteforce,
    holds_d2,
    holds_s0_lift,
    holds_s7,
    holds_s7_0,
    make_witness,
    parse_identity,
    random_identity,
    validate_ai_semiring,
)
from aisemiring.deciders import (
    NAME_ORDER_LEAVES,
    ORACLE_STATS,
    _holds_trivial,
    _Search,
    _search_order,
    _word_plan,
)
from aisemiring import terms
from aisemiring.terms import fold_words

S7 = builtin("S7")
S7_0 = builtin("S7_0")
D2 = builtin("D2")

SQUARE_ABSORPTION = parse_identity("x^2 + y == x^2*y^2")
SQUARE_PADDING = parse_identity("x^2 + y == x^2 + y + y^2")
# the 7-cycle x1*x2 + x2*x3 + ... + x7*x1
CYCLE_7 = " + ".join(f"x{i}*x{i % 7 + 1}" for i in range(1, 8))
# the 5-cycle plus x6*x2 on both sides, q = x1*...*x5 on the rhs
CYCLE_5 = " + ".join(f"x{i}*x{i % 5 + 1}" for i in range(1, 6))
SHARED_LHS, SHARED_RHS = f"{CYCLE_5} + x6*x2", f"{CYCLE_5} + x1*x2*x3*x4*x5 + x6*x2"
# two triangles on interleaved names
TRIANGLES = "a*c + c*e + e*a + b*d + d*f + f*b"


def _product(s, t):
    pairs = [(a, b) for a in range(s.size) for b in range(t.size)]

    def table(op_s, op_t):
        return [[pairs.index((op_s[a][c], op_t[b][d])) for c, d in pairs] for a, b in pairs]

    out = validate_ai_semiring(
        [f"{s.elements[a]}.{t.elements[b]}" for a, b in pairs],
        table(s.add, t.add),
        table(s.mul, t.mul),
    )
    assert isinstance(out, FiniteSemiring), out
    return out


D2_S7 = _product(D2, S7)


class TestSeparatingIdentities:
    """The two identities that tell the three algebras apart."""

    @pytest.mark.parametrize(
        "ident,algebra,syntactic,expected",
        [
            (SQUARE_ABSORPTION, S7, holds_s7, True),
            (SQUARE_ABSORPTION, D2, holds_d2, False),
            (SQUARE_ABSORPTION, S7_0, holds_s7_0, False),
            (SQUARE_PADDING, S7, holds_s7, True),
            (SQUARE_PADDING, D2, holds_d2, True),
            (SQUARE_PADDING, S7_0, holds_s7_0, False),
        ],
        ids=[
            "absorption-S7",
            "absorption-D2",
            "absorption-S7_0",
            "padding-S7",
            "padding-D2",
            "padding-S7_0",
        ],
    )
    def test_both_routes_agree(self, ident, algebra, syntactic, expected):
        assert syntactic(ident).holds is expected
        assert holds_bruteforce(algebra, ident).holds is expected

    def test_padding_failure_clause(self):
        v = holds_s7_0(SQUARE_PADDING)
        assert not v.holds
        assert v.details["clause"] == "delta"
        assert v.details["separating"] == ["y"]

    def test_content_failure_clause(self):
        # the cover {x} of the component x ≈ x + x*y misses y
        v = holds_s7_0(parse_identity("x == x + x*y"))
        assert not v.holds
        assert v.details["clause"] == "content"
        assert v.details["only_rhs"] == ["y"]

    def test_absorption_failure_in_d2_names_component(self):
        v = holds_d2(SQUARE_ABSORPTION)
        assert not v.holds
        assert "component" in v.details


class TestBruteForce:
    def test_trivial_identity_short_circuits(self):
        ident = parse_identity("x*y + z == z + x*y")
        assert holds_bruteforce(S7_0, ident).holds

    @pytest.mark.parametrize("name", ["S7", "S7_0", "D2", "trivial"])
    @pytest.mark.parametrize("commutative", [False, True])
    def test_stats_keys_in_report_order(self, name, commutative):
        # every verdict's stats keys are ORACLE_STATS in its order, so a
        # JSON report prints them in that order; a trivial identity counts 0
        assert ORACLE_STATS == ("nodes", "memo_hits", "top_pruned", "settled_pruned")
        s = builtin(name)
        trivial = holds_bruteforce(s, parse_identity("x*y + z == z + x*y", commutative))
        assert list(trivial.stats.items()) == [(key, 0) for key in ORACLE_STATS]
        searched = holds_bruteforce(s, parse_identity("x*y + z == x*y + z*x", commutative))
        assert tuple(searched.stats) == ORACLE_STATS
        assert searched.stats["nodes"] > 0

    def test_first_falsifying_assignment_is_deterministic(self):
        v = holds_bruteforce(S7_0, SQUARE_PADDING)
        assert v.witness == {"x": "∞", "y": "a"}
        assert "evaluate to" in v.reason

    def test_cap(self, monkeypatch):
        # the node budget is checked as the search runs, not up front
        ident = make_witness(3).identity
        nodes = holds_bruteforce(S7_0, ident).stats["nodes"]
        monkeypatch.setattr("aisemiring.deciders.ORACLE_NODE_BUDGET", nodes)
        assert holds_bruteforce(S7_0, ident).holds
        monkeypatch.setattr("aisemiring.deciders.ORACLE_NODE_BUDGET", 50)
        with pytest.raises(SizeLimitError) as caught:
            holds_bruteforce(S7_0, ident)
        exc = caught.value
        assert (exc.guard, exc.done, exc.limit) == ("ORACLE_NODE_BUDGET", 51, 50)
        assert str(exc) == "capped by ORACLE_NODE_BUDGET: 51 nodes visited, limit 50"

    def test_cap_inside_a_leaf_batch(self, monkeypatch):
        # leaves are counted one by one like inner nodes: the search stops
        # at the node past the budget, not after its siblings
        ident = parse_identity("x*y == y*x")
        assert holds_bruteforce(S7_0, ident).stats["nodes"] == 16
        monkeypatch.setattr("aisemiring.deciders.ORACLE_NODE_BUDGET", 3)
        with pytest.raises(SizeLimitError) as caught:
            holds_bruteforce(S7_0, ident)
        assert (caught.value.done, caught.value.limit) == (4, 3)

    def test_stats(self):
        v = holds_bruteforce(S7_0, SQUARE_PADDING)
        assert v.stats == {"nodes": 10, "memo_hits": 0, "top_pruned": 2, "settled_pruned": 0}
        assert v.to_dict()["stats"] == v.stats
        assert holds_bruteforce(S7_0, parse_identity("x + y == y + x")).stats["nodes"] == 0
        assert "stats" not in holds_s7(SQUARE_PADDING).to_dict()
        witness = holds_bruteforce(S7_0, make_witness(4).identity)
        assert witness.stats["top_pruned"] > 0 and witness.stats["settled_pruned"] > 0
        # the zero settles the witness before any state repeats; D2xS7 has
        # a zero too, but there the memo still hits
        shared = holds_bruteforce(D2_S7, parse_identity(f"{SHARED_LHS} == {SHARED_RHS}"))
        assert shared.stats["memo_hits"] > 0 and shared.stats["settled_pruned"] > 0

    @pytest.mark.parametrize(
        "s,ident,witness,stats",
        [
            (S7_0, make_witness(5).identity, None, (124, 0, 54, 28)),
            (S7_0, make_witness(12).identity, None, (292, 0, 138, 70)),
            (S7_0, parse_identity(f"{CYCLE_7} == {CYCLE_7} + x3*x1*x4*x7*x2*x6*x5"), None, (76, 0, 30, 16)),
            (
                S7_0,
                parse_identity(f"{CYCLE_7} + x2*x5*x2 == {CYCLE_7} + x5*x2*x5 + x3*x1*x4*x7*x2*x6*x5"),
                {"x1": "1", "x2": "a", "x3": "1", "x4": "a", "x5": "1", "x6": "a", "x7": "∞"},
                (311, 9, 50, 3),
            ),
            (S7_0, parse_identity(f"{SHARED_LHS} == {SHARED_RHS}"), None, (52, 0, 26, 14)),
            (D2_S7, parse_identity(f"{SHARED_LHS} == {SHARED_RHS}"), None, (1878, 76, 204, 92)),
            (
                S7_0,
                parse_identity(f"{SHARED_LHS} + a0 == {SHARED_RHS} + a0*a0"),
                {"a0": "a", "x1": "1", "x2": "a", "x3": "1", "x4": "a", "x5": "∞", "x6": "1"},
                (573, 49, 191, 0),
            ),
            (
                D2_S7,
                parse_identity(f"{SHARED_LHS} + a0*x1 == {SHARED_RHS} + a0*x1 + a0"),
                {"a0": "1.1", "x1": "0.1", "x2": "0.1", "x3": "0.1", "x4": "0.1", "x5": "0.1", "x6": "0.1"},
                (4711, 1182, 1347, 0),
            ),
            (S7_0, parse_identity(f"{TRIANGLES} == {TRIANGLES} + a*c*e + b*d*f"), None, (584, 0, 202, 53)),
        ],
        ids=[
            "witness-5", "witness-12", "cycle-holds", "cycle-fails",
            "shared-holds", "shared-holds-product", "shared-fails", "shared-fails-product",
            "two-triangles",
        ],
    )
    def test_stats_pinned(self, s, ident, witness, stats):
        # the counts pin the search itself, not only its answer; the
        # non-commutative cycles have cells that merge runs, which the
        # commutative witnesses have not; in the shared cases most words
        # sit on both sides, as in u + K ≈ u + q + K; in the two triangles
        # a = ∞ settles a*c*e above the depth where b = ∞ settles b*d*f,
        # and only then is every one-sided word settled
        v = holds_bruteforce(s, ident)
        assert (v.holds, v.witness) == (witness is None, witness)
        assert v.stats == dict(zip(("nodes", "memo_hits", "top_pruned", "settled_pruned"), stats))

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_failing_witness_actually_separates(self, seed):
        rng = random.Random(seed)
        ident = random_identity(rng, 3, 3, 3)
        v = holds_bruteforce(S7_0, ident)
        if not v.holds:
            left = evaluate(ident.lhs, S7_0, v.witness)
            right = evaluate(ident.rhs, S7_0, v.witness)
            assert left != right


def _maximal_runs(w, d):
    """The (first, last) positions of the maximal runs of letters at most d."""
    runs = []
    for p, x in enumerate(w):
        if x <= d:
            if runs and runs[-1][1] == p - 1:
                runs[-1][1] = p
            else:
                runs.append([p, p])
    return [tuple(run) for run in runs]


@settings(max_examples=500)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=8),
    st.integers(6, 1000),
    st.lists(st.integers(0, S7_0.size - 1), min_size=6, max_size=6),
)
def test_word_plan_replays_to_run_products(w, offset, values):
    """Replaying a word's plan over values of its variables gives each run
    the product of the maximal run it stands for, and the closing product
    the value of the word."""
    w = tuple(w)
    size, steps, last, first, rest = _word_plan(w, offset)
    mem = dict(enumerate(values))

    def product(names):
        v = mem[names[0]]
        for t in names[1:]:
            v = S7_0.mul[v][mem[t]]
        return v

    assert [d for d, *_ in steps] == sorted(set(w)) and last == max(w)
    cells = [cell for _, made, _, _ in steps for cell, _, _ in made]
    assert cells == list(range(offset, offset + size))
    names = {}  # the name of each maximal run of assigned letters
    for d, made, gone, live in steps:
        for cell, head, tail in made:
            mem[cell] = product((head, *tail))
        now = _maximal_runs(w, d)
        absorbed = [names.pop(run) for run in list(names) if run not in now]
        assert sorted(gone) == sorted(absorbed)
        created = [(a, b) for a, b in now if d in w[a:b + 1]]
        if d == last:
            assert (made, live, created) == ((), (), [(0, len(w) - 1)])
            break
        assert [cell for cell, _, _ in made] == [t for t in live if t >= offset]
        assert len(live) == len(created)
        for (a, b), name in zip(created, live):
            assert (name == d) == (a == b)
            assert mem[name] == product(w[a:b + 1])
            names[a, b] = name
    assert product((first, *rest)) == fold_words([w], S7_0.add, S7_0.mul, values)


# The word planner as it was when runs were found by bisection in three
# sorted lists and spliced back per variable, frozen as the reference the
# planner that keeps runs under their end positions must match.
def _bisect_word_plan(w, offset):
    positions = {}
    for p, x in enumerate(w):
        positions.setdefault(x, []).append(p)
    runs = ([], [], [])  # first, last position, name
    cells = itertools.count(offset)
    *opens, last = sorted(positions)
    steps = [(d, *_bisect_merge_runs(runs, positions[d], d, cells)) for d in opens]
    size = next(cells) - offset
    made, gone, _ = _bisect_merge_runs(runs, positions[last], last, cells)
    first, rest = made[0][1:] if made else (last, ())
    steps.append((last, (), gone, ()))
    return size, tuple(steps), last, first, rest


def _bisect_merge_runs(runs, positions, x, cells):
    starts, ends, names = runs
    old = len(starts)
    created = []  # [first absorbed run, after the last one, names, first, last position]
    for p in positions:
        j = bisect_left(starts, p)
        if created and created[-1][4] == p - 1:
            run = created[-1]
        else:
            left = j > 0 and ends[j - 1] == p - 1
            run = [j - left, j, [names[j - 1]] if left else [], starts[j - 1] if left else p, p]
            created.append(run)
        run[2].append(x)
        run[1], run[4] = j, p
        if j < old and starts[j] == p + 1:
            run[2].append(names[j])
            run[1], run[4] = j + 1, ends[j]
    made, gone, live = [], [], []
    for run in created:
        head, *rest = run[2]
        gone += [t for t in run[2] if t != x]
        if rest:
            cell = next(cells)
            made.append((cell, head, tuple(rest)))
            live.append(cell)
        else:
            live.append(x)
    for (a, b, _, first, last), name in zip(reversed(created), reversed(live)):
        starts[a:b], ends[a:b], names[a:b] = [first], [last], [name]
    return tuple(made), tuple(gone), tuple(live)


def test_word_plan_matches_bisection_planner_on_every_short_word():
    for n in range(1, 7):
        for w in itertools.product(range(4), repeat=n):
            assert _word_plan.__wrapped__(w, 4) == _bisect_word_plan(w, 4), w


@settings(max_examples=500)
@given(
    st.integers(1, 12).flatmap(lambda k: st.lists(st.integers(0, k - 1), min_size=1, max_size=60)),
    st.integers(0, 1000),
)
def test_word_plan_matches_bisection_planner(w, offset):
    w = tuple(w)
    assert _word_plan(w, offset) == _bisect_word_plan(w, offset)


def _reference_scan(s, ident):
    """The full scan the depth-first oracle replaced: every assignment in
    mixed-radix order, variables sorted by name, last one least significant."""
    variables = sorted(content(ident.lhs) | content(ident.rhs))
    if ident.lhs.word_set() == ident.rhs.word_set():
        return Verdict(True)
    index = {x: i for i, x in enumerate(variables)}
    lhs_words = [tuple(index[x] for x in w) for w in ident.lhs.words]
    rhs_words = [tuple(index[x] for x in w) for w in ident.rhs.words]
    for asg in itertools.product(range(s.size), repeat=len(variables)):
        left = fold_words(lhs_words, s.add, s.mul, asg)
        right = fold_words(rhs_words, s.add, s.mul, asg)
        if left != right:
            return Verdict(
                False,
                witness={x: s.elements[asg[index[x]]] for x in variables},
                reason=f"sides evaluate to {s.elements[left]} and {s.elements[right]}",
            )
    return Verdict(True)


@cache
def _random_tables() -> tuple[FiniteSemiring, ...]:
    """Seeded random 2- and 3-element tables that validate_ai_semiring
    accepts. The 3-element ones draw + from the join-semilattice tables
    (a random 3x3 addition is almost never one), the product at random."""
    rng = random.Random(2023)
    semilattices = []
    for ab, ac, bc in itertools.product(range(3), repeat=3):
        add = ((0, ab, ac), (ab, 1, bc), (ac, bc, 2))
        if all(add[add[a][b]][c] == add[a][add[b][c]] for a, b, c in itertools.product(range(3), repeat=3)):
            semilattices.append(add)
    found = {2: [], 3: []}
    while len(found[2]) < 12 or len(found[3]) < 12:
        n = rng.choice((2, 3))
        if n == 2:
            add = [[rng.randrange(2) for _ in range(2)] for _ in range(2)]
        else:
            add = rng.choice(semilattices)
        mul = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        out = validate_ai_semiring("pqr"[:n], add, mul)
        if isinstance(out, FiniteSemiring) and out not in found[n]:
            found[n].append(out)
    tables = tuple(found[2] + found[3])
    kinds = {(s.size, s.mul == tuple(zip(*s.mul))) for s in tables}
    assert kinds == {(2, True), (2, False), (3, True), (3, False)}
    return tables


def _oracle_algebras() -> list[FiniteSemiring]:
    named = [builtin(name) for name in ("S7", "S7_0", "D2", "trivial")]
    return named + [D2_S7] + list(_random_tables())


@st.composite
def _wide_identities(draw):
    """An 8-10-variable identity over a 2-element table, where the full scan
    is still affordable and the memo does most of the work: an odd or even
    cycle u ≈ u+q, the same with q dropping or repeating a letter, or a
    term with a planted delta set plus one word. The names are shuffled
    against the cycle order and, in non-commutative mode, the letters of
    each word may be too, so that words have several runs of assigned
    letters."""
    s = draw(st.sampled_from([D2] + [t for t in _random_tables() if t.size == 2]))
    commutative = s.mul == tuple(zip(*s.mul)) and draw(st.booleans())
    k = draw(st.integers(8, 10))
    names = draw(st.permutations([f"x{i}" for i in range(k)]))
    family = draw(st.sampled_from(("cycle", "perturbed", "delta")))
    if family == "delta":
        # every word has exactly one letter of a, so a is a delta set
        a, b = names[: k // 2], names[k // 2 :]
        base = [(a[i % len(a)], x) for i, x in enumerate(b)]
        base += [(x, draw(st.sampled_from(b))) for x in a]
        tail = draw(st.lists(st.sampled_from(b), min_size=1, max_size=3))
        base.append((draw(st.sampled_from(a)), *tail))
        extra = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=k)))
    else:
        base = [(names[i], names[(i + 1) % k]) for i in range(k)]
        extra = list(names)
        if family == "perturbed":
            i = draw(st.integers(0, k - 1))
            extra[i:i + 1] = [] if draw(st.booleans()) else [names[i]] * 2
        extra = tuple(extra)
    sides = [base, base + [extra]]
    if not commutative and draw(st.booleans()):
        sides = [[tuple(draw(st.permutations(w))) for w in side] for side in sides]
    if draw(st.booleans()):
        sides.reverse()
    return s, Identity(Term(sides[0], commutative), Term(sides[1], commutative))


@st.composite
def _shared_word_identities(draw):
    """u + K ≈ u + q + K over any of the oracle's tables, so that most
    words sit on both sides: shared words, one or two words on one side
    only and at most one on the other, the sides in either order."""
    s = draw(st.sampled_from(_oracle_algebras()))
    commutative = s.mul_commutes and draw(st.booleans())
    names = [f"x{i}" for i in range(draw(st.integers(2, 5 if s.size <= 4 else 4)))]
    word = st.lists(st.sampled_from(names), min_size=1, max_size=4).map(tuple)
    shared = draw(st.lists(word, min_size=1, max_size=5))
    sides = [shared + draw(st.lists(word, max_size=1)), shared + draw(st.lists(word, min_size=1, max_size=2))]
    if draw(st.booleans()):
        sides.reverse()
    ident = Identity(Term(sides[0], commutative), Term(sides[1], commutative))
    assume(not ident.is_trivial())
    return s, ident


def _both_orders(s, ident):
    """The oracle's verdicts with the variables in name order and in the
    order drawn from the shape of the words, which then has to fix the
    witness in name order by further runs."""
    with patch("aisemiring.deciders.NAME_ORDER_LEAVES", s.size ** 64):
        by_name = holds_bruteforce(s, ident)
    with patch("aisemiring.deciders.NAME_ORDER_LEAVES", 0):
        by_shape = holds_bruteforce(s, ident)
    return by_name, by_shape


def _renamed(ident, rng):
    names = sorted(content(ident.lhs) | content(ident.rhs))
    new = dict(zip(names, rng.sample([f"v{i}" for i in range(len(names))], len(names))))

    def rename(term):
        return Term([tuple(new[x] for x in w) for w in term.words], term.commutative)

    return Identity(rename(ident.lhs), rename(ident.rhs))


class TestDepthFirstOracle:
    """The depth-first oracle against the full scan it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(_wide_identities())
    def test_wide_families_match_full_scan(self, case):
        s, ident = case
        old = _reference_scan(s, ident)
        for new in _both_orders(s, ident):
            assert (new.holds, new.witness, new.reason) == (old.holds, old.witness, old.reason)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_verdict_witness_and_reason_as_full_scan(self, data):
        algebras = _oracle_algebras()
        s = data.draw(st.sampled_from(algebras))
        commutative = s.mul == tuple(zip(*s.mul)) and data.draw(st.booleans())
        letters = data.draw(st.lists(st.sampled_from("vwxyz"), min_size=1, max_size=5, unique=True))
        word = st.lists(st.sampled_from(letters), min_size=1, max_size=4)
        side = st.lists(word, min_size=1, max_size=4)
        ident = Identity(Term(data.draw(side), commutative), Term(data.draw(side), commutative))
        old = _reference_scan(s, ident)
        for new in _both_orders(s, ident):
            assert (new.holds, new.witness, new.reason) == (old.holds, old.witness, old.reason)

    def test_seeded_sweep_in_shape_order_matches_full_scan(self):
        # small identities in the shape order: most failing ones take
        # further runs to fix the witness in name order, which reuse the
        # memo of the earlier runs
        rng = random.Random(1)
        algebras = _oracle_algebras()
        for _ in range(3000):
            s = rng.choice(algebras)
            commutative = s.mul == tuple(zip(*s.mul)) and rng.random() < 0.5
            names = rng.sample([f"x{j}" for j in range(10)], rng.randint(2, 5 if s.size <= 3 else 4))

            def side():
                words = rng.randint(1, 4)
                return Term([tuple(rng.choices(names, k=rng.randint(1, 4))) for _ in range(words)], commutative)

            ident = Identity(side(), side())
            with patch("aisemiring.deciders.NAME_ORDER_LEAVES", 0):
                new = holds_bruteforce(s, ident)
            old = _reference_scan(s, ident)
            assert (new.holds, new.witness, new.reason) == (old.holds, old.witness, old.reason), str(ident)

    def test_thousands_of_variables_need_no_recursion(self):
        word = tuple(f"x{i}" for i in range(3000))
        ident = Identity(Term([word]), Term([word, ("x0",)]))
        for verdict in _both_orders(builtin("trivial"), ident):
            assert verdict.holds

    def test_search_order_follows_the_words(self):
        # the cycle x1-x4-x2-x5-x3 from x1: each next variable closes a
        # word, so at most two variables are open at once
        cycle = [("x3", "x1"), ("x1", "x4"), ("x4", "x2"), ("x2", "x5"), ("x5", "x3")]
        assert _search_order(cycle, False) == ["x1", "x3", "x4", "x2", "x5"]
        # y has the fewest letters; in commutative mode every letter of a
        # word with letters assigned is next to its run
        words = [("a", "b", "y"), ("a", "c"), ("b", "c", "d"), ("a", "b", "c", "d")]
        assert _search_order(words, True) == ["y", "a", "b", "c", "d"]
        assert _search_order(words, False) == ["y", "b", "a", "c", "d"]

    @pytest.mark.parametrize("n", [3, 4])
    def test_renaming_keeps_the_search_size(self, n):
        # in name order a renaming of witness n=3 took 940 to 3,676 nodes
        rng = random.Random(n)
        ident = make_witness(n).identity
        nodes = {holds_bruteforce(S7_0, _renamed(ident, rng)).stats["nodes"] for _ in range(10)}
        assert nodes == {holds_bruteforce(S7_0, ident).stats["nodes"]}

    def test_commutative_identity_needs_commutative_product(self):
        # + is max and x*y = x
        s = validate_ai_semiring(("p", "q"), ((0, 1), (1, 1)), ((0, 0), (1, 1)))
        with pytest.raises(ValueError, match="commutative multiplication"):
            holds_bruteforce(s, parse_identity("x*y == y*x", True))
        v = holds_bruteforce(s, parse_identity("x*y == y*x"))
        assert not v.holds
        assert v.witness == {"x": "p", "y": "q"}


class TestSharedWords:
    """A word on both sides is planned and evaluated once, and its value
    joins both running sums; the search and its answers stay as they were."""

    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_shared_words_are_planned_once(self, n):
        # u's 2n+1 words close into both sums, q into the rhs sum only
        ident = make_witness(n).identity
        order = _search_order([*ident.lhs.words, *ident.rhs.words], True)
        search = _Search(S7_0, ident, order)
        closing = sorted(target for words in search.closing for target, _, _ in words)
        assert closing == [-3] * (2 * n + 1) + [-2]

    @settings(max_examples=200, deadline=None)
    @given(_shared_word_identities())
    def test_shared_words_match_full_scan(self, case):
        s, ident = case
        old = _reference_scan(s, ident)
        for new in _both_orders(s, ident):
            assert (new.holds, new.witness, new.reason) == (old.holds, old.witness, old.reason)


@st.composite
def _settled_identities(draw):
    """u + K (+ p) ≈ u + q + K over any of the oracle's tables, with or
    without a multiplicative zero: u an odd or even cycle or a cover of the
    variables by words plus a few more, K shared words, q the product of
    u's variables, perhaps dropping or repeating a letter or gaining one, w,
    that no other word has, and perhaps a word p on the other side only,
    so that a word can be settled on one side alone and both sides can
    have open one-sided words; the sides in either order. Half of them,
    over tables of two or more elements, have more than NAME_ORDER_LEAVES
    leaves, so a failing one fixes its witness in name order by further
    runs."""
    s = draw(st.sampled_from(_oracle_algebras()))
    commutative = s.mul_commutes and draw(st.booleans())
    if s.size > 1 and draw(st.booleans()):
        k = next(k for k in itertools.count(1) if s.size**k > NAME_ORDER_LEAVES)
    else:
        k = draw(st.integers(2, 4))
    names = draw(st.permutations([f"x{i}" for i in range(k)]))
    word = st.lists(st.sampled_from(names), min_size=1, max_size=3).map(tuple)
    if draw(st.booleans()):
        u = [(names[i], names[(i + 1) % k]) for i in range(k)]
    else:
        cuts = sorted(draw(st.sets(st.integers(1, k - 1))))
        u = [tuple(names[a:b]) for a, b in zip([0, *cuts], [*cuts, k])]
        u += draw(st.lists(word, max_size=2))
    q = list(draw(st.permutations(names)))
    i = draw(st.integers(0, k - 1))
    q[i:i + 1] = draw(st.sampled_from(([q[i]], [], [q[i]] * 2, [q[i], "w"])))
    shared = draw(st.lists(word, max_size=2))
    sides = [u + shared + draw(st.lists(word, max_size=1)), u + [tuple(q)] + shared]
    if draw(st.booleans()):
        sides.reverse()
    ident = Identity(Term(sides[0], commutative), Term(sides[1], commutative))
    assume(not ident.is_trivial())
    return s, ident


class TestSettledWords:
    """A subtree where every open word on one side only has a letter valued
    the multiplicative zero, and the sums with the zero folded in agree,
    is skipped; the answers stay those of the full scan."""

    def test_tables_with_and_without_a_zero(self):
        assert D2_S7.elements[D2_S7.multiplicative_zero] == "0.0"
        zeros = {s.multiplicative_zero is None for s in _random_tables()}
        assert zeros == {True, False}

    @settings(max_examples=150, deadline=None)
    @given(_settled_identities())
    def test_settled_words_match_full_scan(self, case):
        s, ident = case
        old = _reference_scan(s, ident)
        new = holds_bruteforce(s, ident)
        assert (new.holds, new.witness, new.reason) == (old.holds, old.witness, old.reason)

    @pytest.mark.parametrize("text", ["x0*x1 + w*x0*x1 == x0*x1", "x0*x1 == x0*x1 + w*x0*x1"])
    def test_zero_joins_only_a_side_with_a_settled_word(self, text):
        # w = z settles the one word with w, on one side only: z joins that
        # side's sum and not the other's, or the skip passes falsifying leaves
        for s in _oracle_algebras():
            for commutative in {False, s.mul_commutes}:
                ident = parse_identity(text, commutative)
                old = _reference_scan(s, ident)
                for new in _both_orders(s, ident):
                    assert (new.holds, new.witness, new.reason) == (old.holds, old.witness, old.reason)

    def test_zero_settles_the_witness(self):
        # once a letter of q is ∞, both sides agree at every leaf below
        for n in (4, 16, 50):
            stats = holds_bruteforce(S7_0, make_witness(n).identity).stats
            assert stats["nodes"] == 24 * n + 4 and stats["settled_pruned"] == 6 * n - 2


class TestLift:
    def test_lift_of_s7_oracle_matches_s7_0_oracle(self):
        rng = random.Random(5150)
        for _ in range(300):
            ident = random_identity(rng, 3, 3, 3)
            lifted = holds_s0_lift(partial(holds_bruteforce, S7), ident)
            direct = holds_bruteforce(S7_0, ident)
            assert lifted.holds == direct.holds, str(ident)

    def test_lift_of_s7_criterion_matches_s7_0_criterion(self):
        rng = random.Random(6162)
        for _ in range(300):
            ident = random_identity(rng, 4, 4, 4)
            lifted = holds_s0_lift(holds_s7, ident)
            assert lifted.holds == holds_bruteforce(S7_0, ident).holds, str(ident)

    def test_lift_over_trivial_matches_d2(self):
        rng = random.Random(7273)
        for _ in range(300):
            ident = random_identity(rng, 4, 4, 4)
            lifted = holds_s0_lift(lambda i: Verdict(True), ident)
            assert lifted.holds == holds_bruteforce(D2, ident).holds, str(ident)

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_d2_without_base_matches_lift_of_trivial(self, seed, commutative):
        # holds_d2 checks the cover clause only, as the trivial base holds
        ident = random_identity(random.Random(seed), 4, 4, 4, commutative)
        assert holds_d2(ident).to_dict() == holds_s0_lift(_holds_trivial, ident).to_dict()

    def test_empty_cover_reported(self):
        ident = parse_identity("x*x == x*x + y")
        v = holds_s0_lift(partial(holds_bruteforce, S7), ident)
        assert not v.holds
        assert v.details["clause"] == "empty-cover"

    def test_base_failure_embeds_verdict(self):
        v = holds_s0_lift(partial(holds_bruteforce, S7), SQUARE_PADDING)
        assert not v.holds
        assert v.details["clause"] == "base"
        assert v.details["base"]["holds"] is False


def _holds_s7_two_searches(ident: Identity) -> Verdict:
    # holds_s7 as it was before one side's family was derived from the
    # other's: both sides searched, kept verbatim as a reference
    cu, cv = content(ident.lhs), content(ident.rhs)
    if cu != cv:
        return Verdict(
            False,
            reason=(
                "content mismatch, only on one side: "
                f"{', '.join(sorted(cu ^ cv))}"
            ),
            details={
                "clause": "content",
                "only_lhs": sorted(cu - cv),
                "only_rhs": sorted(cv - cu),
            },
        )
    du, dv = delta_sets(ident.lhs), delta_sets(ident.rhs)
    if du != dv:
        separating = min(du ^ dv, key=lambda z: (len(z), sorted(z)))
        return Verdict(
            False,
            reason=(
                "delta-set mismatch, separating set "
                f"{{{','.join(sorted(separating))}}}"
            ),
            details={
                "clause": "delta",
                "separating": sorted(separating),
                "in_lhs": separating in du,
            },
        )
    return Verdict(True)


_LETTER = st.sampled_from(("x", "y", "z", "w", "v"))
_WORD = st.lists(_LETTER, min_size=1, max_size=4)


class TestShortcut:
    """holds_s7 on D ≈ D+q, the components the S^0 lift hands down."""

    @settings(max_examples=300)
    @given(st.data())
    def test_added_words_match_two_searches(self, data):
        # the whole verdict, so a changed separating set or in_lhs shows
        commutative = data.draw(st.booleans())
        d = Term(data.draw(st.lists(_WORD, min_size=1, max_size=5)), commutative)
        added_word = st.lists(st.sampled_from(sorted(content(d))), min_size=1, max_size=4)
        added = data.draw(st.lists(added_word, min_size=1, max_size=3))
        extended = Term(d.words + tuple(map(tuple, added)), commutative)
        for ident in (Identity(d, extended), Identity(extended, d)):
            assert holds_s7(ident).to_dict() == _holds_s7_two_searches(ident).to_dict()

    @settings(max_examples=300)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_random_identities_match_two_searches(self, seed, commutative):
        ident = random_identity(random.Random(seed), 4, 4, 4, commutative)
        assert holds_s7(ident).to_dict() == _holds_s7_two_searches(ident).to_dict()

    def test_larger_side_past_the_cap_is_not_searched(self, searched, monkeypatch):
        # 15 edges and their 15 reversals both have 2^15 members; at a cap
        # that the 15 edges' search (15 words, 2^15 members) just meets, a
        # search on all 30 words passes it, and only the edges are searched,
        # once, in either direction
        edges = Term([(f"a{i}", f"b{i}") for i in range(15)])
        both = Term(edges.words + tuple((y, x) for x, y in edges.words))
        monkeypatch.setattr(terms, "DELTA_WORK_CAP", 15 + 2**15)
        assert holds_s7(Identity(edges, both)).holds
        assert holds_s7(Identity(both, edges)).holds
        assert searched == [edges]
        assert len(delta_sets(edges)) == 2**15
        with pytest.raises(SizeLimitError) as caught:
            delta_sets(both)
        assert caught.value.guard == "DELTA_WORK_CAP"
        assert caught.value.done > caught.value.limit == 15 + 2**15

    def test_sixteen_disjoint_edges_answer_as_the_oracle(self):
        # 16 edges and their product: δ of the edges, 2^16 members, is listed
        # in 16 + 2^16 steps, inside DELTA_WORK_CAP, and the verdict is the
        # oracle's
        edges = Term([(f"a{i}", f"b{i}") for i in range(16)])
        ident = Identity(edges, edges.add_word(tuple(x for w in edges.words for x in w)))
        assert not holds_bruteforce(S7_0, ident).holds
        verdict = holds_s7_0(ident)
        assert not verdict.holds
        assert verdict.details["clause"] == "delta"

    @pytest.mark.parametrize(
        "text, commutative, sides",
        [
            # D ≈ D+W, in either order: D only
            ("x*y + y*z == x*y + y*z + x*z", False, ["lhs"]),
            ("x*y + y*z + x*z == x*y + y*z", False, ["rhs"]),
            # equal word sets: no search
            ("x*y + y*z == y*z + x*y", False, []),
            ("x*y + z^2 == z^2 + y*x", True, []),
            # each side has a word the other lacks: both
            ("x*y + y*z == x*y + x*y*z", False, ["lhs", "rhs"]),
            ("x*y + y*z == x*z + y*x*z", True, ["lhs", "rhs"]),
        ],
    )
    def test_searches_a_side_only_when_the_other_adds_words(self, searched, text, commutative, sides):
        ident = parse_identity(text, commutative=commutative)
        verdict = holds_s7(ident)
        assert searched == [getattr(ident, side) for side in sides]
        assert verdict.to_dict() == _holds_s7_two_searches(ident).to_dict()

    def test_lift_never_searches_an_extended_term(self, searched):
        built = []
        add_word = Term.add_word

        def record(t, w):
            built.append(add_word(t, w))
            return built[-1]

        with patch.object(Term, "add_word", record):
            rng = random.Random(15)
            for _ in range(300):
                holds_s7_0(random_identity(rng, 4, 4, 4, commutative=rng.random() < 0.5))
            for n in (1, 5, 12):
                assert holds_s7_0(make_witness(n).identity).holds
        assert built and searched
        assert not {id(t) for t in built} & {id(t) for t in searched}

    @settings(max_examples=300)
    @given(st.data())
    def test_added_word_matches_oracle(self, data):
        commutative = data.draw(st.booleans())
        word = st.lists(st.sampled_from(("x", "y", "z", "w")), min_size=1, max_size=4)
        d = Term(data.draw(st.lists(word, min_size=1, max_size=4)), commutative)
        q = tuple(
            data.draw(st.lists(st.sampled_from(sorted(content(d))), min_size=1, max_size=4))
        )
        extended = d.add_word(q)
        expected = holds_bruteforce(S7, Identity(d, extended)).holds
        assert holds_s7(Identity(d, extended)).holds is expected
        assert holds_s7(Identity(extended, d)).holds is expected

    def test_full_content_empty_delta_holds(self):
        # base content equals the added word's content and delta is empty
        ident = parse_identity("x^2*y + x*y^2 == x^2*y + x*y^2 + x*y", commutative=True)
        assert holds_s7_0(ident).holds
        assert holds_bruteforce(S7_0, ident).holds


class TestRandomIdentity:
    def test_bounds_respected(self):
        rng = random.Random(99)
        for _ in range(200):
            ident = random_identity(rng, 3, 4, 5)
            for side in (ident.lhs, ident.rhs):
                assert 1 <= len(side) <= 4
                assert all(1 <= len(w) <= 5 for w in side)
                assert all(x in {"x1", "x2", "x3"} for w in side for x in w)

    def test_deterministic_per_seed(self):
        a = [str(random_identity(random.Random(3), 3, 3, 3)) for _ in range(5)]
        b = [str(random_identity(random.Random(3), 3, 3, 3)) for _ in range(5)]
        # same seed, fresh generator: identical stream
        a2 = []
        rng = random.Random(3)
        for _ in range(5):
            a2.append(str(random_identity(rng, 3, 3, 3)))
        assert a == b
        assert a2[0] == a[0]

    def test_commutative_mode(self):
        rng = random.Random(4)
        ident = random_identity(rng, 3, 3, 3, commutative=True)
        assert ident.commutative


class TestCrossValidate:
    def test_small_runs_agree(self):
        report = cross_validate(D2, holds_d2, samples=400, seed=20, label="D2")
        assert report.ok
        assert report.samples == 400

    def test_report_is_reproducible(self):
        kw = dict(samples=150, seed=77, label="S7")
        a = cross_validate(S7, holds_s7, **kw)
        b = cross_validate(S7, holds_s7, **kw)
        assert a.to_dict() == b.to_dict()

    def test_commutative_runs_draw_their_own_stream(self):
        def sampled(commutative):
            seen = []

            def record(ident):
                lhs, rhs = (Term(t.words, True) for t in (ident.lhs, ident.rhs))
                seen.append(str(Identity(lhs, rhs)))
                return holds_s7(ident)

            report = cross_validate(
                S7, record, samples=40, seed=77, commutative=commutative, label="S7"
            )
            assert report.seed == 77
            return seen

        plain, commutative = sampled(False), sampled(True)
        # before, the commutative run tested the plain run's identities with
        # their letters sorted
        assert commutative != plain
        assert (sampled(False), sampled(True)) == (plain, commutative)

    def test_disagreements_are_recorded(self):
        # deliberately wrong decider: claims everything holds
        report = cross_validate(
            S7, lambda ident: Verdict(True), samples=60, seed=5, label="S7"
        )
        assert not report.ok
        assert all(d["syntactic"] and not d["oracle"] for d in report.disagreements)

    def test_lift_pairing(self):
        lift = partial(holds_s0_lift, partial(holds_bruteforce, S7))
        report = cross_validate(
            adjoin_zero(S7, "∞"),
            lift,
            samples=400,
            seed=21,
            label="adjoined",
        )
        assert report.ok
