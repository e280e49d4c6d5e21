"""Acceptance suite: one test per numbered criterion.

Every criterion is exact (discrete domain, zero tolerance); the timed
ones also assert their runtime budget. Each test ends by printing a
single pass line, visible under pytest -s or in the verbose test list.
"""

import random
import time
from functools import partial

from aisemiring import (
    AxiomSet,
    AxiomViolation,
    Congruence,
    DerivationChain,
    DerivationStep,
    Identity,
    SearchBounds,
    StepMismatch,
    Term,
    adjoin_zero,
    apply_step,
    builtin,
    check_axiom_conditions,
    check_witness_facts,
    content,
    cross_validate,
    delta_sets,
    find_isomorphism,
    holds_bruteforce,
    holds_d2,
    holds_s0_lift,
    holds_s7,
    holds_s7_0,
    is_isomorphic,
    make_witness,
    parse_identity,
    parse_term,
    quotient,
    random_identity,
    search_derivation,
    substitute,
    validate_ai_semiring,
    validate_congruence,
    verify_chain,
)

# Reference operation tables, stated by element name so the assertions
# do not depend on how the library indexes its carriers.
S7_ADD = {
    ("1", "1"): "1", ("1", "a"): "0", ("1", "0"): "0",
    ("a", "1"): "0", ("a", "a"): "a", ("a", "0"): "0",
    ("0", "1"): "0", ("0", "a"): "0", ("0", "0"): "0",
}
S7_MUL = {
    ("1", "1"): "1", ("1", "a"): "a", ("1", "0"): "0",
    ("a", "1"): "a", ("a", "a"): "0", ("a", "0"): "0",
    ("0", "1"): "0", ("0", "a"): "0", ("0", "0"): "0",
}


def zero_adjoined(table, absorbing):
    """Extend a named 3x3 table with the fresh element ∞."""
    out = dict(table)
    for e in ("1", "a", "0", "∞"):
        if absorbing:
            out[("∞", e)] = "∞"
            out[(e, "∞")] = "∞"
        else:
            out[("∞", e)] = e
            out[(e, "∞")] = e
    return out


def passed(n, elapsed=None, budget=None):
    if budget is None:
        print(f"criterion {n}: pass")
    else:
        print(f"criterion {n}: pass ({elapsed:.2f}s, budget {budget:.0f}s)")


def test_criterion_1_builtin_tables_and_constructions():
    t0 = time.perf_counter()

    s7 = builtin("S7")
    assert s7.elements == ("1", "a", "0")
    for (x, y), want in S7_ADD.items():
        assert s7.add_named(x, y) == want
    for (x, y), want in S7_MUL.items():
        assert s7.mul_named(x, y) == want

    s7_0 = builtin("S7_0")
    assert s7_0.elements == ("1", "a", "0", "∞")
    for (x, y), want in zero_adjoined(S7_ADD, absorbing=False).items():
        assert s7_0.add_named(x, y) == want
    for (x, y), want in zero_adjoined(S7_MUL, absorbing=True).items():
        assert s7_0.mul_named(x, y) == want

    assert find_isomorphism(adjoin_zero(s7, "∞"), s7_0) is not None

    rho = validate_congruence(s7_0, [{"1", "a", "0"}, {"∞"}])
    assert isinstance(rho, Congruence)
    assert find_isomorphism(quotient(s7_0, rho), builtin("D2")) is not None

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    passed(1, elapsed, 1)


def test_criterion_2_separating_identities():
    t0 = time.perf_counter()

    cases = [
        ("x^2 + y == x^2*y^2", {"S7": True, "D2": False, "S7_0": False}),
        ("x^2 + y == x^2 + y + y^2", {"S7": True, "D2": True, "S7_0": False}),
    ]
    syntactic = {"S7": holds_s7, "D2": holds_d2, "S7_0": holds_s7_0}
    for text, expected in cases:
        ident = parse_identity(text)
        for name, want in expected.items():
            oracle = holds_bruteforce(builtin(name), ident)
            criterion = syntactic[name](ident)
            assert oracle.holds == want, (text, name)
            assert criterion.holds == want, (text, name)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    passed(2, elapsed, 1)


def test_criterion_3_witness_family():
    t0 = time.perf_counter()

    for n in range(1, 13):
        report = check_witness_facts(make_witness(n))
        assert report.ok, report.to_dict()
        for name in ("contents-equal", "delta-empty", "odd-cycle", "syntactic"):
            assert report.check(name).passed is True, (n, name)
        oracle = report.check("oracle")
        if n <= 3:
            # 3, 5 and 7 variables fit the oracle limit
            assert oracle.passed is True, (n, oracle.note)
        else:
            assert oracle.passed is None
            assert oracle.note == (
                f"capped by ORACLE_VARIABLE_LIMIT: {2 * n + 1} variables, limit 8"
            )

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    passed(3, elapsed, 10)


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()

    s7 = builtin("S7")
    pairings = [
        (builtin("D2"), holds_d2, 4, 1041),
        (s7, holds_s7, 4, 1042),
        (builtin("S7_0"), holds_s7_0, 3, 1043),
        (adjoin_zero(s7, "∞"), partial(holds_s0_lift, partial(holds_bruteforce, s7)), 4, 1044),
    ]
    for s, criterion, max_vars, seed in pairings:
        report = cross_validate(
            s, criterion, samples=10_000, seed=seed, max_vars=max_vars
        )
        assert report.samples == 10_000
        assert report.ok, (s.elements, report.disagreements[:3])

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    passed(4, elapsed, 60)


def test_criterion_5_lift_over_trivial_matches_lattice():
    trivial = builtin("trivial")
    rng = random.Random(551)
    for _ in range(10_000):
        ident = random_identity(rng, max_vars=4, max_words=4, max_word_len=4)
        via_lift = holds_s0_lift(partial(holds_bruteforce, trivial), ident)
        assert via_lift.holds == holds_d2(ident).holds, str(ident)
    passed(5)


def test_criterion_6_axiom_condition_vectors():
    t0 = time.perf_counter()

    pair = make_witness(1)
    report = check_axiom_conditions(pair.u, pair.identity.rhs)
    assert report.condition("d").passed is False
    assert report.cycle is not None and len(report.cycle) == 3

    path = parse_term("x1*x2 + x2*x3 + x3*x4", commutative=True)
    report = check_axiom_conditions(path, path)
    assert report.ok
    assert all(report.condition(c).passed for c in "abcd")
    assert report.delta != ()

    squared = parse_term("x + x^2*y", commutative=True)
    report = check_axiom_conditions(squared, squared)
    assert report.condition("c").passed is False

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    passed(6, elapsed, 1)


def random_bipartite_term(rng):
    """Connected bipartite graph as a term: spanning tree plus chords."""
    k = rng.randint(2, 6)
    names = [f"v{i}" for i in range(k)]
    rng.shuffle(names)
    color = {names[0]: 0}
    edges = set()
    for name in names[1:]:
        anchor = rng.choice(list(color))
        color[name] = 1 - color[anchor]
        edges.add(tuple(sorted((name, anchor))))
    lefts = [n for n in names if color[n] == 0]
    rights = [n for n in names if color[n] == 1]
    for _ in range(rng.randint(0, k)):
        edges.add(tuple(sorted((rng.choice(lefts), rng.choice(rights)))))
    return Term(sorted(edges), commutative=True)


def random_odd_cycle_term(rng):
    """Odd cycle through every variable, possibly with extra chords."""
    k = rng.choice([3, 5, 7, 9])
    names = [f"v{i}" for i in range(k)]
    rng.shuffle(names)
    words = [(names[i], names[(i + 1) % k]) for i in range(k)]
    for _ in range(rng.randint(0, 2)):
        i, j = rng.sample(range(k), 2)
        words.append((names[i], names[j]))
    return Term(words, commutative=True)


def test_criterion_7_bipartite_delta_bridge():
    rng = random.Random(77007)
    for _ in range(1_000):
        t = random_bipartite_term(rng)
        report = check_axiom_conditions(t, t)
        assert all(report.condition(c).passed for c in "abc")
        assert delta_sets(t), str(t)

    for _ in range(1_000):
        t = random_odd_cycle_term(rng)
        assert delta_sets(t) == frozenset(), str(t)
    passed(7)


def test_criterion_8_derivation_calculus():
    t0 = time.perf_counter()

    sigma = AxiomSet([("sq", parse_identity("x == x + x*x"))])

    chain = DerivationChain(
        start=parse_term("x*y"),
        steps=(
            DerivationStep("sq", "forward", {"x": parse_term("x*y")}),
            DerivationStep(
                "sq",
                "forward",
                {"x": parse_term("x*y*x*y")},
                remainder=parse_term("x*y"),
            ),
        ),
        end=parse_term("x*y + x*y*x*y + x*y*x*y*x*y*x*y"),
    )
    assert verify_chain(chain, sigma).ok

    # randomized semantic soundness: a verified step never changes the
    # value of the term in an algebra where the axiom itself holds
    rng = random.Random(880088)
    algebras = (builtin("S7"), builtin("D2"))
    violations = 0
    for _ in range(1_000):
        axiom = random_identity(rng, 2, 2, 2)
        one_axiom = AxiomSet([("ax", axiom)])
        variables = sorted(content(axiom.lhs) | content(axiom.rhs))
        phi = {
            x: Term(
                [
                    tuple(rng.choice(("a", "b")) for _ in range(rng.randint(1, 2)))
                    for _ in range(rng.randint(1, 2))
                ]
            )
            for x in variables
        }
        left = Term([("c",)]) if rng.random() < 0.5 else None
        right = Term([("d",)]) if rng.random() < 0.5 else None
        remainder = Term([("a", "c")]) if rng.random() < 0.5 else None
        source = substitute(phi, axiom.lhs)
        if left is not None:
            source = left * source
        if right is not None:
            source = source * right
        if remainder is not None:
            source = source + remainder
        step = DerivationStep("ax", "forward", phi, left, right, remainder)
        result = apply_step(source, step, one_axiom)
        assert not isinstance(result, StepMismatch)
        for s in algebras:
            if holds_bruteforce(s, axiom).holds:
                moved = Identity(source, result)
                if not holds_bruteforce(s, moved).holds:
                    violations += 1
    assert violations == 0

    outcome = search_derivation(
        sigma, parse_identity("x*y == x*y + x*y*x*y"), SearchBounds()
    )
    assert outcome.found
    assert len(outcome.chain.steps) == 1
    assert verify_chain(outcome.chain, sigma).ok

    missing = search_derivation(
        AxiomSet([]), parse_identity("x == x + x*x"), SearchBounds()
    )
    assert not missing.found
    assert missing.status == "absent-exhausted"

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    passed(8, elapsed, 30)


def test_criterion_9_no_wrong_table_passes_as_s7():
    s7 = builtin("S7")
    genuine = 0
    for i in range(3):
        for j in range(3):
            for v in range(3):
                if s7.add[i][j] == v:
                    continue
                genuine += 1
                rows = [list(row) for row in s7.add]
                rows[i][j] = v
                mutated = tuple(tuple(row) for row in rows)
                out = validate_ai_semiring(s7.elements, mutated, s7.mul)
                if isinstance(out, AxiomViolation):
                    continue
                assert not is_isomorphic(out, s7), (i, j, v)
    assert genuine == 18
    passed(9)
