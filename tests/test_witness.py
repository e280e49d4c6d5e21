import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisemiring import (
    Term,
    WitnessPair,
    check_axiom_conditions,
    check_witness_facts,
    content,
    delta_sets,
    is_linear,
    make_witness,
    parse_identity,
    parse_term,
)
from aisemiring import deciders
from aisemiring.terms import format_word


class TestMakeWitness:
    def test_n_must_be_positive(self):
        for bad in (0, -1):
            with pytest.raises(ValueError):
                make_witness(bad)

    def test_q_within_word_length_bound(self):
        # q has 2n+1 letters; the parser's bound is 10,000
        assert len(make_witness(4999).q) == 9999
        with pytest.raises(ValueError, match="at most 4999"):
            make_witness(5000)

    def test_first_pair_exactly(self):
        pair = make_witness(1)
        assert pair.u == parse_term("x1*x2 + x2*x3 + x3*x1", commutative=True)
        assert tuple(sorted(pair.q)) == ("x1", "x2", "x3")
        assert pair.identity == parse_identity(
            "x1*x2 + x2*x3 + x3*x1 == x1*x2 + x2*x3 + x3*x1 + x1*x2*x3",
            commutative=True,
        )

    def test_second_pair_closes_the_cycle(self):
        pair = make_witness(2)
        assert len(pair.u) == 5
        assert ("x1", "x5") in pair.u

    @pytest.mark.parametrize("n", range(1, 9))
    def test_shape_invariants(self, n):
        pair = make_witness(n)
        k = 2 * n + 1
        assert pair.u.commutative
        assert len(pair.u) == k
        assert all(len(w) == 2 and is_linear(w) for w in pair.u)
        assert len(pair.q) == k and is_linear(pair.q)
        expected = {f"x{i}" for i in range(1, k + 1)}
        assert content(pair.u) == expected
        assert set(pair.q) == expected


class TestWitnessFacts:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_syntactic_checks_pass(self, n):
        report = check_witness_facts(make_witness(n))
        assert report.ok
        for name in ("contents-equal", "delta-empty", "odd-cycle", "syntactic"):
            assert report.check(name).passed is True, name

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_oracle_runs_within_limit(self, n):
        report = check_witness_facts(make_witness(n))
        assert report.check("oracle").passed is True

    def test_oracle_skipped_beyond_limit(self):
        report = check_witness_facts(make_witness(4))
        oracle = report.check("oracle")
        assert oracle.passed is None
        assert oracle.note == "capped by ORACLE_VARIABLE_LIMIT: 9 variables, limit 8"
        assert report.ok  # a skip does not fail the report

    def test_largest_witness(self):
        report = check_witness_facts(make_witness(4999))
        assert report.ok
        for name in ("contents-equal", "delta-empty", "odd-cycle", "syntactic"):
            assert report.check(name).passed is True, name
        # the oracle note counts variables: 4^9999 assignments would have 6,020 digits
        assert report.check("oracle").note == (
            "capped by ORACLE_VARIABLE_LIMIT: 9999 variables, limit 8"
        )

    def test_forced_oracle(self):
        report = check_witness_facts(make_witness(4), force_oracle=True)
        assert report.check("oracle").passed is True
        assert report.check("oracle").note == "100 nodes visited"

    def test_hand_built_path_fails_its_facts(self):
        # a path x1-x2-x3, not an odd cycle: u ≈ u + q fails in S7_0
        pair = WitnessPair(1, Term([("x1", "x2"), ("x2", "x3")], True), ("x1", "x2", "x3"))
        report = check_witness_facts(pair)
        assert not report.ok
        facts = {c.name: (c.passed, c.note) for c in report.checks}
        assert facts["odd-cycle"] == (False, "graph of u is bipartite")
        assert facts["delta-empty"] == (False, "delta family has 2 members")
        assert facts["oracle"] == (False, "sides evaluate to a and 0")

    def test_contents_note_names_what_one_side_only_has(self):
        # a triangle on x1..x3 against q = x1*x2*x3*x4: the contents differ
        u = Term([("x1", "x2"), ("x2", "x3"), ("x1", "x3")], True)
        report = check_witness_facts(WitnessPair(1, u, ("x1", "x2", "x3", "x4")))
        fact = report.check("contents-equal")
        assert (fact.passed, fact.note) == (False, "only in c(x1*x2*x3*x4): x4")
        report = check_witness_facts(WitnessPair(1, u, ("x1", "x4", "x5")))
        fact = report.check("contents-equal")
        assert (fact.passed, fact.note) == (
            False,
            "only in c(u): x2, x3; only in c(x1*x4*x5): x4, x5",
        )

    def test_square_word_fails_the_odd_cycle_fact(self):
        # x1*x1 is no simple edge: the fact fails with term_graph's message,
        # and the facts after it are still checked
        u = Term([("x1", "x1"), ("x1", "x2"), ("x2", "x3"), ("x1", "x3")], True)
        report = check_witness_facts(WitnessPair(1, u, ("x1", "x2", "x3")))
        assert not report.ok
        fact = report.check("odd-cycle")
        assert (fact.passed, fact.note) == (
            False,
            "word x1*x1 is not a simple edge (repeated letter)",
        )
        assert [c.name for c in report.checks] == [
            "contents-equal",
            "delta-empty",
            "odd-cycle",
            "syntactic",
            "oracle",
        ]

    def test_oracle_past_its_node_budget_is_skipped(self):
        with patch.object(deciders, "ORACLE_NODE_BUDGET", 10):
            report = check_witness_facts(make_witness(2), force_oracle=True)
        oracle = report.check("oracle")
        assert oracle.passed is None
        assert oracle.note == "capped by ORACLE_NODE_BUDGET: 11 nodes visited, limit 10"
        assert report.ok

    def test_unknown_check_name_raises(self):
        with pytest.raises(KeyError):
            check_witness_facts(make_witness(1)).check("nope")

    def test_report_dict_shape(self):
        doc = check_witness_facts(make_witness(1)).to_dict()
        assert doc["n"] == 1
        assert doc["ok"] is True
        assert {c["name"] for c in doc["checks"]} == {
            "contents-equal",
            "delta-empty",
            "odd-cycle",
            "syntactic",
            "oracle",
        }

    def test_delta_family_searched_once_per_term(self, searched):
        # u for the delta-empty fact and again as the S7_0 component's
        # cover; the family of u+q follows from it: one search, not three
        pair = make_witness(12)
        report = check_witness_facts(pair)
        assert searched == [pair.u]
        q = "*".join(f"x{i}" for i in range(1, 26))
        assert [(c.name, c.passed, c.note) for c in report.checks] == [
            ("contents-equal", True, f"c(u) and c({q}) both have 25 variables"),
            ("delta-empty", True, "delta family has 0 members"),
            ("odd-cycle", True, "odd cycle of length 25, expected 25"),
            ("syntactic", True, "criterion satisfied"),
            ("oracle", None, "capped by ORACLE_VARIABLE_LIMIT: 25 variables, limit 8"),
        ]


class TestAxiomConditions:
    def test_path_passes_everything(self):
        a = parse_term("x1*x2 + x2*x3 + x3*x4", commutative=True)
        report = check_axiom_conditions(a, a)
        assert report.ok
        assert report.delta  # nonempty
        assert report.every_variable_covered
        assert report.b_subset_a
        assert report.cycle is None

    def test_unknown_condition_name_raises(self):
        a = parse_term("x1*x2", commutative=True)
        with pytest.raises(KeyError):
            check_axiom_conditions(a, a).condition("z")

    def test_first_witness_fails_d_with_a_triangle(self):
        pair = make_witness(1)
        report = check_axiom_conditions(pair.u, pair.u.add_word(pair.q))
        assert report.condition("a").passed
        assert report.condition("b").passed
        assert report.condition("c").passed
        assert not report.condition("d").passed
        assert report.cycle is not None and len(report.cycle) == 3
        assert not report.b_subset_a  # B gained the long word

    def test_subword_violation(self):
        ident = parse_identity("x + x^2*y == x")
        report = check_axiom_conditions(ident.lhs, ident.rhs)
        assert not report.condition("c").passed
        assert "subword" in report.condition("c").witness
        assert report.b_subset_a

    def test_long_word_fails_a(self):
        a = parse_term("x*y*z")
        report = check_axiom_conditions(a, a)
        assert not report.condition("a").passed
        assert report.condition("a").witness == "x*y*z"

    def test_nonlinear_word_fails_b(self):
        a = parse_term("x*y + y*y")
        report = check_axiom_conditions(a, a)
        assert report.condition("a").passed
        assert not report.condition("b").passed
        # y*y contributes no edge, so (d) still checks cleanly
        assert report.condition("d").passed

    def test_delta_reported_sorted(self):
        a = parse_term("x*y + y*z")
        report = check_axiom_conditions(a, a)
        assert [sorted(z) for z in report.delta] == [["y"], ["x", "z"]]

    @pytest.mark.parametrize(
        "text, passed",
        [("x*y + y*x", False), ("x + x*x", False), ("x*x + x*y", True)],
    )
    def test_condition_c_cases(self, text, passed):
        # x*y and y*x are distinct words with the same letter multiset;
        # x*x passes the length and letter-set tests against x*y, not the
        # multiset one
        a = parse_term(text)
        check = check_axiom_conditions(a, a).condition("c")
        assert check.passed is passed
        assert (check.passed, check.witness) == _reference_condition_c(a)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from("xyz"), min_size=1, max_size=4).map(tuple),
            min_size=1,
            max_size=5,
        ),
        st.booleans(),
    )
    def test_condition_c_matches_counter_loop(self, words, commutative):
        a = Term(words, commutative)
        check = check_axiom_conditions(a, a).condition("c")
        assert (check.passed, check.witness) == _reference_condition_c(a)


def _reference_condition_c(a: Term) -> tuple[bool, str]:
    """Condition (c) as a Counter comparison of every ordered pair of words."""
    violation = ""
    counters = [(w, Counter(w)) for w in a.words]
    for w1, c1 in counters:
        for w2, c2 in counters:
            if w1 != w2 and c1 <= c2:
                violation = (
                    f"{format_word(w1)} is a subword of the distinct word "
                    f"{format_word(w2)}"
                )
                break
        if violation:
            break
    return not violation, violation


def random_condition_clean_bipartite_term(rng: random.Random) -> Term:
    # tree over a shuffled alphabet: satisfies (a)-(c), connected, bipartite
    k = rng.randint(2, 7)
    names = [f"x{i}" for i in range(1, k + 1)]
    rng.shuffle(names)
    edges = set()
    placed = [names[0]]
    for v in names[1:]:
        edges.add(tuple(sorted((rng.choice(placed), v))))
        placed.append(v)
    return Term(sorted(edges), commutative=True)


def test_bipartite_terms_meeting_conditions_have_nonempty_delta():
    rng = random.Random(31337)
    for _ in range(150):
        t = random_condition_clean_bipartite_term(rng)
        report = check_axiom_conditions(t, t)
        assert report.ok, str(t)
        assert delta_sets(t), str(t)
