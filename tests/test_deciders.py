import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisemiring import (
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
    is_delta,
    parse_identity,
    random_identity,
)

S7 = builtin("S7")
S7_0 = builtin("S7_0")
D2 = builtin("D2")

SQUARE_ABSORPTION = parse_identity("x^2 + y == x^2*y^2")
SQUARE_PADDING = parse_identity("x^2 + y == x^2 + y + y^2")


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

    def test_first_falsifying_assignment_is_deterministic(self):
        v = holds_bruteforce(S7_0, SQUARE_PADDING)
        assert v.witness == {"x": "∞", "y": "a"}
        assert "evaluate to" in v.reason

    def test_cap(self):
        word = tuple(f"v{i}" for i in range(20))
        ident = parse_identity(" == ".join(["*".join(word)] * 2) + " + y")
        with pytest.raises(SizeLimitError):
            holds_bruteforce(S7, ident, cap=1000)

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


class TestLift:
    def test_lift_of_s7_oracle_matches_s7_0_oracle(self):
        rng = random.Random(5150)
        for _ in range(300):
            ident = random_identity(rng, 3, 3, 3)
            lifted = holds_s0_lift(S7, holds_bruteforce, ident)
            direct = holds_bruteforce(S7_0, ident)
            assert lifted.holds == direct.holds, str(ident)

    def test_lift_of_s7_criterion_matches_s7_0_criterion(self):
        rng = random.Random(6162)
        for _ in range(300):
            ident = random_identity(rng, 4, 4, 4)
            lifted = holds_s0_lift(S7, lambda s, i: holds_s7(i), ident)
            assert lifted.holds == holds_bruteforce(S7_0, ident).holds, str(ident)

    def test_lift_over_trivial_matches_d2(self):
        rng = random.Random(7273)
        for _ in range(300):
            ident = random_identity(rng, 4, 4, 4)
            lifted = holds_s0_lift(builtin("trivial"), lambda s, i: Verdict(True), ident)
            assert lifted.holds == holds_bruteforce(D2, ident).holds, str(ident)

    def test_empty_cover_reported(self):
        ident = parse_identity("x*x == x*x + y")
        v = holds_s0_lift(S7, holds_bruteforce, ident)
        assert not v.holds
        assert v.details["clause"] == "empty-cover"

    def test_base_failure_embeds_verdict(self):
        v = holds_s0_lift(S7, holds_bruteforce, SQUARE_PADDING)
        assert not v.holds
        assert v.details["clause"] == "base"
        assert v.details["base"]["holds"] is False


class TestShortcut:
    """holds_s7 on D ≈ D+q enumerates only delta(D) and filters it by q."""

    @settings(max_examples=300)
    @given(st.data())
    def test_filtered_family_matches_delta_of_sum(self, data):
        commutative = data.draw(st.booleans())
        word = st.lists(st.sampled_from(("x", "y", "z", "w")), min_size=1, max_size=4)
        d = Term(data.draw(st.lists(word, min_size=1, max_size=4)), commutative)
        q = tuple(
            data.draw(st.lists(st.sampled_from(sorted(content(d))), min_size=1, max_size=4))
        )
        extended = d.add_word(q)
        reference = delta_sets(extended)
        assert frozenset(z for z in delta_sets(d) if is_delta(z, [q])) == reference
        expected = delta_sets(d) == reference
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

    def test_disagreements_are_recorded(self):
        # deliberately wrong decider: claims everything holds
        report = cross_validate(
            S7, lambda ident: Verdict(True), samples=60, seed=5, label="S7"
        )
        assert not report.ok
        assert all(d["syntactic"] and not d["oracle"] for d in report.disagreements)

    def test_lift_pairing(self):
        lift = partial(holds_s0_lift, S7, holds_bruteforce)
        report = cross_validate(
            adjoin_zero(S7, "∞"),
            lift,
            samples=400,
            seed=21,
            label="adjoined",
        )
        assert report.ok
