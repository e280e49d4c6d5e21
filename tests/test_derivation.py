import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from aisemiring import (
    AxiomSet,
    DerivationChain,
    DerivationStep,
    Identity,
    SearchBounds,
    StepMismatch,
    Term,
    apply_step,
    content,
    axioms_from_json,
    axioms_to_json,
    builtin,
    chain_from_json,
    holds_bruteforce,
    holds_s7_0,
    parse_identity,
    parse_term,
    random_identity,
    search_derivation,
    substitute,
    verify_chain,
)
from aisemiring.derivation import (
    GUARDS,
    IMAGE_POOL_CAP,
    KEEP_SUBSET_LIMIT,
    SUBSTITUTION_CAP,
    SearchOutcome,
    _candidate_words,
    _memoized,
    chain_to_dict,
)
from aisemiring.terms import word_key

SIGMA = AxiomSet([("ax1", parse_identity("x == x + x*x"))])


def _reference_search(sigma, goal, bounds):
    """The generate-and-test search the matching one replaced: every
    substituted image, recomputed per explored term, is wrapped in every
    (left, right) context pair and kept when its words lie in the term.
    Returns (status, explored, chain). A goal word longer than max_word_len
    marks the outcome truncated, as in search_derivation."""
    mode = goal.commutative
    start, target = goal.lhs, goal.rhs
    if start == target:
        return "found", 0, DerivationChain(start, (), target)
    pool_words = _candidate_words(goal, bounds)
    truncated = max(len(w) for side in (start, target) for w in side) > bounds.max_word_len
    images = [Term.single(w, mode) for w in pool_words]
    for size in range(2, bounds.max_image_words + 1):
        for combo in itertools.combinations(pool_words, size):
            images.append(Term(combo, mode))
            if len(images) >= IMAGE_POOL_CAP:
                truncated = True
                break
        if len(images) >= IMAGE_POOL_CAP:
            break
    contexts = [None] + [Term.single(w, mode) for w in pool_words]

    def neighbors(t):
        nonlocal truncated
        t_words = t.word_set()
        for name, ident in sigma:
            for direction, src, dst in (
                ("forward", ident.lhs, ident.rhs),
                ("backward", ident.rhs, ident.lhs),
            ):
                variables = sorted(content(src) | content(dst))
                assignments = itertools.product(images, repeat=len(variables))
                if len(images) ** len(variables) > SUBSTITUTION_CAP:
                    truncated = True
                    assignments = itertools.islice(assignments, SUBSTITUTION_CAP)
                for picks in assignments:
                    phi = dict(zip(variables, picks))
                    img_src = substitute(phi, src)
                    img_dst = substitute(phi, dst)
                    for p in contexts:
                        for q in contexts:
                            w = img_src
                            if p is not None:
                                w = p * w
                            if q is not None:
                                w = w * q
                            matched = w.word_set()
                            if not matched <= t_words:
                                continue
                            base = img_dst
                            if p is not None:
                                base = p * base
                            if q is not None:
                                base = base * q
                            rest = t_words - matched
                            if len(matched) > KEEP_SUBSET_LIMIT:
                                truncated = True
                                keep_space = [frozenset()]
                            else:
                                keep_space = [
                                    frozenset(c)
                                    for size in range(len(matched) + 1)
                                    for c in itertools.combinations(
                                        sorted(matched, key=word_key), size
                                    )
                                ]
                            for keep in keep_space:
                                r_words = rest | keep
                                remainder = Term(r_words, mode) if r_words else None
                                result = base + remainder if remainder else base
                                if len(result) > bounds.max_words or any(
                                    len(rw) > bounds.max_word_len for rw in result
                                ):
                                    truncated = True
                                    continue
                                step = DerivationStep(name, direction, phi, p, q, remainder)
                                yield step, result

    visited = {start}
    frontier = [start]
    parents = {}
    explored = 0
    for _ in range(bounds.max_depth):
        next_frontier = []
        for t in frontier:
            explored += 1
            for step, result in neighbors(t):
                if result in visited:
                    continue
                visited.add(result)
                parents[result] = (t, step)
                if result == target:
                    steps = []
                    node = result
                    while node != start:
                        node, s = parents[node]
                        steps.append(s)
                    return "found", explored, DerivationChain(start, tuple(reversed(steps)), target)
                next_frontier.append(result)
        frontier = next_frontier
        if not frontier:
            break
    if frontier:
        truncated = True
    return ("absent-truncated" if truncated else "absent-exhausted"), explored, None


def _term_factor_index(t, pool_index):
    """_factor_index as it stood when the search still built Terms."""
    index = {}
    if t.commutative:
        counts = [Counter()] + [Counter(w) for w in pool_index]
        for v in t.words:
            cv = Counter(v)
            fits = [0] + [k for k in range(1, len(counts)) if counts[k] <= cv]
            for i in fits:
                after_p = cv - counts[i]
                for j in fits:
                    if counts[j] <= after_p:
                        m = after_p - counts[j]
                        if m:
                            index.setdefault(tuple(sorted(m.elements())), set()).add((i, j))
        return index
    for v in t.words:
        n = len(v)
        for a in range(n):
            i = pool_index.get(v[:a]) if a else 0
            if i is None:
                continue
            for b in range(a + 1, n + 1):
                j = pool_index.get(v[b:]) if b < n else 0
                if j is not None:
                    index.setdefault(v[a:b], set()).add((i, j))
    return index


def _term_search(sigma, goal, bounds):
    """The matching search as it stood when it built a substituted Term
    per substitution and a Term per visited state, kept frozen as the
    reference for the word-set search. It shares only _candidate_words,
    _memoized and substitute with it."""
    mode = goal.commutative
    start, target = goal.lhs, goal.rhs
    if start == target:
        return SearchOutcome("found", DerivationChain(start, (), target), 0, bounds)

    fired = Counter()
    matched_count = 0
    if max(len(w) for side in (start, target) for w in side) > bounds.max_word_len:
        fired["max_word_len"] += 1
    pool_words = _candidate_words(goal, bounds)
    pool_index = {w: k for k, w in enumerate(pool_words, 1)}

    images = [Term.single(w, mode) for w in pool_words]
    for size in range(2, bounds.max_image_words + 1):
        for combo in itertools.combinations(pool_words, size):
            images.append(Term(combo, mode))
            if len(images) >= IMAGE_POOL_CAP:
                fired["IMAGE_POOL_CAP"] += 1
                break
        if len(images) >= IMAGE_POOL_CAP:
            break
    contexts = [None] + images[: len(pool_words)]

    def substitutions(src, dst):
        variables = sorted(content(src) | content(dst))
        assignments = itertools.product(images, repeat=len(variables))
        if len(images) ** len(variables) > SUBSTITUTION_CAP:
            fired["SUBSTITUTION_CAP"] += 1
            assignments = itertools.islice(assignments, SUBSTITUTION_CAP)
        for picks in assignments:
            phi = dict(zip(variables, picks))
            yield phi, substitute(phi, src).words, substitute(phi, dst)

    rules = [
        (name, direction, _memoized(substitutions(src, dst)))
        for name, ident in sigma
        for direction, src, dst in (
            ("forward", ident.lhs, ident.rhs),
            ("backward", ident.rhs, ident.lhs),
        )
    ]

    def neighbors(t):
        nonlocal matched_count
        t_words = t.word_set()
        index = _term_factor_index(t, pool_index)
        for name, direction, replay in rules:
            for phi, src_words, img_dst in replay():
                pairs = index.get(src_words[0])
                for w in src_words[1:]:
                    if not pairs:
                        break
                    pairs = pairs & index.get(w, set())
                if not pairs:
                    continue
                for i, j in sorted(pairs):
                    matched_count += 1
                    p, q = contexts[i], contexts[j]
                    before = p.words[0] if p is not None else ()
                    after = q.words[0] if q is not None else ()
                    matched = [before + w + after for w in src_words]
                    base = [before + w + after for w in img_dst.words]
                    if mode:
                        matched = [tuple(sorted(w)) for w in matched]
                        base = [tuple(sorted(w)) for w in base]
                    rest = t_words.difference(matched)
                    if len(matched) > KEEP_SUBSET_LIMIT:
                        fired["KEEP_SUBSET_LIMIT"] += 1
                        keep_space = [()]
                    else:
                        ordered = sorted(matched, key=word_key)
                        keep_space = [
                            c
                            for size in range(len(matched) + 1)
                            for c in itertools.combinations(ordered, size)
                        ]
                    for keep in keep_space:
                        r_words = rest.union(keep)
                        words = r_words.union(base)
                        if len(words) > bounds.max_words:
                            fired["max_words"] += 1
                            continue
                        if any(len(rw) > bounds.max_word_len for rw in words):
                            fired["max_word_len"] += 1
                            continue
                        yield (name, direction, phi, p, q, r_words), words

    def outcome(status, chain):
        truncated_by = {g: fired[g] for g in GUARDS if fired[g]}
        return SearchOutcome(status, chain, explored, bounds, truncated_by, matched_count)

    visited = {start.word_set()}
    frontier = [start]
    parents = {}
    explored = 0

    for _ in range(bounds.max_depth):
        next_frontier = []
        for t in frontier:
            explored += 1
            for (name, direction, phi, p, q, r_words), words in neighbors(t):
                if words in visited:
                    continue
                visited.add(words)
                remainder = Term(r_words, mode) if r_words else None
                result = Term(words, mode)
                parents[result] = (t, DerivationStep(name, direction, phi, p, q, remainder))
                if result == target:
                    steps = []
                    node = result
                    while node != start:
                        prev, s = parents[node]
                        steps.append(s)
                        node = prev
                    steps.reverse()
                    return outcome("found", DerivationChain(start, tuple(steps), target))
                next_frontier.append(result)
        frontier = next_frontier
        if not frontier:
            break

    if frontier:
        fired["max_depth"] += len(frontier)
    return outcome("absent-truncated" if fired else "absent-exhausted", None)


def step(axiom="ax1", direction="forward", phi=None, **kw):
    return DerivationStep(axiom, direction, phi or {"x": parse_term("y*z")}, **kw)


class TestApplyStep:
    def test_plain_application(self):
        out = apply_step(parse_term("y*z"), step(), SIGMA)
        assert out == parse_term("y*z + y*z*y*z")

    def test_word_order_matters_without_commutativity(self):
        out = apply_step(parse_term("z*y"), step(), SIGMA)
        assert isinstance(out, StepMismatch)
        assert out.expected == parse_term("y*z")
        assert out.found == parse_term("z*y")

    def test_remainder_carried_through(self):
        out = apply_step(
            parse_term("w + y*z"),
            step(remainder=parse_term("w")),
            SIGMA,
        )
        assert out == parse_term("w + y*z + y*z*y*z")

    def test_backward_direction(self):
        out = apply_step(parse_term("y*z + y*z*y*z"), step(direction="backward"), SIGMA)
        assert out == parse_term("y*z")

    def test_unknown_axiom(self):
        with pytest.raises(ValueError, match="unknown axiom"):
            apply_step(parse_term("x"), step(axiom="nope"), SIGMA)

    def test_uncovered_substitution(self):
        bad = DerivationStep("ax1", "forward", {"y": parse_term("z")})
        with pytest.raises(ValueError, match="does not cover"):
            apply_step(parse_term("x"), bad, SIGMA)

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            step(direction="sideways")

    def test_mode_mismatch(self):
        with pytest.raises(ValueError, match="commutativity"):
            apply_step(Term([("y", "z")], commutative=True), step(), SIGMA)

    def test_context_presence_shapes(self):
        # the four presence combinations of P and Q give the documented sources
        phi = {"x": parse_term("b")}
        p, q = parse_term("a"), parse_term("c")
        shapes = {
            (None, None): "b",
            (p, None): "a*b",
            (None, q): "b*c",
            (p, q): "a*b*c",
        }
        for (left, right), source in shapes.items():
            s = step(phi=phi, left_context=left, right_context=right)
            out = apply_step(parse_term(source), s, SIGMA)
            assert not isinstance(out, StepMismatch), source
            assert parse_term(source).words[0] in out


class TestVerifyChain:
    def two_step_chain(self):
        s1 = DerivationStep("ax1", "forward", {"x": parse_term("x*y")})
        s2 = DerivationStep(
            "ax1",
            "forward",
            {"x": parse_term("x*y*x*y")},
            remainder=parse_term("x*y"),
        )
        return DerivationChain(
            parse_term("x*y"),
            (s1, s2),
            parse_term("x*y + x*y*x*y + x*y*x*y*x*y*x*y"),
        )

    def test_two_step_chain_verifies(self):
        assert verify_chain(self.two_step_chain(), SIGMA).ok

    def test_wrong_end_rejected_at_final_comparison(self):
        chain = self.two_step_chain()
        bad = DerivationChain(chain.start, chain.steps, parse_term("y*z"))
        verdict = verify_chain(bad, SIGMA)
        assert not verdict.ok
        assert verdict.failing_index == len(chain.steps)

    def test_broken_middle_step_named(self):
        chain = self.two_step_chain()
        wrong = DerivationStep("ax1", "forward", {"x": parse_term("z")})
        bad = DerivationChain(chain.start, (chain.steps[0], wrong), chain.end)
        verdict = verify_chain(bad, SIGMA)
        assert not verdict.ok
        assert verdict.failing_index == 1

    def test_empty_chain(self):
        t = parse_term("x*y")
        assert verify_chain(DerivationChain(t, (), t), SIGMA).ok
        assert not verify_chain(DerivationChain(t, (), parse_term("x")), SIGMA).ok


class TestSearch:
    def test_depth_one_derivation_found(self):
        goal = parse_identity("x*y == x*y + x*y*x*y")
        outcome = search_derivation(SIGMA, goal)
        assert outcome.found
        assert len(outcome.chain.steps) == 1
        assert verify_chain(outcome.chain, SIGMA).ok

    def test_empty_axioms_exhausts(self):
        goal = parse_identity("x*y == x*y + x*y*x*y")
        outcome = search_derivation(AxiomSet(), goal)
        assert outcome.status == "absent-exhausted"
        assert outcome.chain is None

    def test_trivial_axiom_closes_immediately(self):
        sigma = AxiomSet([("comm", parse_identity("x + y == y + x"))])
        goal = parse_identity("x*y == x*y + x*y*x*y")
        assert search_derivation(sigma, goal).status == "absent-exhausted"

    def test_depth_bound_reports_truncation(self):
        goal = parse_identity(
            "x*y == x*y + x*y*x*y + x*y*x*y*x*y*x*y"
        )
        tight = SearchBounds(max_depth=1, max_words=8, max_word_len=8)
        outcome = search_derivation(SIGMA, goal, tight)
        assert outcome.status == "absent-truncated"
        wide = SearchBounds(max_depth=2, max_words=8, max_word_len=8)
        assert search_derivation(SIGMA, goal, wide).found

    def test_trivial_goal(self):
        goal = parse_identity("x*y == x*y")
        outcome = search_derivation(SIGMA, goal)
        assert outcome.found and outcome.chain.steps == ()

    def test_found_chains_always_verify(self):
        rng = random.Random(2026)
        sigma = AxiomSet(
            [
                ("sq", parse_identity("x == x + x*x")),
                ("dup", parse_identity("x + y == x + y + x*y")),
            ]
        )
        goals = [random_identity(rng, 2, 2, 2) for _ in range(10)]
        goals.append(parse_identity("x1*x2 == x1*x2 + x1*x2*x1*x2"))
        goals.append(parse_identity("x1 + x2 == x1 + x2 + x1*x2"))
        hits = 0
        for ident in goals:
            outcome = search_derivation(
                sigma, ident, SearchBounds(max_depth=2, max_words=4, max_word_len=4)
            )
            if outcome.found:
                hits += 1
                assert verify_chain(outcome.chain, sigma).ok
        assert hits >= 2


class TestSemanticSoundness:
    def test_verified_steps_preserve_value(self):
        # a small sample; the acceptance suite runs the full-size one
        rng = random.Random(515253)
        algebras = (builtin("S7"), builtin("D2"))
        for _ in range(100):
            axiom = random_identity(rng, 2, 2, 2)
            sigma = AxiomSet([("ax", axiom)])
            variables = sorted(content(axiom.lhs) | content(axiom.rhs))
            phi = {
                x: Term(
                    [
                        tuple(
                            rng.choice(("a", "b"))
                            for _ in range(rng.randint(1, 2))
                        )
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
            result = apply_step(source, step, sigma)
            assert not isinstance(result, StepMismatch)
            for s in algebras:
                if holds_bruteforce(s, axiom).holds:
                    moved = Identity(source, result)
                    assert holds_bruteforce(s, moved).holds, str(moved)


class TestSerialization:
    def test_chain_round_trip(self):
        chain = TestVerifyChain().two_step_chain()
        assert chain_from_json(json.dumps(chain_to_dict(chain))) == chain

    def test_chain_with_contexts_round_trips_and_verifies(self):
        s = DerivationStep(
            "ax1",
            "backward",
            {"x": parse_term("b")},
            left_context=parse_term("a"),
            right_context=parse_term("c"),
            remainder=parse_term("w + v"),
        )
        chain = DerivationChain(
            parse_term("a*b*c + a*b*b*c + w + v"),
            (s,),
            parse_term("a*b*c + w + v"),
        )
        assert verify_chain(chain, SIGMA).ok
        assert chain_from_json(json.dumps(chain_to_dict(chain))) == chain

    def test_axioms_round_trip(self):
        assert list(axioms_from_json(axioms_to_json(SIGMA))) == list(SIGMA)

    def test_commutative_flag_respected(self):
        text = axioms_to_json(
            AxiomSet([("c", parse_identity("x*y == y*x", commutative=True))])
        )
        sigma = axioms_from_json(text)
        assert sigma.commutative
        assert sigma.get("c").is_trivial()

    def test_malformed_documents(self):
        for bad in (
            "[]",
            "{}",
            '{"axioms": [{"name": 1, "identity": "x == x"}]}',
            '{"axioms": [{"name": "a"}]}',
        ):
            with pytest.raises(ValueError):
                axioms_from_json(bad)
        for bad in (
            "[]",
            '{"start": "x", "steps": [], "end": 3}',
            '{"start": "x", "steps": [{"axiom": "a"}], "end": "x"}',
            '{"start": "x", "steps": [{"axiom": "a", "phi": {"x": 5}}], "end": "x"}',
        ):
            with pytest.raises(ValueError):
                chain_from_json(bad)

    def test_duplicate_names_rejected(self):
        ident = parse_identity("x == x")
        with pytest.raises(ValueError, match="unique"):
            AxiomSet([("a", ident), ("a", ident)])

    def test_mixed_modes_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            AxiomSet(
                [
                    ("a", parse_identity("x == x")),
                    ("b", parse_identity("x == x", commutative=True)),
                ]
            )


AXIOM_TEXTS = {
    "sq,comm": (("sq", "x == x + x*x"), ("comm", "x*y == y*x")),
    "sq,dup": (("sq", "x == x + x*x"), ("dup", "x + y == x + y + x*y")),
    "comm": (("comm", "x*y == y*x"),),
}


class TestMatchingSearch:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_matches_reference_search(self, data):
        commutative = data.draw(st.booleans())
        axioms = AXIOM_TEXTS[data.draw(st.sampled_from(sorted(AXIOM_TEXTS)))]
        sigma = AxiomSet([(n, parse_identity(i, commutative)) for n, i in axioms])
        image_words = data.draw(st.sampled_from((1, 2)))
        # few letters give words with several factorizations p·m·q
        letters = data.draw(st.sampled_from(("x", "x", "xy", "xyz")))
        word = st.lists(st.sampled_from(letters), min_size=1, max_size=3 if image_words == 1 else 2)
        lhs = Term(data.draw(st.lists(word, min_size=1, max_size=2)), commutative)
        if data.draw(st.booleans()):
            # a one-step instance of an axiom in a context, so that found
            # chains are common
            name, ident = data.draw(st.sampled_from(list(sigma)))
            phi = {
                x: Term([data.draw(st.sampled_from(lhs.words))], commutative)
                for x in sorted(content(ident.lhs) | content(ident.rhs))
            }
            context = st.one_of(st.just(()), st.tuples(st.sampled_from(letters)))
            before, after = data.draw(context), data.draw(context)

            def wrapped(side):
                return Term([before + w + after for w in substitute(phi, side).words], commutative)

            goal = Identity(lhs + wrapped(ident.lhs), lhs + wrapped(ident.rhs))
        else:
            goal = Identity(lhs, Term(data.draw(st.lists(word, min_size=1, max_size=2)), commutative))
        bounds = SearchBounds(
            max_depth=data.draw(st.integers(0, 2 if image_words == 1 else 1)),
            max_words=data.draw(st.integers(2, 8)),
            max_word_len=data.draw(st.integers(2, 6)),
            max_image_words=image_words,
        )
        # the reference wraps every image in every context pair: keep its
        # pool small
        assume(len(_candidate_words(goal, bounds)) <= 8)
        new = search_derivation(sigma, goal, bounds)
        status, explored, chain = _reference_search(sigma, goal, bounds)
        assert (new.status, new.explored) == (status, explored)
        if chain is not None:
            assert chain_to_dict(new.chain) == chain_to_dict(chain)
        else:
            assert bool(new.truncated_by) == (status == "absent-truncated")

    def test_context_pairs_in_reference_order(self):
        # x -> x matches x*x with the right context x and with the left
        # one; the first pair in context order, (none, x), names the step
        goal = parse_identity("x*x == x*x + x*x*x")
        outcome = search_derivation(SIGMA, goal)
        (s,) = outcome.chain.steps
        assert (s.left_context, s.right_context) == (None, parse_term("x"))
        _, _, chain = _reference_search(SIGMA, goal, SearchBounds())
        assert chain_to_dict(outcome.chain) == chain_to_dict(chain)

    def test_found_goals_hold_in_s7_0(self):
        # soundness: axioms that hold in S7_0 only derive identities the
        # oracle confirms there
        s7_0 = builtin("S7_0")
        texts = (
            "x*y == y*x",
            "x*x == x*x*x",
            "x*x == x*x + x*x*x",
            "x*x*y == x*y*x",
            "x + x*y*x == x + x*y*x + x*x*y",
        )
        rng = random.Random(5)
        found = 0
        for _ in range(300):
            commutative = rng.random() < 0.5
            axioms = [parse_identity(text, commutative) for text in rng.sample(texts, 2)]
            assert all(holds_s7_0(ax).holds for ax in axioms)
            sigma = AxiomSet([(f"a{i}", ax) for i, ax in enumerate(axioms)])
            letters = rng.choice(("x", "xy"))

            def term():
                return Term(
                    [
                        tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
                        for _ in range(rng.randint(1, 2))
                    ],
                    commutative,
                )

            lhs = term()
            rhs = lhs + term() if rng.random() < 0.7 else term()
            goal = Identity(lhs, rhs)
            outcome = search_derivation(
                sigma, goal, SearchBounds(max_depth=2, max_words=4, max_word_len=4)
            )
            if outcome.found and outcome.chain.steps:
                found += 1
                assert holds_bruteforce(s7_0, goal).holds, str(goal)
        assert found >= 10

    def test_bounds_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_depth"):
            SearchBounds(max_depth=-1)
        for name in ("max_words", "max_word_len", "max_image_words"):
            for value in (0, -3):
                with pytest.raises(ValueError, match=name):
                    SearchBounds(**{name: value})
        assert SearchBounds(max_depth=0).max_depth == 0

    def test_goal_word_past_max_word_len_truncates(self):
        # the pool of subwords is cut, even where no step could help
        goal = parse_identity("x*y == x*y + x*y*x*y")
        outcome = search_derivation(AxiomSet(), goal, SearchBounds(max_word_len=3))
        assert outcome.status == "absent-truncated"
        assert outcome.truncated_by == {"max_word_len": 1}
        assert search_derivation(AxiomSet(), goal).truncated_by == {}

    def test_truncation_names_its_guards(self):
        goal = parse_identity("x*y == x*y + x*y*x*y + x*y*x*y*x*y*x*y")
        outcome = search_derivation(SIGMA, goal, SearchBounds(max_depth=1))
        assert outcome.status == "absent-truncated"
        assert outcome.truncated_by["max_depth"] >= 1
        assert outcome.matched >= 1
        tight = search_derivation(SIGMA, goal, SearchBounds(max_words=2))
        assert tight.status == "absent-truncated"
        assert "max_words" in tight.truncated_by

    def test_substitution_cap_is_counted(self):
        # 3 variables over 28+ single-word images exceed SUBSTITUTION_CAP
        sigma = AxiomSet([("three", parse_identity("x*y*z == z*y*x"))])
        goal = parse_identity("a*b*c*d*e*f*g == a*b*c*d*e*f*g + g")
        outcome = search_derivation(sigma, goal, SearchBounds(max_depth=1))
        assert outcome.truncated_by["SUBSTITUTION_CAP"] == 2


def _random_sigma(data, commutative):
    """1-3 axioms over 1-3 variables each, sides of 1-2 short words."""
    axioms = []
    for k in range(data.draw(st.integers(1, 3))):
        variables = ("x", "y", "z")[: data.draw(st.integers(1, 3))]
        word = st.lists(st.sampled_from(variables), min_size=1, max_size=2)
        side = st.lists(word, min_size=1, max_size=2)
        lhs, rhs = data.draw(side), data.draw(side)
        axioms.append((f"a{k}", Identity(Term(lhs, commutative), Term(rhs, commutative))))
    return AxiomSet(axioms)


def _summary(outcome):
    chain = None if outcome.chain is None else chain_to_dict(outcome.chain)
    return outcome.status, outcome.explored, outcome.matched, outcome.truncated_by, chain


class TestWordSetSearch:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_matches_term_search(self, data):
        commutative = data.draw(st.booleans())
        sigma = _random_sigma(data, commutative)
        bounds = SearchBounds(
            max_depth=data.draw(st.sampled_from((2, 1, 3, 0))),
            max_words=data.draw(st.sampled_from((4, 5, 6, 3, 2))),
            # below 4 a goal word can be longer than max_word_len
            max_word_len=data.draw(st.sampled_from((3, 4, 2, 1))),
            max_image_words=data.draw(st.sampled_from((1, 2))),
        )
        letters = data.draw(st.sampled_from(("a", "ab", "abc")))
        word = st.lists(st.sampled_from(letters), min_size=1, max_size=5 - bounds.max_image_words)
        lhs = Term(data.draw(st.lists(word, min_size=1, max_size=2)), commutative)
        if data.draw(st.booleans()):
            # a one-step instance of an axiom, so that found chains are common
            name, ident = data.draw(st.sampled_from(list(sigma)))
            short = st.lists(st.sampled_from(letters), min_size=1, max_size=2)
            phi = {
                x: Term([data.draw(short)], commutative)
                for x in sorted(content(ident.lhs) | content(ident.rhs))
            }
            goal = Identity(lhs + substitute(phi, ident.lhs), lhs + substitute(phi, ident.rhs))
        else:
            goal = Identity(lhs, Term(data.draw(st.lists(word, min_size=1, max_size=2)), commutative))
        # test_trivial_goal covers equal sides
        assume(not goal.is_trivial())
        # keep the substitution lists short, so that the examples stay fast
        pool = len(_candidate_words(goal, bounds))
        images = pool + (pool * (pool - 1) // 2 if bounds.max_image_words == 2 else 0)
        assume(sum(images ** len(content(i.lhs) | content(i.rhs)) for _, i in sigma) <= 1500)
        assert _summary(search_derivation(sigma, goal, bounds)) == _summary(
            _term_search(sigma, goal, bounds)
        )

    def test_matches_term_search_past_the_substitution_cap(self):
        # the replays cut at SUBSTITUTION_CAP in the same product order
        sigma = AxiomSet(
            [
                ("three", parse_identity("x*y*z == z*y*x")),
                ("sq", parse_identity("x == x + x*x")),
            ]
        )
        goal = parse_identity("a*b*c*d*e*f*g == a*b*c*d*e*f*g + a*b*g")
        bounds = SearchBounds(max_depth=1)
        new = search_derivation(sigma, goal, bounds)
        assert new.truncated_by["SUBSTITUTION_CAP"] == 2
        assert _summary(new) == _summary(_term_search(sigma, goal, bounds))

    @pytest.mark.parametrize(
        "axiom, goal, max_word_len, fired",
        [
            # matched p, p^2, p^3, s^4, of which the target side adds p^3:
            # in keep order {s^4} is cut, then the goal is found at {p, p^2},
            # before {p^3, s^4}, which has {s^4}'s state; so max_word_len
            # counts the goal word s^4 and {s^4}, not {p^3, s^4}
            ("y + y*y + y*y*y + v*v*v*v == y*y*y", "p + p^2 + p^3 + s^4 == p + p^2 + p^3", 3, 2),
            ("x + y == x + y + x*y", "a + b + a*b == a + b", 2, 22),
            ("x + y + x*y == x + y", "a + b + a*b == a + b", 2, 0),
        ],
    )
    def test_keeping_a_word_the_target_side_adds_counts_as_the_term_search(
        self, axiom, goal, max_word_len, fired
    ):
        sigma = AxiomSet([("ax", parse_identity(axiom))])
        goal = parse_identity(goal)
        for depth in (1, 2):
            bounds = SearchBounds(max_depth=depth, max_word_len=max_word_len)
            new = search_derivation(sigma, goal, bounds)
            assert new.found
            assert new.truncated_by.get("max_word_len", 0) == fired
            assert _summary(new) == _summary(_term_search(sigma, goal, bounds))

    @pytest.mark.parametrize("commutative", [False, True])
    def test_huge_max_image_words_is_the_whole_pool(self, commutative):
        sigma = AxiomSet([("ax1", parse_identity("x == x + x*x", commutative))])
        goal = parse_identity("x*y == x*y + x*y*x*y", commutative)
        pool = len(_candidate_words(goal, SearchBounds()))
        for depth in (1, 0):
            huge, whole = (
                search_derivation(sigma, goal, SearchBounds(max_depth=depth, max_image_words=k))
                for k in (10**9, pool)
            )
            assert _summary(huge) == _summary(whole)

    def test_terms_built_only_for_images_and_the_chain(self, monkeypatch):
        sigma = AxiomSet(
            [
                ("sq", parse_identity("x == x + x*x")),
                ("dup", parse_identity("x + y == x + y + x*y")),
            ]
        )
        built = [0]
        init = Term.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Term, "__init__", counting_init)

        def count(fn):
            built[0] = 0
            return fn(), built[0]

        # absent: the image Terms, which double as the contexts, and no more
        goal = parse_identity("x*y == y*x")
        pool = len(_candidate_words(goal, SearchBounds(max_word_len=4)))
        counts = []
        for depth in (1, 2):
            bounds = SearchBounds(max_depth=depth, max_words=4, max_word_len=4)
            outcome, terms = count(lambda: search_derivation(sigma, goal, bounds))
            assert not outcome.found
            counts.append((outcome.explored, outcome.matched, terms))
        assert counts[0][0] < counts[1][0] and counts[0][1] < counts[1][1]
        assert [terms for _, _, terms in counts] == [pool, pool]

        # found: plus each step's remainder and what verifying the chain builds
        goal = parse_identity("x*y == x*y + x*y*x*y + x*y*x*y*x*y*x*y")
        bounds = SearchBounds(max_depth=2, max_words=4)
        outcome, terms = count(lambda: search_derivation(sigma, goal, bounds))
        assert outcome.found and len(outcome.chain.steps) == 2
        verdict, verifying = count(lambda: verify_chain(outcome.chain, sigma))
        assert verdict.ok
        remainders = sum(s.remainder is not None for s in outcome.chain.steps)
        pool = len(_candidate_words(goal, bounds))
        assert terms == pool + remainders + verifying
