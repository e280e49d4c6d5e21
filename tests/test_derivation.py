import importlib.util
import itertools
import json
import math
import random
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from aisemiring import (
    AxiomSet,
    DerivationChain,
    DerivationStep,
    Identity,
    SearchBounds,
    SizeLimitError,
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
from aisemiring import derivation
from aisemiring.cli import main
from aisemiring.derivation import (
    GUARDS,
    KEEP_SUBSET_LIMIT,
    SUBSTITUTION_CAP,
    SearchOutcome,
    _StepSpace,
    _candidate_words,
    chain_to_dict,
)
from aisemiring.terms import word_key

SIGMA = AxiomSet([("ax1", parse_identity("x == x + x*x"))])

# The image pool cut of the frozen references below, since deleted from the
# search; the comparisons stay below it, where both cut nothing.
IMAGE_POOL_CAP = 5_000


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
                            # an expanding match, its words all in its base,
                            # gives rest | base whatever it keeps
                            expanding = matched <= base.word_set()
                            if not expanding and len(matched) > KEEP_SUBSET_LIMIT:
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
    reference for the word-set search. It builds each rule's substitution
    list when it first reaches the rule, and shares only _candidate_words
    and substitute with the word-set search."""
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
        entries = []
        for picks in assignments:
            phi = dict(zip(variables, picks))
            entries.append((phi, substitute(phi, src).words, substitute(phi, dst)))
        return entries

    rules = [
        [name, direction, src, dst, None]
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
        for rule in rules:
            name, direction, src, dst, entries = rule
            if entries is None:
                entries = rule[4] = substitutions(src, dst)
            for phi, src_words, img_dst in entries:
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
                    # an expanding match, its words all in its base, gives
                    # rest | base whatever it keeps
                    expanding = set(matched).issubset(base)
                    if not expanding and len(matched) > KEEP_SUBSET_LIMIT:
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


def _frozen_image_words(images, words):
    """terms.image_words as it stood before one-letter words took their
    letter's image words directly: every word through the product of its
    letters' images."""
    out = set()
    for w in words:
        for pick in itertools.product(*[images[x] for x in w]):
            out.add(tuple(itertools.chain.from_iterable(pick)))
    return out


def _frozen_substitutions(space, ident):
    """_StepSpace._substitutions as it stood before its sides were sorted
    by letters and then by length: each side through _frozen_image_words
    and sorted by word_key."""
    variables = sorted(content(ident.lhs) | content(ident.rhs))
    assignments = itertools.product(space.images, repeat=len(variables))
    if len(space.images) ** len(variables) > derivation.SUBSTITUTION_CAP:
        space.fired["SUBSTITUTION_CAP"] += 2
        assignments = itertools.islice(assignments, derivation.SUBSTITUTION_CAP)
    entries = []
    for picks in assignments:
        phi = dict(zip(variables, picks))
        sides = [phi]
        for side in (ident.lhs, ident.rhs):
            words = _frozen_image_words(phi, side.words)
            if space.mode:
                words = {tuple(sorted(w)) for w in words}
            sides.append(tuple(sorted(words, key=word_key)))
        entries.append(tuple(sides))
    return entries


def _built_list(space, ident):
    """The substitution list space makes for ident, read to its end with
    both sides built: (phi, phi(lhs) words, phi(rhs) words), each side a set."""
    return [(phi, set(lhs), set(rhs)) for phi, lhs, rhs in space._substitutions(ident).complete()]


class _EagerStepSpace(_StepSpace):
    """_StepSpace as it stood before its substitution lists grew lazily:
    each axiom's whole list, both sides as word_key-sorted tuples, built
    the first time neighbors reaches the axiom, and scanned as a list."""

    def _substitutions(self, ident):
        variables = sorted(content(ident.lhs) | content(ident.rhs))
        assignments = itertools.product(self.images, repeat=len(variables))
        if len(self.images) ** len(variables) > derivation.SUBSTITUTION_CAP:
            self.fired["SUBSTITUTION_CAP"] += 2
            assignments = itertools.islice(assignments, derivation.SUBSTITUTION_CAP)
        entries = []
        for picks in assignments:
            phi = dict(zip(variables, picks))
            sides = [phi]
            for side in (ident.lhs, ident.rhs):
                words = derivation.image_words(phi, side.words)
                if self.mode:
                    words = {tuple(sorted(w)) for w in words}
                sides.append(tuple(sorted(words, key=word_key)))
            entries.append(tuple(sides))
        return entries

    def neighbors(self, t_words):
        mode, affixes, fired, tables = self.mode, self.affixes, self.fired, self.tables
        max_words, max_word_len = self.bounds.max_words, self.bounds.max_word_len
        index = derivation._factor_index(t_words, mode, self.pool_index)
        for name, ident in self.sigma:
            entries = tables.get(name)
            if entries is None:
                entries = tables[name] = self._substitutions(ident)
            for direction, src_at, dst_at in (("forward", 1, 2), ("backward", 2, 1)):
                for entry in entries:
                    src_words = entry[src_at]
                    pairs = index.get(src_words[0])
                    for w in src_words[1:]:
                        if not pairs:
                            break
                        pairs = pairs & index.get(w, set())
                    if not pairs:
                        continue
                    phi, dst_words = entry[0], entry[dst_at]
                    expanding = set(src_words).issubset(dst_words)
                    for i, j in sorted(pairs):
                        self.matched += 1
                        before, after = affixes[i], affixes[j]
                        matched = [before + w + after for w in src_words]
                        base = [before + w + after for w in dst_words]
                        if mode:
                            matched = [tuple(sorted(w)) for w in matched]
                            base = [tuple(sorted(w)) for w in base]
                        rest = t_words.difference(matched)
                        weight = 1
                        if expanding:
                            keep_space = [()]
                            weight = 1 << len(matched)
                        elif len(matched) > KEEP_SUBSET_LIMIT:
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
                            if len(words) > max_words:
                                fired["max_words"] += weight
                            elif max(map(len, words)) > max_word_len:
                                fired["max_word_len"] += weight
                            else:
                                yield (name, direction, phi, i, j, r_words), words


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


    def test_step_word_cap_counts_both_sides_and_the_contexts(self, monkeypatch):
        sigma = AxiomSet([("swap", parse_identity("x*y == y*x"))])
        phi = {"x": parse_term("a + b"), "y": parse_term("c + d")}
        plain = DerivationStep("swap", "forward", phi)
        # the left context doubles each side's words; the remainder is no product
        wrapped = DerivationStep(
            "swap", "backward", phi, left_context=parse_term("p + q"), remainder=parse_term("r + s + t")
        )
        for s, built in ((plain, 8), (wrapped, 16)):
            monkeypatch.setattr(derivation, "STEP_WORD_CAP", built)
            assert isinstance(apply_step(parse_term("a"), s, sigma), StepMismatch)
            monkeypatch.setattr(derivation, "STEP_WORD_CAP", built - 1)
            with pytest.raises(SizeLimitError) as info:
                apply_step(parse_term("a"), s, sigma)
            assert str(info.value) == (
                f"capped by STEP_WORD_CAP: {built} words or more to build, limit {built - 1}"
            )

    def test_step_word_cap_counts_a_word_past_the_cap(self, monkeypatch):
        # x*y*z's product reaches the cap, 4, at y and passes it at z: the
        # word counts 8, not the 4 at which a count stopping at the cap
        # would leave it (and pass the cap only with phi(x)'s 2 words)
        sigma = AxiomSet([("long", parse_identity("x*y*z == x"))])
        phi = {v: parse_term(f"{v}1 + {v}2") for v in "xyz"}
        monkeypatch.setattr(derivation, "STEP_WORD_CAP", 4)
        with pytest.raises(SizeLimitError) as info:
            apply_step(parse_term("a"), DerivationStep("long", "forward", phi), sigma)
        assert str(info.value) == "capped by STEP_WORD_CAP: 8 words or more to build, limit 4"

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_uncovered_variable_of_one_side_is_named(self, direction):
        sigma = AxiomSet([("drop", parse_identity("x*y == x"))])
        bad = DerivationStep("drop", direction, {"x": parse_term("z")})
        with pytest.raises(ValueError) as info:
            apply_step(parse_term("z"), bad, sigma)
        assert str(info.value) == "substitution does not cover axiom variables: y"

    def test_benchmark_derive_search_chains_stay_below_the_step_word_cap(
        self, tmp_path, capsys, monkeypatch
    ):
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        largest = found = 0
        for seed in (1, 7, 11):
            where = tmp_path / str(seed)
            where.mkdir()
            for item in workloads.generate("derive-search", seed, where).items:
                if item.expect["status"] != "found":
                    continue
                assert main(item.argv) == 0
                chain = json.loads(capsys.readouterr().out)["chain"]
                sigma = axioms_from_json(Path(item.expect["axioms"]).read_text(encoding="utf-8"))
                for s in chain_from_json(json.dumps(chain)).steps:
                    ident = sigma.get(s.axiom_name)
                    wrap = math.prod(len(c) for c in (s.left_context, s.right_context) if c is not None)
                    largest = max(largest, wrap * sum(
                        math.prod(len(s.phi[x]) for x in w)
                        for side in (ident.lhs, ident.rhs)
                        for w in side.words
                    ))
                found += 1
        assert found > 100
        assert 0 < largest < derivation.STEP_WORD_CAP


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

    def test_chain_word_cap_sums_the_steps_before_any_is_replayed(self, monkeypatch):
        # each step builds x, x and x*x: one word each, as phi(x) is one word
        chain = self.two_step_chain()
        monkeypatch.setattr(derivation, "CHAIN_WORD_CAP", 6)
        assert verify_chain(chain, SIGMA).ok
        monkeypatch.setattr(derivation, "CHAIN_WORD_CAP", 5)
        with mock.patch.object(derivation, "apply_step") as replay:
            with pytest.raises(SizeLimitError) as info:
                verify_chain(chain, SIGMA)
        replay.assert_not_called()
        assert str(info.value) == "capped by CHAIN_WORD_CAP: 6 words or more to build, limit 5"

    def test_steps_of_exactly_step_word_cap_words_count(self, monkeypatch):
        # each step builds 3 words, which STEP_WORD_CAP = 3 lets through, so
        # both count toward CHAIN_WORD_CAP
        chain = self.two_step_chain()
        monkeypatch.setattr(derivation, "STEP_WORD_CAP", 3)
        monkeypatch.setattr(derivation, "CHAIN_WORD_CAP", 6)
        assert verify_chain(chain, SIGMA).ok
        monkeypatch.setattr(derivation, "CHAIN_WORD_CAP", 5)
        with mock.patch.object(derivation, "apply_step") as replay:
            with pytest.raises(SizeLimitError) as info:
                verify_chain(chain, SIGMA)
        replay.assert_not_called()
        assert str(info.value) == "capped by CHAIN_WORD_CAP: 6 words or more to build, limit 5"

    def test_chain_word_cap_stops_at_the_first_refused_step(self, monkeypatch):
        # the replay stops at a step citing an unknown axiom or past
        # STEP_WORD_CAP, so the steps after it do not count; the sum does not
        # raise for the unknown axiom, which a mismatch before it hides
        s1, s2 = self.two_step_chain().steps
        t = parse_term("x*y")
        monkeypatch.setattr(derivation, "CHAIN_WORD_CAP", 5)
        wrong = DerivationStep("ax1", "forward", {"x": parse_term("z")})
        unknown = DerivationStep("nope", "forward", {"x": t})
        verdict = verify_chain(DerivationChain(t, (wrong, unknown, s1, s2), t), SIGMA)
        assert (verdict.ok, verdict.failing_index) == (False, 0)
        monkeypatch.setattr(derivation, "STEP_WORD_CAP", 2)
        with pytest.raises(SizeLimitError, match="capped by STEP_WORD_CAP: 3 words"):
            verify_chain(DerivationChain(t, (s1, s2), t), SIGMA)

    def test_benchmark_derive_search_chains_stay_far_below_the_chain_word_cap(
        self, tmp_path, capsys, monkeypatch
    ):
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        totals = []
        for seed in (1, 7, 11):
            where = tmp_path / str(seed)
            where.mkdir()
            for item in workloads.generate("derive-search", seed, where).items:
                if item.expect["status"] != "found":
                    continue
                assert main(item.argv) == 0
                chain = chain_from_json(json.dumps(json.loads(capsys.readouterr().out)["chain"]))
                sigma = axioms_from_json(Path(item.expect["axioms"]).read_text(encoding="utf-8"))
                totals.append(sum(
                    derivation._words_to_build(s, *derivation._sides(s, sigma)) for s in chain.steps
                ))
        assert len(totals) > 100
        assert 0 < max(totals) < derivation.CHAIN_WORD_CAP // 1000

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

    def test_goal_must_share_the_axioms_mode(self):
        sigma = AxiomSet([("sq", parse_identity("x == x + x*x", commutative=True))])
        with pytest.raises(ValueError, match="axioms and goal must share the commutativity mode"):
            search_derivation(sigma, parse_identity("x*y == y*x"))

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

    def test_unverifiable_chain_raises(self):
        goal = parse_identity("x*y == x*y + x*y*x*y")
        forced = derivation.ChainVerdict(False, 0, "step 0: forced")
        with mock.patch.object(derivation, "verify_chain", return_value=forced):
            with pytest.raises(
                RuntimeError, match="search produced an unverifiable chain: step 0: forced"
            ):
                search_derivation(SIGMA, goal)


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

    def test_empty_commutative_set_keeps_its_mode(self):
        for commutative in (False, True):
            sigma = AxiomSet([], commutative=commutative)
            assert sigma.commutative is commutative
            back = axioms_from_json(axioms_to_json(sigma))
            assert (back.commutative, len(back)) == (commutative, 0)
        assert not AxiomSet().commutative
        one = [("c", parse_identity("x*y == y*x", commutative=True))]
        assert AxiomSet(one).commutative
        with pytest.raises(ValueError, match="mode"):
            AxiomSet(one, commutative=False)

    def test_malformed_documents(self):
        for bad in (
            "[]",
            "{}",
            '{"axioms": [{"name": 1, "identity": "x == x"}]}',
            '{"axioms": [{"name": "a"}]}',
            "[" * 100_000,
        ):
            with pytest.raises(ValueError):
                axioms_from_json(bad)
        for bad in (
            "[]",
            '{"start": "x", "steps": [], "end": 3}',
            '{"start": "x", "steps": [{"axiom": "a"}], "end": "x"}',
            '{"start": "x", "steps": [{"axiom": "a", "phi": {"x": 5}}], "end": "x"}',
            "[" * 100_000,
        ):
            with pytest.raises(ValueError):
                chain_from_json(bad)

    @pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1", "null", "[]"])
    def test_commutative_must_be_a_json_boolean(self, value):
        axioms = '{"commutative": %s, "axioms": [{"name": "c", "identity": "x*y == y*x"}]}'
        chain = '{"commutative": %s, "start": "x", "steps": [], "end": "x"}'
        for load, text in ((axioms_from_json, axioms), (chain_from_json, chain)):
            with pytest.raises(ValueError, match='"commutative" must be true or false'):
                load(text % value)

    def test_missing_commutative_means_false(self):
        sigma = axioms_from_json('{"axioms": [{"name": "c", "identity": "x*y == y*x"}]}')
        assert not sigma.commutative
        assert not sigma.get("c").is_trivial()
        chain = chain_from_json('{"start": "y*x", "steps": [], "end": "y*x"}')
        assert not chain.start.commutative
        assert str(chain.start) == "y*x"

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

    def test_substitution_cap_counts_both_directions_when_found_forward(self):
        # the goal is a forward step of the cut axiom; both directions read
        # its one substitution list, so the cut counts 2 although the
        # backward steps are never reached
        sigma = AxiomSet([("three", parse_identity("x*y*z == z*y*x"))])
        goal = parse_identity("a*b*c*d*e*f*g == c*b*a*d*e*f*g")
        outcome = search_derivation(sigma, goal, SearchBounds(max_depth=1))
        assert outcome.found
        assert [s.direction for s in outcome.chain.steps] == ["forward"]
        assert outcome.truncated_by == {"SUBSTITUTION_CAP": 2}

    def test_one_variable_axiom_reads_the_whole_image_pool(self):
        # the goal word's 36 subwords make 36 + 630 images of at most two
        # words and 7,140 more of three: 7,806 substitutions of sq, below
        # SUBSTITUTION_CAP, each of whose two sides is substituted once
        sigma = AxiomSet([("sq", parse_identity("x == x + x*x"))])
        goal = parse_identity("a*b*c*d*e*f*g*h == a*b*c*d*e*f*g*h + a")
        with mock.patch.object(
            derivation, "image_words", wraps=derivation.image_words
        ) as spy:
            outcome = search_derivation(sigma, goal, SearchBounds(max_depth=1, max_image_words=3))
        assert outcome.status == "absent-truncated"
        assert outcome.truncated_by == {"max_word_len": 72}
        assert (outcome.explored, outcome.matched) == (1, 36)
        assert spy.call_count == 2 * (36 + 630 + 7_140)

    def test_keep_subset_limit_is_counted(self):
        # phi(x) = a + b: the backward step matches the six words of
        # phi(x + x*x), more than KEEP_SUBSET_LIMIT, so it keeps none of them
        sigma = AxiomSet([("sq", parse_identity("x == x + x*x"))])
        goal = parse_identity("a + b + a*a + a*b + b*a + b*b == a + b")
        outcome = search_derivation(sigma, goal, SearchBounds(max_depth=1, max_image_words=2))
        assert outcome.found
        [step] = outcome.chain.steps
        assert (step.axiom_name, step.direction) == ("sq", "backward")
        assert step.phi == {"x": parse_term("a + b")}
        assert (step.left_context, step.right_context, step.remainder) == (None, None, None)
        assert outcome.truncated_by == {"KEEP_SUBSET_LIMIT": 1, "max_words": 64}
        assert (outcome.explored, outcome.matched) == (1, 36)

    def test_expanding_matches_do_not_count_keep_subset_limit(self):
        # ax's forward steps are expanding: phi(a) + ... + phi(e) lies in
        # its base, so the state is the same whatever the match keeps, and
        # a match of more than KEEP_SUBSET_LIMIT words cuts nothing
        sigma = AxiomSet([("ax", parse_identity("a + b + c + d + e == a + b + c + d + e + a"))])
        goal = parse_identity("x1 + x2 + x3 + x4 + x5 == x1 + x2 + x3 + x4")
        outcome = search_derivation(sigma, goal)
        assert (outcome.status, outcome.truncated_by) == ("absent-exhausted", {})
        assert (outcome.explored, outcome.matched) == (1, 6250)
        assert _summary(outcome) == _summary(_term_search(sigma, goal, SearchBounds()))

    def test_expanding_match_found_without_keep_subset_limit(self):
        sigma = AxiomSet([("ax", parse_identity("a + b + c + d + e == a + b + c + d + e + a*b"))])
        goal = parse_identity("x1 + x2 + x3 + x4 + x5 == x1 + x2 + x3 + x4 + x5 + x2*x1")
        outcome = search_derivation(sigma, goal)
        assert outcome.found and outcome.truncated_by == {}
        assert (outcome.explored, outcome.matched) == (1, 626)
        [step] = outcome.chain.steps
        assert (step.axiom_name, step.direction) == ("ax", "forward")
        assert step.phi == {
            x: parse_term(img) for x, img in zip("abcde", ("x2", "x1", "x1", "x1", "x1"))
        }
        assert (step.left_context, step.right_context) == (None, None)
        assert step.remainder == parse_term("x3 + x4 + x5")

    def test_one_substitution_list_per_axiom(self):
        # each substitution's two sides are substituted once, whatever
        # matches: with max_image_words 1 the images are the p pool words,
        # so sq (one variable) has p substitutions and comm (two) p**2
        sigma = AxiomSet(
            [("sq", parse_identity("x == x + x*x")), ("comm", parse_identity("x*y == y*x"))]
        )
        goal = parse_identity("a*b == a*b + b*a*b*a")
        bounds = SearchBounds(max_depth=3)
        p = len(_candidate_words(goal, bounds))
        with mock.patch.object(
            derivation, "image_words", wraps=derivation.image_words
        ) as spy:
            outcome = search_derivation(sigma, goal, bounds)
        assert (outcome.status, outcome.explored, outcome.matched) == ("found", 4, 53)
        assert p == 7
        assert spy.call_count == 2 * (p + p**2)

    @pytest.mark.parametrize(
        "goal, status, explored, p, built",
        [
            # absent: the start state's scans read both lists to their ends
            # in both directions, so every side of every entry is built:
            # 2 * (p + p**2)
            ("a*b == b*a + a", "absent-truncated", 6, 4, 40),
            # found at comm's second forward entry, phi = {x: b, y: c}: sq's
            # whole list with both sides (2 * p), then comm's phi(lhs) of
            # (b, b) and (b, c) and the phi(rhs) of the matching (b, c), where
            # the whole lists would take 2 * (p + p**2) = 60
            ("b*c + d == c*b + d", "found", 1, 5, 13),
        ],
    )
    def test_substituted_sides_built_as_read(self, goal, status, explored, p, built):
        sigma = AxiomSet(
            [("sq", parse_identity("x == x + x*x")), ("comm", parse_identity("x*y == y*x"))]
        )
        goal = parse_identity(goal)
        bounds = SearchBounds(max_depth=2, max_words=4, max_word_len=4)
        with mock.patch.object(
            derivation, "image_words", wraps=derivation.image_words
        ) as spy:
            outcome = search_derivation(sigma, goal, bounds)
        assert (outcome.status, outcome.explored) == (status, explored)
        assert len(_candidate_words(goal, bounds)) == p
        assert spy.call_count == built


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
            max_image_words=data.draw(st.sampled_from((1, 2, 3))),
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
        images = sum(math.comb(pool, k) for k in range(1, bounds.max_image_words + 1))
        assume(sum(images ** len(content(i.lhs) | content(i.rhs)) for _, i in sigma) <= 1500)
        assert _summary(search_derivation(sigma, goal, bounds)) == _summary(
            _term_search(sigma, goal, bounds)
        )

    def test_matches_term_search_past_the_substitution_cap(self):
        # both searches cut a rule's substitution list at SUBSTITUTION_CAP
        # in the same product order
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

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_substitution_lists_read_no_image_past_the_cap(self, data):
        # the images are the pool's first SUBSTITUTION_CAP + 1 combinations;
        # every substitution list, and the count of cut lists, is the one
        # built over all of them
        commutative = data.draw(st.booleans())
        sigma = _random_sigma(data, commutative)
        bounds = SearchBounds(
            max_word_len=data.draw(st.integers(1, 5)),
            max_image_words=data.draw(st.integers(1, 3)),
        )
        word = st.lists(st.sampled_from("abc"), min_size=1, max_size=6)
        side = st.lists(word, min_size=1, max_size=3)
        goal = Identity(Term(data.draw(side), commutative), Term(data.draw(side), commutative))
        pool = _candidate_words(goal, bounds)
        every = [
            c for k in range(1, bounds.max_image_words + 1) for c in itertools.combinations(pool, k)
        ]
        with mock.patch.object(derivation, "SUBSTITUTION_CAP", data.draw(st.integers(1, 40))):
            kept, whole = _StepSpace(sigma, goal, bounds), _StepSpace(sigma, goal, bounds)
            whole.images = every
            assert kept.images == every[: derivation.SUBSTITUTION_CAP + 1]
            for _, ident in sigma:
                assert _built_list(kept, ident) == _built_list(whole, ident)
        assert kept.fired == whole.fired

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_image_words_equals_the_frozen_product(self, data):
        # images of one or several words, some of them equal up to letter
        # order, substituted into words with repeated and single letters
        image_word = st.lists(st.sampled_from("ab"), min_size=1, max_size=3).map(tuple)
        image = st.lists(image_word, min_size=1, max_size=3, unique=True).map(tuple)
        images = {x: data.draw(image) for x in "xyz"}
        word = st.lists(st.sampled_from("xyz"), min_size=1, max_size=4).map(tuple)
        words = data.draw(st.lists(word, min_size=1, max_size=4))
        assert derivation.image_words(images, words) == _frozen_image_words(images, words)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_substitution_lists_equal_the_frozen_build(self, data):
        # the same entries in the same order, and the same cut count, as
        # the word_key-sorted build over the product for every word
        commutative = data.draw(st.booleans())
        sigma = _random_sigma(data, commutative)
        bounds = SearchBounds(
            max_word_len=data.draw(st.integers(1, 5)),
            max_image_words=data.draw(st.integers(1, 3)),
        )
        word = st.lists(st.sampled_from("abc"), min_size=1, max_size=6)
        side = st.lists(word, min_size=1, max_size=3)
        goal = Identity(Term(data.draw(side), commutative), Term(data.draw(side), commutative))
        with mock.patch.object(derivation, "SUBSTITUTION_CAP", data.draw(st.integers(1, 40))):
            new, frozen = _StepSpace(sigma, goal, bounds), _StepSpace(sigma, goal, bounds)
            for _, ident in sigma:
                assert _built_list(new, ident) == [
                    (phi, set(lhs), set(rhs)) for phi, lhs, rhs in _frozen_substitutions(frozen, ident)
                ]
        assert new.fired == frozen.fired

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_neighbors_yield_as_the_eager_lists(self, data):
        # the same steps in the same order, and the same counts after each,
        # as the frozen eager build, over a breadth-first search that stops
        # at its first found state; a read limit stops each state's scan
        # early, so that a later scan resumes a list left partly built
        commutative = data.draw(st.booleans())
        sigma = _random_sigma(data, commutative)
        bounds = SearchBounds(
            max_depth=data.draw(st.integers(1, 3)),
            max_words=data.draw(st.integers(2, 6)),
            max_word_len=data.draw(st.integers(1, 4)),
            max_image_words=data.draw(st.integers(1, 2)),
        )
        word = st.lists(st.sampled_from("abc"), min_size=1, max_size=3)
        side = st.lists(word, min_size=1, max_size=3)
        goal = Identity(Term(data.draw(side), commutative), Term(data.draw(side), commutative))
        reads = data.draw(st.one_of(st.none(), st.integers(1, 4)))
        target = goal.rhs.word_set()
        with mock.patch.object(derivation, "SUBSTITUTION_CAP", data.draw(st.integers(1, 60))):
            new, eager = _StepSpace(sigma, goal, bounds), _EagerStepSpace(sigma, goal, bounds)
            frontier = [goal.lhs.word_set()]
            seen = set(frontier)
            for _ in range(bounds.max_depth):
                next_frontier = []
                for t_words in frontier:
                    # zip_longest reads both to their ends, or to the limit
                    steps = itertools.zip_longest(
                        itertools.islice(new.neighbors(t_words), reads),
                        itertools.islice(eager.neighbors(t_words), reads),
                    )
                    for got, want in steps:
                        assert got == want
                        assert (new.fired, new.matched) == (eager.fired, eager.matched)
                        if got[1] == target:
                            return
                        if got[1] not in seen:
                            seen.add(got[1])
                            next_frontier.append(got[1])
                    assert (new.fired, new.matched) == (eager.fired, eager.matched)
                frontier = next_frontier
        assert (new.fired, new.matched) == (eager.fired, eager.matched)

    @pytest.mark.parametrize(
        "axioms, goal, bounds, truncated_by, explored, matched",
        [
            # forward sq at each of the 4 words adds its square: 5 words,
            # over max_words for both keep subsets of the one matched word
            (
                ("sq",),
                "a + b + c + d == b + c + d",
                SearchBounds(max_depth=1, max_words=4),
                {"max_words": 8},
                1,
                4,
            ),
            (
                ("dup",),
                "a + b + c == a + b + c + a*b",
                SearchBounds(max_depth=1, max_words=3),
                {"max_words": 30},
                1,
                9,
            ),
            (
                ("sq", "dup"),
                "a*b == b*a",
                SearchBounds(max_depth=2, max_words=4, max_word_len=4),
                {"max_word_len": 28, "max_depth": 7},
                4,
                56,
            ),
        ],
    )
    def test_rejected_expanding_steps_count_every_keep_subset(
        self, axioms, goal, bounds, truncated_by, explored, matched
    ):
        # an expanding step (its matched words all in its base) is checked
        # once, and a rejection counts once per keep subset, as the term
        # search counts them one by one
        texts = dict(AXIOM_TEXTS["sq,dup"])
        sigma = AxiomSet([(name, parse_identity(texts[name])) for name in axioms])
        goal = parse_identity(goal)
        new = search_derivation(sigma, goal, bounds)
        assert new.status == "absent-truncated"
        assert (new.truncated_by, new.explored, new.matched) == (truncated_by, explored, matched)
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

    def test_terms_built_only_for_the_chain(self, monkeypatch):
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

        # absent: no Term at all
        goal = parse_identity("x*y == y*x")
        counts = []
        for depth in (1, 2):
            bounds = SearchBounds(max_depth=depth, max_words=4, max_word_len=4)
            outcome, terms = count(lambda: search_derivation(sigma, goal, bounds))
            assert not outcome.found
            counts.append((outcome.explored, outcome.matched, terms))
        assert counts[0][0] < counts[1][0] and counts[0][1] < counts[1][1]
        assert [terms for _, _, terms in counts] == [0, 0]

        # found: each step's phi images, contexts and remainder, plus what
        # verifying the chain builds
        goal = parse_identity("x*y == x*y + x*y*x*y + x*y*x*y*x*y*x*y")
        bounds = SearchBounds(max_depth=2, max_words=4)
        outcome, terms = count(lambda: search_derivation(sigma, goal, bounds))
        assert outcome.found and len(outcome.chain.steps) == 2
        verdict, verifying = count(lambda: verify_chain(outcome.chain, sigma))
        assert verdict.ok
        chain_terms = sum(
            len(s.phi)
            + sum(t is not None for t in (s.left_context, s.right_context, s.remainder))
            for s in outcome.chain.steps
        )
        assert terms == chain_terms + verifying

    def test_substitution_lists_built_on_first_reach(self, monkeypatch):
        # sq forward finds the goal at depth 1, before the search reaches
        # three: its substitutions are never built
        calls = [0]
        words = derivation.image_words

        def counting_image_words(*args):
            calls[0] += 1
            return words(*args)

        monkeypatch.setattr(derivation, "image_words", counting_image_words)
        sq = ("sq", parse_identity("x == x + x*x"))
        three = ("three", parse_identity("x*y*z == z*y*x"))
        goal = parse_identity("x*y == x*y + x*y*x*y")
        counts = []
        for sigma in (AxiomSet([sq, three]), AxiomSet([sq])):
            calls[0] = 0
            outcome = search_derivation(sigma, goal, SearchBounds(max_depth=1))
            assert outcome.found and outcome.chain.steps[0].axiom_name == "sq"
            counts.append(calls[0])
        assert counts[0] == counts[1]
