import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisemiring import (
    Identity,
    SizeLimitError,
    Term,
    builtin,
    components,
    content,
    delta_sets,
    evaluate,
    filter_content_subset,
    format_word,
    holds_bruteforce,
    is_linear,
    random_identity,
    substitute,
)
from aisemiring.deciders import _unmet
import aisemiring.terms as terms_module
from aisemiring.terms import DELTA_WORK_CAP, image_words, word_key

VARS = ("x", "y", "z")


def words(alphabet=VARS, max_len=4):
    return st.lists(st.sampled_from(alphabet), min_size=1, max_size=max_len).map(tuple)


def format_word_by_runs(w) -> str:
    """Reference for format_word: every maximal letter run through groupby."""
    parts = []
    for letter, run in itertools.groupby(w):
        k = len(list(run))
        parts.append(letter if k == 1 else f"{letter}^{k}")
    return "*".join(parts)


def normalize_by_loop(ws, commutative):
    """Reference for Term's normaliser: one word at a time, then word_key."""
    normalized = set()
    for w in ws:
        w = tuple(w)
        if not w:
            raise ValueError("words must be nonempty")
        if commutative:
            w = tuple(sorted(w))
        normalized.add(w)
    if not normalized:
        raise ValueError("a term must contain at least one word")
    return tuple(sorted(normalized, key=word_key))


def terms(alphabet=VARS, commutative=None, max_words=4, max_word_len=4):
    mode = st.booleans() if commutative is None else st.just(commutative)
    return st.builds(
        lambda ws, m: Term(ws, m),
        st.lists(words(alphabet, max_word_len), min_size=1, max_size=max_words),
        mode,
    )


class TestTermBasics:
    def test_words_are_deduplicated_and_sorted(self):
        t = Term([("y",), ("x", "x"), ("y",)])
        assert t.words == (("y",), ("x", "x"))

    def test_commutative_mode_sorts_letters(self):
        t = Term([("y", "x")], commutative=True)
        assert t.words == (("x", "y"),)
        assert ("y", "x") in t

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Term([])
        with pytest.raises(ValueError):
            Term([()])

    def test_immutable(self):
        t = Term([("x",)])
        with pytest.raises(AttributeError):
            t.words = ()

    def test_add_is_union(self):
        t = Term([("x",)]) + Term([("y",), ("x",)])
        assert t.word_set() == {("x",), ("y",)}

    def test_mul_is_pairwise_concatenation(self):
        t = Term([("x",), ("y",)]) * Term([("z",)])
        assert t.word_set() == {("x", "z"), ("y", "z")}

    def test_mode_mismatch_rejected(self):
        a = Term([("x",)], commutative=True)
        b = Term([("y",)])
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b

    def test_str_compresses_runs(self):
        assert format_word(("x", "x", "y")) == "x^2*y"
        assert str(Term([("x", "x"), ("y",)])) == "y + x^2"

    @given(
        words(("x", "y", "z1", "ab"), max_len=6)
        | st.lists(st.sampled_from(("x", "y", "z1", "ab", "w")), min_size=1, unique=True).map(tuple)
    )
    def test_format_word_matches_run_reference(self, w):
        # linear words take the no-repeat shortcut, the rest the run loop
        assert format_word(w) == format_word_by_runs(w)

    @given(
        st.lists(st.lists(st.sampled_from(("x", "y", "z1", "ab")), max_size=4).map(tuple), max_size=6),
        st.booleans(),
        st.sampled_from((tuple, list, "".join)),
    )
    def test_normalizer_matches_loop_reference(self, ws, commutative, shape):
        # words given as tuples, lists or strings, empty ones included
        ws = [shape(w) for w in ws]
        try:
            expected = normalize_by_loop(ws, commutative)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                Term(ws, commutative)
        else:
            assert Term(ws, commutative).words == expected

    @given(
        st.lists(st.lists(st.sampled_from(("x", "y", "z")), min_size=1, max_size=3).map(tuple), min_size=1, max_size=5),
        st.randoms(use_true_random=False),
        st.booleans(),
    )
    def test_equality_and_hash_ignore_word_order_and_repeats(self, ws, rng, commutative):
        shuffled = ws + rng.sample(ws, rng.randint(0, len(ws)))  # repeats some words
        rng.shuffle(shuffled)
        if commutative:  # letters reordered too
            shuffled = [tuple(rng.sample(w, len(w))) for w in shuffled]
        a, b = Term(ws, commutative), Term(shuffled, commutative)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_never_equal_across_modes_or_to_non_terms(self):
        for ws in ([("x",)], [("x", "y")], [("y",), ("x", "x")]):
            plain, comm = Term(ws), Term(ws, commutative=True)
            assert plain.words == comm.words
            assert plain != comm and comm != plain
            assert len({plain, comm}) == 2
            for other in (plain.words, (plain.words, False), str(plain), Identity(plain, plain)):
                assert plain != other and other != plain
                assert plain.__eq__(other) is NotImplemented

    def test_identity_modes_must_match(self):
        with pytest.raises(ValueError):
            Identity(Term([("x",)], True), Term([("x",)], False))

    def test_identity_trivial(self):
        assert Identity(Term([("x",)]), Term([("x",)])).is_trivial()
        assert not Identity(Term([("x",)]), Term([("y",)])).is_trivial()


class TestStatistics:
    def test_content(self):
        t = Term([("x", "x"), ("y",)])
        assert content(t) == {"x", "y"}
        assert content(("x", "z", "x")) == {"x", "z"}

    def test_is_linear(self):
        assert is_linear(("x", "y", "z"))
        assert not is_linear(("x", "y", "x"))

    def test_filters(self):
        u = Term([("x", "x"), ("y",), ("x", "y")])
        assert filter_content_subset(u, ("y", "y")) == {("y",)}
        assert filter_content_subset(u, ("x", "y")) == u.word_set()
        assert filter_content_subset(u, ("z",)) == frozenset()


def delta_reference(term: Term) -> frozenset[frozenset[str]]:
    # independent route: pick one once-occurring letter per word, union the
    # picks, keep unions that still meet every word exactly once
    options = []
    for w in term.words:
        once = sorted(x for x in set(w) if w.count(x) == 1)
        if not once:
            return frozenset()
        options.append(once)
    found = set()
    for pick in itertools.product(*options):
        z = frozenset(pick)
        if all(
            len(z & set(w)) == 1 and w.count(next(iter(z & set(w)))) == 1
            for w in term.words
        ):
            found.add(z)
    return frozenset(found)


def delta_by_subsets(term: Term) -> frozenset[frozenset[str]]:
    # the enumeration the exact-cover search replaced: every nonempty
    # subset of the content, kept when it meets each word exactly once
    variables = sorted(content(term))
    return frozenset(
        frozenset(z)
        for size in range(1, len(variables) + 1)
        for z in itertools.combinations(variables, size)
        if all(
            len(set(z) & set(w)) == 1 and w.count(next(iter(set(z) & set(w)))) == 1
            for w in term.words
        )
    )


def frozen_exact_covers(u: Term, cap: int) -> frozenset[frozenset[str]]:
    """The iterative Algorithm X (Knuth, "Dancing Links") that listed delta
    families before the parity-class search, with an open-word counter and a
    list of chosen letters beside its frames, kept frozen as the family spec;
    cap stands for DELTA_WORK_CAP, counted in word visits."""
    words = u.words
    where: dict[str, list[int]] = {}  # letter -> the words it occurs in, once each
    banned = set()
    for i, w in enumerate(words):
        counts = dict.fromkeys(w, 1) if is_linear(w) else Counter(w)
        for x, k in counts.items():
            if k > 1:
                banned.add(x)
            else:
                where.setdefault(x, []).append(i)
    for x in banned:
        where.pop(x, None)
    available = set(where)
    left = [sum(x in available for x in w) for w in words]  # letters still available
    by_left = [set() for _ in range(max(left) + 1)]  # open words by letters left
    for i, c in enumerate(left):
        by_left[c].add(i)
    covered = [False] * len(words)
    open_words = len(words)
    work = 0

    def choose(x: str) -> list[str]:
        nonlocal open_words, work
        for i in where[x]:
            by_left[left[i]].remove(i)
            covered[i] = True
        open_words -= len(where[x])
        work += len(where[x])
        gone = []
        for i in where[x]:
            for y in words[i]:
                if y in available:
                    available.remove(y)
                    gone.append(y)
                    for j in where[y]:
                        if not covered[j]:
                            by_left[left[j]].remove(j)
                            by_left[left[j] - 1].add(j)
                        left[j] -= 1
                    work += len(where[y])
        if work > cap:
            raise SizeLimitError("DELTA_WORK_CAP", work, cap, "word visits")
        return gone

    def undo(x: str, gone: list[str]) -> None:
        nonlocal open_words
        for y in reversed(gone):
            available.add(y)
            for j in where[y]:
                left[j] += 1
                if not covered[j]:
                    by_left[left[j] - 1].remove(j)
                    by_left[left[j]].add(j)
        for i in where[x]:
            covered[i] = False
            by_left[left[i]].add(i)
        open_words += len(where[x])

    found = []
    chosen: list[str] = []
    # one frame per branched word: its letters, the next one to try, and
    # the letters the current choice banned (None before the first choice)
    frames: list[list] = []
    while True:
        if not open_words:
            found.append(tuple(chosen))
        else:
            c = next(c for c, b in enumerate(by_left) if b)
            if c:
                i = next(iter(by_left[c]))
                frames.append([[y for y in words[i] if y in available], 0, None])
        # take the next untried letter, backing up over exhausted words
        while frames:
            frame = frames[-1]
            if frame[2] is not None:
                undo(chosen.pop(), frame[2])
                frame[2] = None
            if frame[1] == len(frame[0]):
                frames.pop()
                continue
            x = frame[0][frame[1]]
            frame[1] += 1
            chosen.append(x)
            frame[2] = choose(x)
            break
        else:
            return frozenset(map(frozenset, found))


class TestDeltaSets:
    def test_square_plus_y_is_empty(self):
        u = Term([("x", "x"), ("y",)])
        assert delta_sets(u) == frozenset()

    def test_two_edge_path(self):
        u = Term([("x", "y"), ("y", "z")])
        assert delta_sets(u) == {frozenset({"y"}), frozenset({"x", "z"})}

    def test_single_edge(self):
        u = Term([("x", "y")])
        assert delta_sets(u) == {frozenset({"x"}), frozenset({"y"})}

    def test_repeated_letter_blocks_membership(self):
        u = Term([("x", "x")])
        assert delta_sets(u) == frozenset()

    def test_linear_word_past_twenty_letters(self):
        w = tuple(f"v{i}" for i in range(21))
        assert delta_sets(Term([w])) == {frozenset({x}) for x in w}

    def test_work_bound(self):
        # 20 disjoint edges have 2^20 delta sets, too many to list
        u = Term([(f"a{i}", f"b{i}") for i in range(20)])
        with pytest.raises(SizeLimitError) as caught:
            delta_sets(u)
        assert caught.value.guard == "DELTA_WORK_CAP"
        assert caught.value.limit == DELTA_WORK_CAP
        assert caught.value.done > caught.value.limit

    # the reference tries up to 4^6 picks, so no per-example deadline
    @settings(max_examples=300, deadline=None)
    @given(terms(alphabet=tuple("abcdefgh"), max_words=6))
    def test_matches_reference_enumeration(self, t):
        assert delta_sets(t) == delta_reference(t) == delta_by_subsets(t)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_family_with_added_words_follows_from_the_smaller(self, data):
        # D + W with c(W) ⊆ c(D): the members of delta(D) that _unmet
        # finds from the added words alone are the ones a search on D + W
        # does not find, and the other way round none are missing
        d = data.draw(terms(alphabet=tuple("abcde"), max_words=5))
        w = data.draw(st.lists(words(tuple(sorted(content(d)))), min_size=1, max_size=3))
        extended = Term(d.words + tuple(w), d.commutative)
        family = delta_sets(extended)
        assert family == delta_reference(extended)
        unmet = _unmet(d, extended.word_set() - d.word_set())
        assert len(unmet) == len(set(unmet))
        assert set(unmet) == delta_sets(d) - family
        assert _unmet(extended, d.word_set() - extended.word_set()) == []
        assert family - delta_sets(d) == set()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_unmet_is_the_family_difference(self, data):
        # any two terms with equal content, each possibly with words the
        # other lacks; a last word holds the letters v would miss
        u = data.draw(terms(alphabet=tuple("abcde"), max_words=5))
        letters = tuple(sorted(content(u)))
        v_words = data.draw(st.lists(st.sampled_from(u.words), max_size=3))
        v_words += data.draw(st.lists(words(letters), max_size=3))
        missing = content(u) - {x for w in v_words for x in w}
        v = Term(v_words + [tuple(sorted(missing))] if missing else v_words, u.commutative)
        for a, b in ((u, v), (v, u)):
            assert set(_unmet(a, b.word_set() - a.word_set())) == delta_sets(a) - delta_sets(b)


def covers_or_limit(search, u):
    """A search's family, or the guard, visits and limit it raised with."""
    try:
        return search(u)
    except SizeLimitError as exc:
        return (exc.guard, exc.done, exc.limit)


def small_scope_terms():
    """Every term of at most three words of at most two letters over a, b,
    c, d, in both modes."""
    pool = [w for k in (1, 2) for w in itertools.product("abcd", repeat=k)]
    for size in (1, 2, 3):
        for ws in itertools.combinations(pool, size):
            for commutative in (False, True):
                yield Term(ws, commutative)


class TestExactCoversMatchFrozenSearch:
    def assert_same(self, u, caps):
        # the family at the real cap; at each smaller cap, in rising order,
        # the same family or a raise past that cap, and once the search
        # answers it answers at every larger cap
        family = frozen_exact_covers(u, DELTA_WORK_CAP)
        assert terms_module._exact_covers(u) == family
        answered = False
        for cap in sorted(caps):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(terms_module, "DELTA_WORK_CAP", cap)
                new = covers_or_limit(terms_module._exact_covers, u)
            if isinstance(new, tuple):
                assert not answered, cap
                guard, done, limit = new
                assert (guard, limit) == ("DELTA_WORK_CAP", cap)
                assert done > cap
            else:
                assert new == family, cap
                answered = True

    def test_every_term_of_a_small_scope(self):
        for u in small_scope_terms():
            self.assert_same(u, caps=(0, 1, 2, 3, 5, 8))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_disjoint_edges_raise_at_the_same_visit(self, k):
        # k edges have 2^k covers; the caps reach past the search's whole work
        u = Term([(f"a{i}", f"b{i}") for i in range(k)])
        self.assert_same(u, caps=range(8 * 2**k))

    def test_past_the_work_cap(self):
        # 20 disjoint edges: both searches stop at the cap; the parity search
        # counts its 20 words and 2^20 members before it lists any
        u = Term([(f"a{i}", f"b{i}") for i in range(20)])
        assert covers_or_limit(terms_module._exact_covers, u) == (
            "DELTA_WORK_CAP", 20 + 2**20, DELTA_WORK_CAP
        )
        guard, done, limit = covers_or_limit(lambda t: frozen_exact_covers(t, DELTA_WORK_CAP), u)
        assert (guard, limit) == ("DELTA_WORK_CAP", DELTA_WORK_CAP)
        assert done > limit

    @settings(max_examples=300, deadline=None)
    @given(
        terms(alphabet=tuple("abcdefghij"), max_words=12, max_word_len=4),
        st.integers(min_value=0, max_value=200),
    )
    def test_drawn_terms_and_caps(self, u, cap):
        self.assert_same(u, caps=(cap,))


def cycle(k: int) -> list[tuple[str, str]]:
    return [(f"v{i}", f"v{(i + 1) % k}") for i in range(k)]


def disjoint_edges(k: int) -> list[tuple[str, str]]:
    return [(f"a{i}", f"b{i}") for i in range(k)]


class TestParityClasses:
    """Structured terms for the parity-class search: two-letter words join
    classes, one-letter words force a letter, longer words branch."""

    @pytest.mark.parametrize("commutative", [False, True])
    def test_odd_cycles_are_empty(self, commutative):
        for k in range(3, 42, 2):
            u = Term(cycle(k), commutative)
            assert delta_sets(u) == frozenset() == frozen_exact_covers(u, DELTA_WORK_CAP)

    @pytest.mark.parametrize("commutative", [False, True])
    def test_even_cycles_are_their_two_colour_classes(self, commutative):
        for k in range(4, 42, 2):
            u = Term(cycle(k), commutative)
            classes = {frozenset(f"v{i}" for i in range(p, k, 2)) for p in (0, 1)}
            assert delta_sets(u) == classes == frozen_exact_covers(u, DELTA_WORK_CAP)

    @pytest.mark.parametrize("commutative", [False, True])
    def test_forced_letters_against_their_parity(self, commutative):
        # x and y are each forced into Z, and x*y asks for exactly one
        u = Term([("x",), ("y",), ("x", "y")], commutative)
        assert delta_sets(u) == frozenset() == delta_by_subsets(u)

    @pytest.mark.parametrize("commutative", [False, True])
    def test_a_ban_from_one_word_empties_another(self, commutative):
        # x0 occurs twice in x0^2*x2, so no member holds it, and none meets x0
        u = Term([("x0",), ("x0", "x4"), ("x0", "x0", "x2"), ("x1", "x2", "x3")], commutative)
        assert delta_sets(u) == frozenset() == delta_by_subsets(u)

    @pytest.mark.parametrize("seed", range(20))
    def test_planted_sets(self, seed):
        # edges from side A to side B covering both, plus longer words of one
        # A letter and B letters, so that A is a member
        rng = random.Random(seed)
        k = rng.randint(6, 10)
        side_a = [f"a{i}" for i in range(k // 2)]
        side_b = [f"b{i}" for i in range(k - k // 2)]
        words = [(side_a[i % len(side_a)], b) for i, b in enumerate(side_b)]
        words += [(a, rng.choice(side_b)) for a in side_a]
        words += [
            (rng.choice(side_a), *rng.sample(side_b, rng.randint(2, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        for commutative in (False, True):
            u = Term(rng.sample(words, len(words)), commutative)
            family = delta_sets(u)
            assert frozenset(side_a) in family
            assert family == frozen_exact_covers(u, DELTA_WORK_CAP) == delta_by_subsets(u)

    @pytest.mark.parametrize("k", range(1, 15))
    def test_disjoint_edges_have_every_choice(self, k):
        edges = disjoint_edges(k)
        family = delta_sets(Term(edges))
        assert len(family) == 2**k
        assert family == set(map(frozenset, itertools.product(*edges)))

    def test_each_check_of_a_longer_word_counts(self, monkeypatch):
        # 70 orderings of 70 letters: the first leaves 70 partial assignments,
        # and each later one checks its 70 classes against all of them, so the
        # search passes the cap though it keeps only 70 assignments a word
        rng = random.Random(0)
        letters = [f"x{i}" for i in range(70)]
        u = Term([tuple(rng.sample(letters, 70)) for _ in range(70)])
        with pytest.raises(SizeLimitError) as caught:
            delta_sets(u)
        assert caught.value.done > caught.value.limit == DELTA_WORK_CAP
        monkeypatch.setattr(terms_module, "DELTA_WORK_CAP", 400_000)
        assert delta_sets(u) == {frozenset({x}) for x in letters}

    @pytest.mark.parametrize(
        "words, steps, family",
        [
            # 2 words read; x*z*w's 3 classes checked against the one empty
            # assignment, which they extend 3 ways; 3 members to list:
            # 2 + (3 + 3) + 3
            ([("x", "y"), ("x", "z", "w")], 11, {"x", "yz", "yw"}),
            # 3 words read, w forced; x*y*z as above; x*y*z*w's 4 classes
            # checked against each of the 3 assignments, none kept, so the
            # search ends at that word's last check: 3 + (3 + 3) + 3 * 4
            ([("w",), ("x", "y", "z"), ("x", "y", "z", "w")], 21, set()),
        ],
        ids=["members", "no-member"],
    )
    def test_each_step_counts_up_to_the_cap(self, monkeypatch, words, steps, family):
        u = Term(words)
        monkeypatch.setattr(terms_module, "DELTA_WORK_CAP", steps)
        assert terms_module._exact_covers(u) == {frozenset(z) for z in family}
        monkeypatch.setattr(terms_module, "DELTA_WORK_CAP", steps - 1)
        with pytest.raises(SizeLimitError) as caught:
            terms_module._exact_covers(u)
        assert (caught.value.done, caught.value.limit) == (steps, steps - 1)

    def test_the_cap_falls_between_17_and_18_disjoint_edges(self):
        # k edges cost k words read and 2^k members: 131,089 steps for 17,
        # 262,162 for 18, counted before any member is listed
        assert len(delta_sets(Term(disjoint_edges(17)))) == 2**17
        with pytest.raises(SizeLimitError) as caught:
            delta_sets(Term(disjoint_edges(18)))
        assert (caught.value.done, caught.value.limit) == (18 + 2**18, DELTA_WORK_CAP)


class TestSubstitute:
    def test_letter_expansion(self):
        phi = {"x": Term([("a",), ("b",)]), "y": Term([("c",)])}
        out = substitute(phi, Term([("x", "y")]))
        assert out.word_set() == {("a", "c"), ("b", "c")}

    def test_missing_variable(self):
        with pytest.raises(ValueError, match="does not cover"):
            substitute({}, Term([("x",)]))

    # word counts multiply through a double substitution, so keep the
    # ingredients small and let slow shrink cycles run to completion
    @settings(deadline=None)
    @given(
        terms(alphabet=("x", "y"), commutative=False, max_words=3, max_word_len=3),
        st.tuples(
            terms(alphabet=("p", "q"), commutative=False, max_words=2, max_word_len=2),
            terms(alphabet=("p", "q"), commutative=False, max_words=2, max_word_len=2),
        ),
        st.tuples(
            terms(alphabet=("a", "b"), commutative=False, max_words=2, max_word_len=2),
            terms(alphabet=("a", "b"), commutative=False, max_words=2, max_word_len=2),
        ),
    )
    def test_composition(self, t, psi_images, phi_images):
        psi = {"x": psi_images[0], "y": psi_images[1]}
        phi = {"p": phi_images[0], "q": phi_images[1]}
        composed = {v: substitute(phi, img) for v, img in psi.items()}
        assert substitute(phi, substitute(psi, t)) == substitute(composed, t)

    @settings(deadline=None)
    @given(
        st.data(),
        st.booleans(),
        terms(alphabet=("x", "y"), commutative=False, max_words=3, max_word_len=4),
    )
    def test_image_words_is_the_product_of_images(self, data, mode, t):
        # images of several words over repeated letters; the reference
        # multiplies and adds the image terms with the semiring operations
        t = Term(t.words, mode)
        image = terms(alphabet=("a", "b"), commutative=mode, max_words=3, max_word_len=2)
        phi = {"x": data.draw(image), "y": data.draw(image)}
        out = image_words({x: img.words for x, img in phi.items()}, t.words)
        reference = None
        for w in t.words:
            product = phi[w[0]]
            for x in w[1:]:
                product = product * phi[x]
            reference = product if reference is None else reference + product
        assert Term(out, mode).words == substitute(phi, t).words == reference.words

    def test_image_words_keep_product_order(self):
        # the words are not normalized: commutative callers sort them
        images = {"x": (("b",),), "y": (("a",), ("a", "a"))}
        out = image_words(images, [("x", "y"), ("y",)])
        assert out == {("b", "a"), ("b", "a", "a"), ("a",), ("a", "a")}
        assert substitute(
            {x: Term(ws, True) for x, ws in images.items()}, Term([("x", "y"), ("y",)], True)
        ).words == (("a",), ("a", "a"), ("a", "b"), ("a", "a", "b"))


ASSIGNMENTS_S7 = st.fixed_dictionaries(
    {x: st.sampled_from(("1", "a", "0")) for x in VARS}
)


class TestEvaluate:
    def test_known_values(self):
        s7 = builtin("S7")
        t = Term([("x", "x"), ("y",)])
        assert evaluate(t, s7, {"x": "1", "y": "1"}) == "1"
        assert evaluate(t, s7, {"x": "a", "y": "a"}) == "0"

    def test_missing_assignment(self):
        with pytest.raises(ValueError, match="does not cover"):
            evaluate(Term([("x",)]), builtin("S7"), {})

    @given(terms(commutative=False), terms(commutative=False), ASSIGNMENTS_S7)
    def test_respects_operations(self, t1, t2, asg):
        s7 = builtin("S7")
        assert evaluate(t1 + t2, s7, asg) == s7.add_named(
            evaluate(t1, s7, asg), evaluate(t2, s7, asg)
        )
        assert evaluate(t1 * t2, s7, asg) == s7.mul_named(
            evaluate(t1, s7, asg), evaluate(t2, s7, asg)
        )

    @given(terms(alphabet=("x", "y"), commutative=False, max_words=3), ASSIGNMENTS_S7)
    def test_commutes_with_substitution(self, t, asg):
        s7 = builtin("S7")
        phi = {"x": Term([("x", "y")]), "y": Term([("z",), ("x",)])}
        inner = {v: evaluate(img, s7, asg) for v, img in phi.items()}
        assert evaluate(substitute(phi, t), s7, asg) == evaluate(t, s7, inner)

    def test_commutative_words_evaluate_order_free_in_s7(self):
        # S7 multiplication is commutative, so sorted storage changes nothing
        s7 = builtin("S7")
        t1 = Term([("x", "y", "z")], commutative=True)
        t2 = Term([("z", "y", "x")], commutative=True)
        assert t1 == t2
        for asg in itertools.product(s7.elements, repeat=3):
            named = dict(zip(("x", "y", "z"), asg))
            assert evaluate(t1, s7, named) == evaluate(t2, s7, named)


class TestDecomposition:
    def test_components_structure(self):
        ident = Identity(Term([("x",)]), Term([("y",), ("z",)]))
        comp = components(ident)
        assert comp == [
            (ident.lhs, ("y",)),
            (ident.lhs, ("z",)),
            (ident.rhs, ("x",)),
        ]

    def test_decompose_trivial_members(self):
        # a component whose word already belongs to its base is trivial
        ident = Identity(Term([("x",)]), Term([("x",), ("y",)]))
        parts = [Identity(base, base.add_word(q)) for base, q in components(ident)]
        assert len(parts) == 3
        assert sum(p.is_trivial() for p in parts) == 2

    def test_decompose_matches_oracle_semantics(self):
        # the whole identity holds exactly when every component does
        rng = random.Random(424242)
        algebras = (builtin("S7"), builtin("D2"))
        for _ in range(200):
            ident = random_identity(rng, 3, 3, 3)
            for s in algebras:
                whole = holds_bruteforce(s, ident).holds
                parts = all(
                    holds_bruteforce(s, Identity(base, base.add_word(q))).holds
                    for base, q in components(ident)
                )
                assert whole == parts, (str(ident), s.elements)


def test_word_set_is_built_once():
    t = Term([("y", "x"), ("x",)], commutative=True)
    assert t.word_set() is t.word_set()
    assert t.word_set() == {("x", "y"), ("x",)}
    assert ("y", "x") in t and ("x", "y") in t and ("y",) not in t
