import itertools
import random

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
from aisemiring.terms import DELTA_WORK_CAP, image_words

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
