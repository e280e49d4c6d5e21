import random
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aisemiring import (
    Term,
    TermGraph,
    content,
    delta_sets,
    make_witness,
    odd_cycle,
    term_graph,
)
from aisemiring.graphs import OddCycleSearch, _neighbors


def graph_of(pairs):
    return TermGraph(
        vertices=frozenset(v for p in pairs for v in p),
        edges=frozenset(frozenset(p) for p in pairs),
    )


class TestTermGraph:
    def test_edges_from_length_two_words_only(self):
        t = Term([("x", "y"), ("y", "z", "w"), ("x",)])
        g = term_graph(t)
        assert g.edges == {frozenset({"x", "y"})}
        assert g.vertices == {"x", "y"}

    def test_repeated_letter_word_rejected(self):
        with pytest.raises(ValueError, match="not a simple edge"):
            term_graph(Term([("x", "x")]))

    def test_repeated_letter_word_ignorable(self):
        g = term_graph(Term([("x", "x"), ("x", "y")]), ignore_nonsimple=True)
        assert g.edges == {frozenset({"x", "y"})}


class TestOddCycle:
    def test_triangle(self):
        out = odd_cycle(graph_of([("a", "b"), ("b", "c"), ("c", "a")]))
        assert not out.bipartite
        assert len(out.cycle) == 3
        assert set(out.cycle) == {"a", "b", "c"}

    def test_square_is_bipartite(self):
        out = odd_cycle(graph_of([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]))
        assert out.bipartite
        assert out.coloring is not None
        assert out.coloring["a"] != out.coloring["b"]

    def test_empty_graph(self):
        out = odd_cycle(TermGraph(frozenset(), frozenset()))
        assert out.bipartite
        assert out.coloring == {}

    def test_disconnected_components(self):
        out = odd_cycle(graph_of([("a", "b"), ("c", "d"), ("d", "e"), ("e", "c")]))
        assert not out.bipartite
        assert len(out.cycle) == 3

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_witness_cycles(self, n):
        out = odd_cycle(term_graph(make_witness(n).u))
        assert not out.bipartite
        assert len(out.cycle) == 2 * n + 1


def check_cycle_valid(g, cycle):
    assert len(cycle) % 2 == 1
    assert len(set(cycle)) == len(cycle)
    for i, v in enumerate(cycle):
        w = cycle[(i + 1) % len(cycle)]
        assert frozenset({v, w}) in g.edges


def check_coloring_valid(g, coloring):
    assert set(coloring) == g.vertices
    for e in g.edges:
        x, y = sorted(e)
        assert coloring[x] != coloring[y]


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1]),
        min_size=1,
        max_size=12,
    )
)
def test_outcome_is_always_checkable(pairs):
    g = graph_of([(f"v{a}", f"v{b}") for a, b in pairs])
    out = odd_cycle(g)
    if out.bipartite:
        check_coloring_valid(g, out.coloring)
    else:
        check_cycle_valid(g, out.cycle)


@given(
    st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda p: p[0] != p[1]),
        max_size=20,
    )
)
def test_neighbors_are_listed_ascending_without_sorting(pairs):
    g = graph_of([(f"v{a}", f"v{b}") for a, b in pairs])
    adj = _neighbors(g)
    assert list(adj) == sorted(g.vertices)
    for v, near in adj.items():
        assert near == sorted(u for e in g.edges if v in e for u in e if u != v)


def random_connected_bipartite_term(rng: random.Random) -> Term:
    # spanning tree first (connected, 2-colorable), then cross edges only
    k = rng.randint(2, 6)
    names = [f"v{i}" for i in range(k)]
    rng.shuffle(names)
    side = {names[0]: 0}
    edges = set()
    for v in names[1:]:
        u = rng.choice(sorted(side))
        side[v] = 1 - side[u]
        edges.add(tuple(sorted((u, v))))
    zero = sorted(v for v in side if side[v] == 0)
    one = sorted(v for v in side if side[v] == 1)
    for _ in range(rng.randint(0, 3)):
        edges.add(tuple(sorted((rng.choice(zero), rng.choice(one)))))
    return Term(sorted(edges), commutative=True)


def test_color_classes_of_connected_bipartite_terms_are_delta_members():
    rng = random.Random(90125)
    for _ in range(150):
        t = random_connected_bipartite_term(rng)
        g = term_graph(t)
        out = odd_cycle(g)
        if not out.bipartite:
            pytest.fail(f"generator produced a non-bipartite term {t}")
        # connectivity by construction: every vertex touches the left side
        family = delta_sets(t)
        for color in (0, 1):
            cls = frozenset(v for v, c in out.coloring.items() if c == color)
            assert cls in family, (str(t), sorted(cls))


# The 2-coloring search as it was before it kept BFS depths: a color map
# next to the parents, and both ancestries rebuilt as lists on a conflict.
# Copied verbatim (the adjacency under the name frozen_neighbors) as the
# reference for the exact cycle and coloring, which axiom-check prints.
def frozen_neighbors(g: TermGraph) -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {v: [] for v in sorted(g.vertices)}
    for e in sorted(g.edges, key=sorted):
        x, y = sorted(e)
        adj[x].append(y)
        adj[y].append(x)
    return adj


def frozen_odd_cycle(g: TermGraph) -> OddCycleSearch:
    adj = frozen_neighbors(g)
    color: dict[str, int] = {}
    parent: dict[str, str | None] = {}
    for root in sorted(g.vertices):
        if root in color:
            continue
        color[root] = 0
        parent[root] = None
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    parent[w] = v
                    queue.append(w)
                elif color[w] == color[v]:
                    return OddCycleSearch(frozen_extract_cycle(v, w, parent), None)
    return OddCycleSearch(None, color)


def frozen_extract_cycle(v: str, w: str, parent: dict[str, str | None]) -> list[str]:
    # Walk both endpoints up to their lowest common ancestor; the two arms
    # plus the conflicting edge form an odd cycle.
    def ancestry(x):
        path = [x]
        while parent[x] is not None:
            x = parent[x]
            path.append(x)
        return path

    up_v, up_w = ancestry(v), ancestry(w)
    common = None
    ws = set(up_w)
    for node in up_v:
        if node in ws:
            common = node
            break
    assert common is not None
    arm_v = up_v[: up_v.index(common) + 1]
    arm_w = up_w[: up_w.index(common)]
    return arm_v + arm_w[::-1]


def assert_same_search(g):
    out, ref = odd_cycle(g), frozen_odd_cycle(g)
    assert (out.cycle, out.coloring) == (ref.cycle, ref.coloring)


class TestOddCycleMatchesFrozenSearch:
    @given(
        st.sets(st.integers(0, 11), max_size=12),
        st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=20,
        ),
    )
    def test_random_graphs_with_isolated_vertices(self, isolated, pairs):
        edges = frozenset(frozenset((f"v{a}", f"v{b}")) for a, b in pairs)
        vertices = frozenset(f"v{i}" for i in isolated) | {v for e in edges for v in e}
        assert_same_search(TermGraph(vertices, edges))

    @pytest.mark.parametrize("n", range(1, 51))
    def test_witness_cycles_with_shuffled_names(self, n):
        u = make_witness(n).u
        names = sorted(content(u))
        renamed = names[:]
        random.Random(n).shuffle(renamed)
        rename = dict(zip(names, renamed))
        t = Term([tuple(rename[x] for x in w) for w in u.words], commutative=True)
        g = term_graph(t)
        assert_same_search(g)
        assert len(odd_cycle(g).cycle) == 2 * n + 1

    def test_cycle_is_listed_as_axiom_check_prints_it(self):
        g = term_graph(Term([("x", "y"), ("y", "z"), ("x", "z")], commutative=True))
        assert odd_cycle(g).cycle == ["y", "x", "z"]
