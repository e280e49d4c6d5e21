"""Terms of two-letter words viewed as undirected graphs.

A term whose words have length two induces a graph on the variables those
words mention; bipartiteness of that graph is decided by breadth-first
2-coloring, returning an odd cycle exactly when the graph is not
bipartite.
"""

from __future__ import annotations

from collections import deque

from .records import Record, set_field
from .terms import Term


class TermGraph(Record):
    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: frozenset[str], edges: frozenset[frozenset[str]]):
        set_field(self, "vertices", vertices)
        set_field(self, "edges", edges)


class OddCycleSearch(Record):
    """Outcome of the 2-coloring: exactly one of cycle / coloring is set."""

    __slots__ = ("cycle", "coloring")

    def __init__(self, cycle: list[str] | None, coloring: dict[str, int] | None):
        set_field(self, "cycle", cycle)
        set_field(self, "coloring", coloring)

    @property
    def bipartite(self) -> bool:
        return self.cycle is None


def term_graph(a: Term, ignore_nonsimple: bool = False) -> TermGraph:
    """Graph of a term: length-2 words become edges, other lengths are ignored.

    A length-2 word with a repeated letter is no simple edge and is
    rejected, unless ignore_nonsimple is set (callers checking for
    odd-cycle subterms drop such words: they cannot contribute an edge).
    """
    edges = set()
    for w in a.words:
        if len(w) != 2:
            continue
        x, y = w
        if x == y:
            if ignore_nonsimple:
                continue
            raise ValueError(
                f"word {x}*{x} is not a simple edge (repeated letter)"
            )
        edges.add(frozenset((x, y)))
    vertices = frozenset(v for e in edges for v in e)
    return TermGraph(vertices, frozenset(edges))


def _neighbors(g: TermGraph) -> dict[str, list[str]]:
    """Each vertex's neighbours in ascending order. With the edges taken as
    pairs x < y in sorted order, a vertex v meets its smaller neighbours
    first, in edges (x, v) ordered by x, then its larger ones, in edges
    (v, y) ordered by y, so no list needs sorting."""
    adj: dict[str, list[str]] = {v: [] for v in sorted(g.vertices)}
    for e in sorted(g.edges, key=sorted):
        x, y = sorted(e)
        adj[x].append(y)
        adj[y].append(x)
    return adj


def odd_cycle(g: TermGraph) -> OddCycleSearch:
    """Find an odd cycle by BFS 2-coloring, or return a proper 2-coloring.

    The returned cycle is a closed walk listed as vertices (consecutive
    and wrap-around pairs are edges) of odd length. Disconnected graphs
    are colored per component, each root colored 0.
    """
    adj = _neighbors(g)
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
                    return OddCycleSearch(_extract_cycle(v, w, parent), None)
    return OddCycleSearch(None, color)


def _extract_cycle(v: str, w: str, parent: dict[str, str | None]) -> list[str]:
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
