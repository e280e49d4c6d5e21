"""Terms of two-letter words viewed as undirected graphs.

A term whose words have length two induces a graph on the variables those
words mention; bipartiteness of that graph is decided by breadth-first
2-coloring, returning an odd cycle exactly when the graph is not
bipartite.
"""

from __future__ import annotations

from collections import deque

from .records import Record
from .terms import Term


class TermGraph(Record):
    __slots__ = ("vertices", "edges")


class OddCycleSearch(Record):
    """Outcome of the 2-coloring: exactly one of cycle / coloring is set."""

    __slots__ = ("cycle", "coloring")

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
    for x, y in sorted(sorted(e) for e in g.edges):
        adj[x].append(y)
        adj[y].append(x)
    return adj


def odd_cycle(g: TermGraph) -> OddCycleSearch:
    """Find an odd cycle by breadth-first search, or return a proper 2-coloring.

    Each vertex keeps its BFS depth, each root (taken by name, one per
    component) at 0. An edge outside the BFS tree joins vertices at equal
    or adjacent depths, so its ends would get the same color, the parity
    of the depth, exactly when their depths are equal. Such an edge (v, w)
    closes an odd cycle: v and w walk up the tree in step until they meet
    at their lowest common ancestor, and the cycle is listed from v up to
    that ancestor and down the other arm to w (consecutive and wrap-around
    pairs are edges). A bipartite graph gets the depth parities as its
    coloring.
    """
    adj = _neighbors(g)
    depth: dict[str, int] = {}
    parent: dict[str, str] = {}
    for root in sorted(g.vertices):
        if root in depth:
            continue
        depth[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif depth[w] == depth[v]:
                    arm_v, arm_w = [v], [w]
                    while v != w:
                        v, w = parent[v], parent[w]
                        arm_v.append(v)
                        arm_w.append(w)
                    return OddCycleSearch(arm_v + arm_w[-2::-1], None)
    return OddCycleSearch(None, {v: d % 2 for v, d in depth.items()})
