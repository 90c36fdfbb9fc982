"""Undirected simple graphs with 1-based labels, elimination orderings,
chordality testing and connectivity bounds read off a perfect elimination
ordering.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class GraphError(Exception):
    pass


class NotAPeo(GraphError):
    pass


class InternalSeparationFailure(GraphError):
    """A neighborhood that must separate the graph failed to; indicates a bug."""


class InvalidParameters(GraphError):
    pass


class Graph:
    """Simple undirected graph on vertices 1..n. Loops are rejected;
    duplicate edge listings collapse."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        adj: list[set[int]] = [set() for _ in range(n + 1)]
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(f"edge ({u},{v}) out of range 1..{n}")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj = tuple(frozenset(s) for s in adj)
        self.edges = tuple(sorted((min(u, v), max(u, v))
                                  for u in range(1, n + 1) for v in adj[u] if u < v))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, itertools.combinations(range(1, n + 1), 2))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, ((i, i + 1) for i in range(1, n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise GraphError("a cycle needs at least three vertices")
        return cls(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        return len(components_after_removal(self, ())) == 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={len(self.edges)})"


class Ordering:
    """A permutation of 1..n; ``vertex_at(i)`` is the vertex in position i."""

    __slots__ = ("order", "_pos")

    def __init__(self, order: Sequence[int]):
        order = tuple(order)
        n = len(order)
        if sorted(order) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {order}")
        self.order = order
        self._pos = {v: i + 1 for i, v in enumerate(order)}

    @classmethod
    def identity(cls, n: int) -> "Ordering":
        return cls(range(1, n + 1))

    def vertex_at(self, position: int) -> int:
        if not 1 <= position <= len(self.order):
            raise ValueError(f"position {position} out of range")
        return self.order[position - 1]

    def position_of(self, vertex: int) -> int:
        try:
            return self._pos[vertex]
        except KeyError:
            raise ValueError(f"vertex {vertex} not in ordering") from None

    def __len__(self):
        return len(self.order)

    def __iter__(self) -> Iterator[int]:
        return iter(self.order)

    def __eq__(self, other):
        return isinstance(other, Ordering) and self.order == other.order

    def __hash__(self):
        return hash(self.order)

    def __repr__(self):
        return f"Ordering{self.order}"


def mcs_order(g: Graph) -> Ordering:
    """Maximum cardinality search ordering.

    Vertex n takes the last position; positions are then filled downward,
    each time choosing the unlabeled vertex with the most labeled
    neighbors, ties going to the lowest label. Runs in near-linear time
    via a lazy heap.
    """
    n = g.n
    order = [0] * n
    order[n - 1] = n
    labeled = [False] * (n + 1)
    labeled[n] = True
    weight = [0] * (n + 1)
    heap: list[tuple[int, int]] = [(0, v) for v in range(1, n)]
    heapq.heapify(heap)
    for u in g.neighbors(n):
        weight[u] = 1
        heapq.heappush(heap, (-1, u))
    for pos in range(n - 1, 0, -1):
        while True:
            w, v = heapq.heappop(heap)
            if not labeled[v] and -w == weight[v]:
                break
        order[pos - 1] = v
        labeled[v] = True
        for u in g.neighbors(v):
            if not labeled[u]:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], u))
    return Ordering(order)


def is_peo(g: Graph, order: Ordering) -> tuple[bool, tuple[int, int, int] | None]:
    """Test whether every vertex's later neighbors form a clique, on the
    later-neighbour lists of the ordering (``_peo_violation``). On failure
    returns (v, a, b) with a, b later neighbors of v and (a, b) not an edge.
    """
    bad = _peo_violation(g, order, _later_neighbors(g, order))
    return bad is None, bad


def _peo_violation(g: Graph, order: Ordering, later: Sequence[Sequence[int]]
                   ) -> tuple[int, int, int] | None:
    """``is_peo``'s witness from the later-neighbour lists of ``order``
    (``_later_neighbors``), or None when it is a PEO.

    Uses the standard reduction: it suffices that the later neighbors of v,
    other than the earliest one u, which heads its position-sorted list,
    are all adjacent to u. The witness is (v, min(u, w), max(u, w)) for the
    first position whose list fails, w its smallest later neighbour not
    adjacent to u.
    """
    for v, nbrs in zip(order, later):
        if len(nbrs) < 2:
            continue
        u = nbrs[0]
        u_adj = g.neighbors(u)
        missing = [w for w in nbrs if w != u and w not in u_adj]
        if missing:
            w = min(missing)
            return v, min(u, w), max(u, w)
    return None


@dataclass(frozen=True)
class ChordalityResult:
    chordal: bool
    peo: Ordering | None
    chordless_cycle: tuple[int, ...] | None

    def __bool__(self):
        return self.chordal


def is_chordal(g: Graph) -> ChordalityResult:
    """Chordality test: MCS from vertex n, then the elimination-order check.

    Returns the ordering as a certificate when chordal, and a concrete
    chordless cycle of length >= 4 when not.
    """
    order = mcs_order(g)
    ok, _ = is_peo(g, order)
    if ok:
        return ChordalityResult(True, order, None)
    cycle = find_chordless_cycle(g)
    if cycle is None:
        raise InternalSeparationFailure("ordering check failed but no chordless cycle found")
    return ChordalityResult(False, None, cycle)


def _bfs_path(g: Graph, src: int, dst: int, blocked: frozenset[int]) -> list[int] | None:
    parent = {src: 0}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        if x == dst:
            path = [dst]
            while path[-1] != src:
                path.append(parent[path[-1]])
            return path[::-1]
        for y in sorted(g.neighbors(x)):
            if y not in blocked and y not in parent:
                parent[y] = x
                queue.append(y)
    return None


def find_chordless_cycle(g: Graph) -> tuple[int, ...] | None:
    """Some chordless cycle of length >= 4, or None when the graph is chordal.

    For each vertex v with nonadjacent neighbors a, b, a shortest a-b path
    avoiding the rest of N[v] closes into a cycle whose only chords could
    shortcut the path, which shortestness rules out. The cycle (v, a, ...,
    b) starts at its smallest vertex, oriented toward the smaller neighbor:
    a smaller vertex u on it has nonadjacent cycle neighbours joined by the
    rest of the cycle, which avoids the rest of N[u], so the search would
    have returned at u; and the pairs are taken with a < b.
    """
    for v in range(1, g.n + 1):
        nbrs = sorted(g.neighbors(v))
        for a, b in itertools.combinations(nbrs, 2):
            if g.has_edge(a, b):
                continue
            blocked = frozenset(g.neighbors(v) | {v}) - {a, b}
            path = _bfs_path(g, a, b, blocked)
            if path is None:
                continue
            return (v, *path)
    return None


def higher_neighbors(g: Graph, order: Ordering, j: int) -> frozenset[int]:
    """Neighbors of the vertex in position j that occupy later positions."""
    if len(order) != g.n:
        raise GraphError("ordering length does not match the graph")
    v = order.vertex_at(j)
    pos = order.position_of
    return frozenset(u for u in g.neighbors(v) if pos(u) > j)


def _later_neighbors(g: Graph, order: Ordering) -> list[list[int]]:
    """For each position j, the later neighbours of the vertex there, in
    position order: entry j-1 holds ``higher_neighbors(g, order, j)``
    sorted by position; GraphError when the ordering's length is not n.
    These lists are the facts of an ordering that everything downstream
    reads: the PEO check (``_peo_violation``), connectivity, the cut and
    the Gale columns, so a caller builds them once and hands them on.
    """
    if len(order) != g.n:
        raise GraphError("ordering length does not match the graph")
    pos = order._pos.__getitem__
    return [sorted((u for u in g.neighbors(v) if pos(u) > j), key=pos)
            for j, v in enumerate(order, 1)]


def _checked_later(g: Graph, peo: Ordering) -> list[list[int]]:
    """The later-neighbour lists of ``peo`` (``_later_neighbors``); raises
    NotAPeo when the ordering fails the elimination-order check."""
    later = _later_neighbors(g, peo)
    if _peo_violation(g, peo, later) is not None:
        raise NotAPeo("ordering is not a perfect elimination ordering")
    return later


def chordal_connectivity(g: Graph, peo: Ordering) -> int:
    """Vertex connectivity of a chordal graph, read off a PEO.

    The graph is k-connected exactly when every position j <= n-k has at
    least k later neighbors; the largest such k (capped at n-1) is returned.
    Raises NotAPeo when the ordering fails the elimination-order check.
    """
    return _connectivity(_checked_later(g, peo))


def _connectivity(later: Sequence[Sequence[int]]) -> int:
    """``chordal_connectivity`` from the later-neighbour lists of a PEO, in
    one pass. Position j has h_j <= n-j later neighbours. When h_j = n-j,
    h_j >= k holds at every j <= n-k, so j bounds no k; when h_j < n-j,
    k = h_j + 1 <= n-j fails at j. So the answer is the least h_j over the
    positions whose list is shorter than n-j, each below n-1, or n-1 when
    there are none."""
    n = len(later)
    return min((len(nbrs) for j, nbrs in enumerate(later, 1) if len(nbrs) < n - j),
               default=n - 1)


def components_after_removal(g: Graph, removed: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Connected components of G minus the given vertices.

    Components are sorted vertex tuples, listed by smallest contained label.
    """
    gone = set(removed)
    for v in gone:
        if not 1 <= v <= g.n:
            raise GraphError(f"vertex {v} out of range 1..{g.n}")
    seen = set(gone)
    comps = []
    for v in range(1, g.n + 1):
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        queue = deque([v])
        while queue:
            x = queue.popleft()
            for y in g.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    queue.append(y)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def vertex_cut_of_size_at_most(g: Graph, peo: Ordering, r: int) -> frozenset[int] | None:
    """A separating set of at most r vertices found through the PEO.

    Scans positions j = 1..n-r-1 for a vertex with at most r later
    neighbors; that neighborhood is verified to disconnect the graph and
    returned. Returns None when no position qualifies (connectivity >= r+1,
    or the graph is too small or complete to have such a cut).
    """
    later = _checked_later(g, peo)
    if r < 0:
        raise InvalidParameters("cut size bound must be nonnegative")
    found = _small_cut(g, later, r)
    return None if found is None else found[0]


def _small_cut(g: Graph, later: Sequence[Sequence[int]], r: int
               ) -> tuple[frozenset[int], tuple[tuple[int, ...], ...]] | None:
    """``vertex_cut_of_size_at_most`` from the later-neighbour lists of a
    PEO, with the components that the check found it to leave
    (``components_after_removal``), so a caller need not search again."""
    for j in range(1, g.n - r):
        cut = frozenset(later[j - 1])
        if len(cut) <= r:
            comps = components_after_removal(g, cut)
            if len(comps) < 2:
                raise InternalSeparationFailure(
                    f"neighborhood {sorted(cut)} of position {j} does not separate")
            return cut, comps
    return None


def gen_ktree(n: int, k: int, seed: int) -> Graph:
    """Seeded random k-tree on n vertices, labeled in construction order.

    Starts from the complete graph on 1..k; each later vertex is joined to
    a uniformly chosen k-clique of the graph built so far. The reverse of
    the construction order is a perfect elimination ordering.
    """
    if k < 1 or n < k:
        raise InvalidParameters(f"need n >= k >= 1, got n={n}, k={k}")
    rng = random.Random(seed)
    edges = list(itertools.combinations(range(1, k + 1), 2))
    cliques = [tuple(range(1, k + 1))]
    for v in range(k + 1, n + 1):
        base = cliques[rng.randrange(len(cliques))]
        edges.extend((u, v) for u in base)
        for drop in range(k):
            sub = base[:drop] + base[drop + 1:]
            cliques.append(tuple(sorted(sub + (v,))))
    return Graph(n, edges)

