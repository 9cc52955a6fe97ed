"""From-scratch graph algorithms used by GraLMatch's Graph Cleanup.

The paper's Algorithm 1 needs, per connected component:

- ``min_edge_cut`` — a *global* minimum edge cut (smallest edge set whose
  removal disconnects the graph). Computed as min over sinks t of the s–t
  max-flow with unit capacities (Menger's theorem), with a bridge fast-path.
- ``edge_betweenness`` — Brandes' algorithm [Brandes 2001], edge variant,
  O(nm) for unweighted graphs.

Both are pure-python on adjacency dicts: components are small (tens to a
few hundred nodes after the pre-cleanup), and the functions run *inside*
``applyInPandas`` workers, one component per task — the distribution axis is
the number of components, not the size of one.

Cross-checked against networkx in the test-suite.
"""
from __future__ import annotations

from collections import deque


class Graph:
    """Minimal undirected simple graph on hashable nodes."""

    def __init__(self, edges=()):
        self.adj: dict = {}
        for u, v in edges:
            self.add_edge(u, v)

    def add_node(self, u) -> None:
        self.adj.setdefault(u, set())

    def add_edge(self, u, v) -> None:
        if u == v:
            return
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)

    def remove_edge(self, u, v) -> None:
        self.adj[u].discard(v)
        self.adj[v].discard(u)

    def edges(self):
        for u, nbrs in self.adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def number_of_nodes(self) -> int:
        return len(self.adj)

    def subgraph(self, nodes) -> "Graph":
        ns = set(nodes)
        g = Graph()
        for u in ns:
            g.add_node(u)
            for v in self.adj.get(u, ()):
                if v in ns:
                    g.add_edge(u, v)
        return g

    def components(self) -> list:
        """List of node-sets of connected components."""
        seen, out = set(), []
        for start in self.adj:
            if start in seen:
                continue
            comp, q = {start}, deque([start])
            while q:
                u = q.popleft()
                for v in self.adj[u]:
                    if v not in comp:
                        comp.add(v)
                        q.append(v)
            seen |= comp
            out.append(comp)
        return out


def bridges(g: Graph) -> list:
    """All bridge edges via Tarjan's low-link (iterative DFS)."""
    disc, low, out = {}, {}, []
    timer = 0
    for root in g.adj:
        if root in disc:
            continue
        stack = [(root, None, iter(g.adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for v in it:
                if v not in disc:
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, u, iter(g.adj[v])))
                    advanced = True
                    break
                elif v != parent:
                    low[u] = min(low[u], disc[v])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] > disc[p]:
                        out.append((p, u) if p < u else (u, p))
    return out


def _max_flow_min_cut(g: Graph, s, t, bound: int | None = None) -> list | None:
    """Edmonds–Karp with unit capacities; returns the cut edge list.

    With ``bound`` set, gives up and returns None as soon as the flow value
    reaches ``bound`` — λ(s, t) >= bound, so this sink cannot improve on an
    already-known cut of that size. Each unit-capacity augmentation adds
    exactly 1 to the flow, so the bounded run does at most ``bound`` BFS
    passes. The min cut is recovered as the edges leaving the s-reachable
    side of the residual graph.
    """
    cap = {u: {v: 1 for v in nbrs} for u, nbrs in g.adj.items()}
    flow = 0
    while bound is None or flow < bound:
        # BFS for an augmenting path in the residual graph.
        parent = {s: None}
        q = deque([s])
        while q and t not in parent:
            u = q.popleft()
            for v, c in cap[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    q.append(v)
        if t not in parent:
            break
        flow += 1
        v = t
        while parent[v] is not None:
            u = parent[v]
            cap[u][v] -= 1
            cap[v][u] = cap[v].get(u, 0) + 1
            v = u
    else:
        return None  # flow reached the bound: no better cut via this sink
    # s-reachable side of the residual graph.
    side = {s}
    q = deque([s])
    while q:
        u = q.popleft()
        for v, c in cap[u].items():
            if c > 0 and v not in side:
                side.add(v)
                q.append(v)
    return [
        (u, v) if u < v else (v, u)
        for u in side
        for v in g.adj[u]
        if v not in side
    ]


def min_edge_cut(g: Graph) -> list:
    """Global minimum edge cut of a connected graph (unit capacities).

    Fast path: any bridge is a singleton cut. Otherwise the global cut is
    min over t != s of maxflow(s, t) for a fixed s (the side containing s
    in the optimal cut either contains or excludes each t; taking the min
    over all t covers both cases because s is on one side of any cut).
    """
    if g.number_of_nodes() < 2:
        return []
    br = bridges(g)
    if br:
        return [br[0]]
    # Initial upper bound: isolating the min-degree vertex is always a cut.
    v0 = min(g.adj, key=lambda u: len(g.adj[u]))
    best = [(v0, v) if v0 < v else (v, v0) for v in g.adj[v0]]
    best_size = len(best)
    if best_size <= 2:  # bridge-free graph: 2 is the global minimum
        return best
    s = max(g.adj, key=lambda u: len(g.adj[u]))
    for t in g.adj:
        if t == s:
            continue
        cut = _max_flow_min_cut(g, s, t, bound=best_size)
        if cut is not None and len(cut) < best_size:
            best, best_size = cut, len(cut)
            if best_size <= 2:
                break
    return best


def edge_betweenness(g: Graph) -> dict:
    """Brandes edge-betweenness centrality (unnormalized, undirected).

    Returns {(u, v) with u < v: centrality}. Each unordered pair (s, t)
    contributes its shortest-path fractions once (the directed double-count
    is halved at the end, as in networkx).
    """
    bc = {e: 0.0 for e in g.edges()}
    for s in g.adj:
        # Single-source shortest paths (BFS) with path counting.
        dist = {s: 0}
        sigma = {s: 1.0}
        preds: dict = {s: []}
        order = []
        q = deque([s])
        while q:
            u = q.popleft()
            order.append(u)
            for v in g.adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    sigma[v] = 0.0
                    preds[v] = []
                    q.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        # Dependency accumulation in reverse BFS order.
        delta = {u: 0.0 for u in order}
        for u in reversed(order):
            for p in preds[u]:
                c = sigma[p] / sigma[u] * (1.0 + delta[u])
                e = (p, u) if p < u else (u, p)
                bc[e] += c
                delta[p] += c
    return {e: c / 2.0 for e, c in bc.items()}
