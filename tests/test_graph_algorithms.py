"""Unit tests for the from-scratch graph algorithms, cross-checked against
networkx and hypothesis-generated random graphs."""
import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.algorithms import (Graph, bridges, edge_betweenness,
                                    min_edge_cut)


def _to_nx(g: Graph) -> nx.Graph:
    ng = nx.Graph()
    ng.add_nodes_from(g.adj)
    ng.add_edges_from(g.edges())
    return ng


def _random_connected(n: int, extra: int, seed: int) -> Graph:
    """Random connected graph: a random spanning tree plus extra edges."""
    rng = np.random.default_rng(seed)
    g = Graph()
    nodes = list(range(n))
    for i in range(1, n):
        g.add_edge(int(rng.integers(0, i)), i)
    for _ in range(extra):
        u, v = rng.integers(0, n, 2)
        g.add_edge(int(u), int(v))
    return g


class TestGraphBasics:
    def test_add_edge_symmetric(self):
        g = Graph([(1, 2)])
        assert 2 in g.adj[1] and 1 in g.adj[2]

    def test_self_loop_ignored(self):
        g = Graph([(1, 1)])
        assert list(g.edges()) == []

    def test_duplicate_edge(self):
        g = Graph([(1, 2), (2, 1), (1, 2)])
        assert list(g.edges()) == [(1, 2)]

    def test_remove_edge(self):
        g = Graph([(1, 2), (2, 3)])
        g.remove_edge(1, 2)
        assert list(g.edges()) == [(2, 3)]

    def test_edges_canonical(self):
        g = Graph([(5, 2), (9, 1)])
        assert set(g.edges()) == {(2, 5), (1, 9)}

    def test_subgraph(self):
        g = Graph([(1, 2), (2, 3), (3, 4)])
        s = g.subgraph({1, 2, 3})
        assert set(s.edges()) == {(1, 2), (2, 3)}
        assert s.number_of_nodes() == 3

    def test_components_two(self):
        g = Graph([(1, 2), (3, 4)])
        comps = sorted(map(sorted, g.components()))
        assert comps == [[1, 2], [3, 4]]

    def test_components_isolated_node(self):
        g = Graph([(1, 2)])
        g.add_node(99)
        assert sorted(map(len, g.components())) == [1, 2]

    @pytest.mark.parametrize("n,extra,seed", [(5, 2, 0), (10, 5, 1),
                                              (20, 15, 2), (30, 10, 3)])
    def test_components_match_networkx(self, n, extra, seed):
        g = _random_connected(n, extra, seed)
        ours = sorted(map(sorted, g.components()))
        theirs = sorted(sorted(c) for c in nx.connected_components(_to_nx(g)))
        assert ours == theirs


class TestBridges:
    def test_path_graph_all_bridges(self):
        g = Graph([(0, 1), (1, 2), (2, 3)])
        assert sorted(bridges(g)) == [(0, 1), (1, 2), (2, 3)]

    def test_cycle_no_bridges(self):
        g = Graph([(0, 1), (1, 2), (2, 0)])
        assert bridges(g) == []

    def test_barbell_bridge(self):
        g = Graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
        assert bridges(g) == [(2, 3)]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_networkx(self, seed):
        g = _random_connected(12, 6, seed)
        ours = set(bridges(g))
        theirs = {tuple(sorted(e)) for e in nx.bridges(_to_nx(g))}
        assert ours == theirs


class TestMinEdgeCut:
    def test_empty_graph(self):
        assert min_edge_cut(Graph()) == []

    def test_single_edge(self):
        assert min_edge_cut(Graph([(1, 2)])) == [(1, 2)]

    def test_bridge_fast_path(self):
        g = Graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
        assert min_edge_cut(g) == [(2, 3)]

    def test_cut_disconnects(self):
        g = _random_connected(15, 10, 7)
        cut = min_edge_cut(g)
        for u, v in cut:
            g.remove_edge(u, v)
        assert len(g.components()) > 1

    def test_two_cliques_one_link(self):
        """The Figure 4 scenario: one FP edge bridging two dense groups."""
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        edges += [(a, b) for a in range(10, 14) for b in range(a + 1, 14)]
        edges += [(3, 10)]
        assert min_edge_cut(Graph(edges)) == [(3, 10)]

    @pytest.mark.parametrize("n,extra,seed",
                             [(6, 4, s) for s in range(8)]
                             + [(10, 12, s) for s in range(8)]
                             + [(15, 25, s) for s in range(4)])
    def test_cut_size_matches_networkx(self, n, extra, seed):
        g = _random_connected(n, extra, seed)
        cut = min_edge_cut(g)
        assert len(cut) == nx.edge_connectivity(_to_nx(g))

    @given(st.integers(min_value=3, max_value=12),
           st.integers(min_value=0, max_value=20),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_cut_valid_and_minimal(self, n, extra, seed):
        g = _random_connected(n, extra, seed)
        ng = _to_nx(g)
        cut = min_edge_cut(g)
        assert len(cut) == nx.edge_connectivity(ng)
        ng.remove_edges_from(cut)
        assert not nx.is_connected(ng)


class TestEdgeBetweenness:
    def test_path_center_highest(self):
        g = Graph([(0, 1), (1, 2), (2, 3), (3, 4)])
        bc = edge_betweenness(g)
        assert max(bc, key=bc.get) in {(1, 2), (2, 3)}

    def test_bridge_edge_dominates(self):
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        edges += [(a, b) for a in range(10, 14) for b in range(a + 1, 14)]
        edges += [(3, 10)]
        bc = edge_betweenness(Graph(edges))
        assert max(bc, key=bc.get) == (3, 10)

    @pytest.mark.parametrize("n,extra,seed",
                             [(6, 3, s) for s in range(6)]
                             + [(12, 10, s) for s in range(6)])
    def test_matches_networkx(self, n, extra, seed):
        g = _random_connected(n, extra, seed)
        ours = edge_betweenness(g)
        theirs = nx.edge_betweenness_centrality(_to_nx(g), normalized=False)
        assert set(ours) == {tuple(sorted(e)) for e in theirs}
        for e, v in theirs.items():
            assert ours[tuple(sorted(e))] == pytest.approx(v, rel=1e-9)

    @given(st.integers(min_value=2, max_value=10),
           st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_matches_networkx(self, n, extra, seed):
        g = _random_connected(n, extra, seed)
        ours = edge_betweenness(g)
        theirs = nx.edge_betweenness_centrality(_to_nx(g), normalized=False)
        for e, v in theirs.items():
            assert ours[tuple(sorted(e))] == pytest.approx(v, rel=1e-9)
