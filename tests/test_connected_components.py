"""Tests for the DataFrame-API connected components."""
import networkx as nx
import numpy as np
import pandas as pd
import pytest

from repro.graph.connected_components import components_of_edges


def _edges_df(spark, edges):
    return spark.createDataFrame(
        pd.DataFrame(edges, columns=["src", "dst"]).astype("int64"))


def _labels(spark, edges):
    return {r["id"]: r["component"]
            for r in components_of_edges(_edges_df(spark, edges)).collect()}


class TestConnectedComponents:
    def test_single_edge(self, spark):
        assert _labels(spark, [(1, 2)]) == {1: 1, 2: 1}

    def test_two_components(self, spark):
        labels = _labels(spark, [(1, 2), (3, 4)])
        assert labels[1] == labels[2] == 1
        assert labels[3] == labels[4] == 3

    def test_chain_converges(self, spark):
        n = 30
        labels = _labels(spark, [(i, i + 1) for i in range(n - 1)])
        assert labels == {i: 0 for i in range(n)}

    def test_component_label_is_min_id(self, spark):
        labels = _labels(spark, [(9, 7), (7, 5)])
        assert set(labels.values()) == {5}

    def test_duplicate_and_reversed_edges(self, spark):
        assert _labels(spark, [(1, 2), (2, 1), (1, 2)]) == {1: 1, 2: 1}

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graph_matches_networkx(self, spark, seed):
        rng = np.random.default_rng(seed)
        n = 40
        edges = [(int(rng.integers(0, n)), int(rng.integers(0, n)))
                 for _ in range(50)]
        edges = [(u, v) for u, v in edges if u != v]
        labels = _labels(spark, edges)
        assert labels == {v: min(comp)
                          for comp in nx.connected_components(
                              nx.Graph(edges))
                          for v in comp}

    def test_components_of_edges_only_edge_vertices(self, spark):
        assert _labels(spark, [(3, 8)]) == {3: 3, 8: 3}
