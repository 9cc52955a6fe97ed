"""Tests for GraLMatch Graph Cleanup (Algorithm 1) — driver-side and Spark."""
import networkx as nx
import pandas as pd
import pytest

from repro.core.gralmatch import cleanup_component, gralmatch, pre_cleanup
from repro.graph.algorithms import Graph
from repro.graph.connected_components import components_of_edges


def _clique(nodes):
    nodes = list(nodes)
    return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]


class TestCleanupComponent:
    def test_small_component_untouched(self):
        edges = _clique(range(4))
        groups = cleanup_component(edges, gamma=25, mu=5)
        assert set(groups.values()) == {0}

    def test_figure4_bridge_removed(self):
        """Two 4-cliques joined by one FP edge split back into two groups."""
        edges = _clique(range(4)) + _clique(range(10, 14)) + [(3, 10)]
        groups = cleanup_component(edges, gamma=25, mu=5)
        assert groups[0] == groups[3] == 0
        assert groups[10] == groups[13] == 10
        assert groups[0] != groups[10]

    def test_mu_bounds_group_sizes(self):
        edges = _clique(range(8))  # one 8-clique, mu=5
        groups = cleanup_component(edges, gamma=25, mu=5)
        sizes = pd.Series(list(groups.values())).value_counts()
        assert sizes.max() <= 5

    def test_gamma_phase_splits_large_chain_of_cliques(self):
        edges = []
        for base in (0, 10, 20, 30):
            edges += _clique(range(base, base + 8))
        edges += [(7, 10), (17, 20), (27, 30)]  # weak links
        groups = cleanup_component(edges, gamma=10, mu=8)
        sizes = pd.Series(list(groups.values())).value_counts()
        assert sizes.max() <= 8
        # cliques stay intact
        for base in (0, 10, 20, 30):
            assert len({groups[v] for v in range(base, base + 8)}) == 1

    def test_mec_only_variant(self):
        edges = _clique(range(4)) + _clique(range(10, 14)) + [(3, 10)]
        groups = cleanup_component(edges, gamma=5, mu=5)
        assert groups[0] != groups[10]

    def test_bc_only_variant(self):
        edges = _clique(range(4)) + _clique(range(10, 14)) + [(3, 10)]
        groups = cleanup_component(edges, gamma=10**9, mu=5)
        assert groups[0] != groups[10]

    def test_every_node_assigned(self):
        edges = _clique(range(12))
        groups = cleanup_component(edges, gamma=6, mu=4)
        assert set(groups) == set(range(12))

    def test_group_id_is_min_member(self):
        groups = cleanup_component([(5, 9), (9, 7)], gamma=25, mu=5)
        assert set(groups.values()) == {5}


class TestGralmatchSpark:
    def _run(self, spark, edges, gamma, mu):
        df = spark.createDataFrame(
            pd.DataFrame(edges, columns=["src", "dst"]).astype("int64"))
        out = gralmatch(df, gamma, mu)
        return {r["id"]: r["group"] for r in out.collect()}

    def test_matches_driver_side(self, spark):
        edges = _clique(range(4)) + _clique(range(10, 14)) + [(3, 10)]
        got = self._run(spark, edges, 25, 5)
        assert got == cleanup_component(edges, 25, 5)

    def test_independent_components_cleaned_in_parallel(self, spark):
        edges = (_clique(range(8))
                 + _clique(range(100, 108))
                 + _clique(range(200, 203)))
        got = self._run(spark, edges, 25, 5)
        sizes = pd.Series(list(got.values())).value_counts()
        assert sizes.max() <= 5
        assert got[200] == got[201] == got[202]

    def test_small_components_pass_through(self, spark):
        edges = [(1, 2), (2, 3), (10, 11)]
        got = self._run(spark, edges, 25, 5)
        assert got[1] == got[2] == got[3]
        assert got[10] == got[11]
        assert got[1] != got[10]


class TestPreCleanup:
    def _df(self, spark, rows):
        return spark.createDataFrame(pd.DataFrame(
            rows, columns=["src", "dst", "from_token_overlap"]))

    def _run(self, spark, rows, gamma_pre):
        """pre_cleanup with the Stage 2 labels of the same edges."""
        edges = self._df(spark, rows)
        labels = components_of_edges(edges).withColumnRenamed(
            "component", "group")
        return pre_cleanup(edges, labels, gamma_pre=gamma_pre)

    def test_token_edges_dropped_in_big_component(self, spark):
        # 60-node chain (component > 50) with one token-overlap edge.
        rows = [(i, i + 1, False) for i in range(60)]
        rows[30] = (30, 31, True)
        out = self._run(spark, rows, gamma_pre=50)
        kept = {(r["src"], r["dst"]) for r in out.collect()}
        assert (30, 31) not in kept
        assert len(kept) == 59  # the other 59 chain edges survive

    def test_token_edges_kept_in_small_component(self, spark):
        rows = [(1, 2, True), (2, 3, False)]
        out = self._run(spark, rows, gamma_pre=50)
        assert out.count() == 2

    def test_id_edges_never_dropped(self, spark):
        rows = [(i, i + 1, False) for i in range(80)]
        out = self._run(spark, rows, gamma_pre=50)
        assert out.count() == 80

    def test_threshold_boundary(self, spark):
        # component of exactly gamma_pre records is NOT cleaned.
        rows = [(i, i + 1, True) for i in range(9)]  # 10 nodes
        out = self._run(spark, rows, gamma_pre=10)
        assert out.count() == 9

    def test_networkx_oracle_mixed_components(self, spark):
        """Components above, at and below ``gamma_pre`` in one call, each
        with token-overlap and ID edges, against networkx component sizes."""
        gamma_pre = 12
        rows = []
        for base, size in ((0, 20), (100, gamma_pre), (200, 5)):
            rows += [(base + i, base + i + 1, i % 3 == 0)
                     for i in range(size - 1)]
            rows += [(base, base + size - 1, True),  # closes a ring
                     (base + 1, base + size - 2, False)]
        g = nx.Graph((u, v) for u, v, _ in rows)
        size_of = {n: len(c) for c in nx.connected_components(g) for n in c}
        expected = {(u, v) for u, v, tok in rows
                    if not (tok and size_of[u] > gamma_pre)}
        out = self._run(spark, rows, gamma_pre=gamma_pre)
        got = [(r["src"], r["dst"]) for r in out.collect()]
        assert len(got) == len(set(got))
        assert set(got) == expected
        # Only the 20-record component lost edges.
        assert {(u, v) for u, v, _ in rows} - expected == {
            (u, v) for u, v, tok in rows if tok and u < 100}
