"""Tests for GraLMatch Graph Cleanup (Algorithm 1) — driver-side and Spark."""
import ast
import random
from pathlib import Path

import networkx as nx
import pandas as pd

import repro.core.gralmatch as gralmatch_mod
import repro.core.pipeline as pipeline_mod
from repro.core.gralmatch import PRE_CLEANUP_SIZE, cleanup_component, gralmatch

#: Above every component size in these tests: Algorithm 1 cuts nothing.
NO_CUT = 10**6


def _clique(nodes):
    nodes = list(nodes)
    return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]


def _shuffled(edges, rng):
    """``edges`` in a random order, each pair in a random orientation."""
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(out)
    return out


def _tied_graph(seed):
    """Components full of ties: a 30-cycle, a 6x6 grid and a ring of five
    4-cliques, on node ids drawn at random so ties are broken by ids in no
    particular layout."""
    g = nx.disjoint_union_all([
        nx.cycle_graph(30), nx.grid_2d_graph(6, 6),
        nx.ring_of_cliques(5, 4)])
    ids = random.Random(seed).sample(range(10_000), g.number_of_nodes())
    return [(ids[u], ids[v]) for u, v in g.edges()]


def _groups_by_piece(edges, gamma, mu):
    """``cleanup_component`` run on each connected piece of ``edges`` on
    its own."""
    out = {}
    for piece in nx.connected_components(nx.Graph(edges)):
        out.update(cleanup_component(
            [(u, v) for u, v in edges if u in piece], gamma, mu))
    return out


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
    """The Section 4.2.1 pre-cleanup inside ``gralmatch``. With γ and μ
    above every component size Algorithm 1 cuts nothing, so the groups are
    the components of the edges the pre-cleanup keeps."""

    def _run(self, spark, rows, gamma=NO_CUT, mu=NO_CUT):
        edges = spark.createDataFrame(pd.DataFrame(
            rows, columns=["src", "dst", "from_token_overlap"]))
        out = gralmatch(edges, gamma, mu, apply_pre_cleanup=True)
        return {r["id"]: r["group"] for r in out.collect()}

    def test_token_edges_dropped_in_big_component(self, spark):
        # 61-node chain (component > 50) with one token-overlap edge.
        rows = [(i, i + 1, False) for i in range(60)]
        rows[30] = (30, 31, True)
        got = self._run(spark, rows)
        assert got == {i: 0 if i <= 30 else 31 for i in range(61)}

    def test_token_edges_kept_in_small_component(self, spark):
        rows = [(1, 2, True), (2, 3, False)]
        assert self._run(spark, rows) == {1: 1, 2: 1, 3: 1}

    def test_id_edges_never_dropped(self, spark):
        rows = [(i, i + 1, False) for i in range(80)]
        got = self._run(spark, rows)
        assert got == {i: 0 for i in range(81)}

    def test_threshold_boundary(self, spark):
        # A component of exactly PRE_CLEANUP_SIZE records is NOT cleaned.
        n = PRE_CLEANUP_SIZE
        rows = [(i, i + 1, True) for i in range(n - 1)]
        assert self._run(spark, rows) == {i: 0 for i in range(n)}
        # One record more: every edge goes, every record is an implicit
        # singleton.
        rows.append((n - 1, n, True))
        assert self._run(spark, rows) == {}

    def test_networkx_oracle_mixed_components(self, spark):
        """Components above, at and below ``PRE_CLEANUP_SIZE`` in one call,
        each with token-overlap and ID edges, against networkx
        components."""
        rows = []
        for base, size in ((0, 60), (100, PRE_CLEANUP_SIZE), (200, 5)):
            rows += [(base + i, base + i + 1, i % 3 == 0)
                     for i in range(size - 1)]
            rows += [(base, base + size - 1, True),  # closes a ring
                     (base + 1, base + size - 2, False)]
        g = nx.Graph((u, v) for u, v, _ in rows)
        size_of = {n: len(c) for c in nx.connected_components(g) for n in c}
        kept = [(u, v) for u, v, tok in rows
                if not (tok and size_of[u] > PRE_CLEANUP_SIZE)]
        got = self._run(spark, rows)
        assert got == {n: min(c) for c in nx.connected_components(
            nx.Graph(kept)) for n in c}
        # Only the 60-record component lost edges, and it fell apart.
        assert {(u, v) for u, v, _ in rows} - set(kept) == {
            (u, v) for u, v, tok in rows if tok and u < 100}
        assert len({got[n] for n in range(60) if n in got}) > 1

    def test_split_component_cleaned_piece_by_piece(self, spark):
        """A component the token edges split into pieces gets the groups
        Algorithm 1 gives each piece on its own."""
        rng = random.Random(3)
        pieces = [_clique(range(0, 9)), _clique(range(20, 26)),
                  [(u + 40, v + 40) for u, v in
                   nx.ring_of_cliques(4, 4).edges()],
                  [(40 + i, 41 + i) for i in range(20, 40)]]
        id_edges = [e for p in pieces for e in p]
        token = [(8, 20), (25, 40), (3, 55), (79, 0)]
        rows = ([(u, v, False) for u, v in _shuffled(id_edges, rng)]
                + [(u, v, True) for u, v in token])
        assert nx.is_connected(nx.Graph(id_edges + token))
        got = self._run(spark, rows, gamma=8, mu=4)
        assert got == _groups_by_piece(id_edges, 8, 4)
        assert len(set(got.values())) > len(pieces)  # Algorithm 1 did cut


class TestDeterminism:
    """The groups depend only on the set of undirected edges. Algorithm 1
    breaks ties between equal betweenness, bridges and cuts by the order it
    reads the edges in, so it must read them in one canonical order."""

    @staticmethod
    def _random_connected(rng):
        n = rng.randint(12, 40)
        nodes = rng.sample(range(1000), n)
        edges = {(nodes[i], nodes[rng.randrange(i)]) for i in range(1, n)}
        for _ in range(rng.randint(0, n)):
            u, v = rng.sample(nodes, 2)
            edges.add((u, v))
        return list(edges)

    def test_edge_order_and_orientation_do_not_matter(self):
        rng = random.Random(20250325)
        for trial in range(1500):
            edges = self._random_connected(rng)
            assert (cleanup_component(_shuffled(edges, rng), 8, 4)
                    == cleanup_component(edges, 8, 4)), trial

    def test_spark_independent_of_shuffle_partitions(self, spark):
        edges = _tied_graph(seed=1)
        expected = _groups_by_piece(edges, 8, 4)
        assert len(set(expected.values())) > 3  # the ties were cut
        old = spark.conf.get("spark.sql.shuffle.partitions")
        try:
            for i, n in enumerate((1, 7, 64)):
                spark.conf.set("spark.sql.shuffle.partitions", n)
                df = spark.createDataFrame(pd.DataFrame(
                    _shuffled(edges, random.Random(i)),
                    columns=["src", "dst"]))
                got = {r["id"]: r["group"]
                       for r in gralmatch(df, 8, 4).collect()}
                assert got == expected, n
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", old)


class TestBenchmarkHooks:
    """``perfbench/tracing.replay_alg1`` reruns Algorithm 1 on the driver
    through ``repro.core.gralmatch``'s ``cleanup_component`` and ``Graph``
    names; a rename there breaks the benchmark's ``--trace 1``."""

    def test_replay_matches_spark(self, spark, monkeypatch):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parent.parent / "perfbench"))
        import tracing

        edges = pd.DataFrame(_shuffled(_tied_graph(seed=2),
                                       random.Random(0)),
                             columns=["src", "dst"])
        assignment = gralmatch(spark.createDataFrame(edges), 8, 4).toPandas()
        gt = {n: n % 7 for n in pd.unique(edges.values.ravel())}
        m = tracing.replay_alg1(edges, assignment, gt, 8, 4)
        assert m["alg1.replay_mismatch"] == 0
        assert m["alg1.edges_removed"] > 0

    def test_tracing_names_resolve(self, monkeypatch):
        """Every ``P.<name>`` and ``gralmatch_mod.<name>`` that
        ``perfbench/tracing.py`` reads exists on ``repro.core.pipeline`` /
        ``repro.core.gralmatch``, and ``perfbench/workloads`` imports."""
        bench = Path(__file__).resolve().parent.parent / "perfbench"
        monkeypatch.syspath_prepend(str(bench))
        import workloads  # noqa: F401

        modules = {"P": pipeline_mod, "gralmatch_mod": gralmatch_mod}
        tree = ast.parse((bench / "tracing.py").read_text())
        used = {(node.value.id, node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules}
        assert {alias for alias, _ in used} == set(modules)
        missing = [f"{alias}.{name}" for alias, name in sorted(used)
                   if not hasattr(modules[alias], name)]
        assert missing == []
