"""GraLMatch Graph Cleanup (paper Algorithm 1) on Spark.

The cleanup operates independently per connected component of the
prediction graph, so it parallelizes over components: edges are labeled
with their component (DataFrame-API connected components), grouped by
component, and Algorithm 1 runs inside ``applyInPandas`` on each group.

Algorithm 1 (per component, thresholds γ >= μ):

    while largest sub-component > γ: remove a Minimum Edge Cut of it
    while largest sub-component > μ: remove its max-Betweenness edge

The *pre graph cleanup* of Section 4.2.1 (drop Token-Overlap-derived
predictions inside components larger than 50 records) is a plain DataFrame
filter implemented in :func:`pre_cleanup`. It sizes components with the
Stage 2 closure labels the pipeline has already computed, so it runs no
connected-components pass of its own.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.algorithms import Graph, edge_betweenness, min_edge_cut
from repro.graph.connected_components import components_of_edges

#: Component size above which Token-Overlap edges are dropped (Section 4.2.1).
PRE_CLEANUP_SIZE = 50


def cleanup_component(edges: list, gamma: int, mu: int) -> dict:
    """Run Algorithm 1 on one component's edge list.

    Returns ``{record: final_group}`` where the group id is the minimum
    record id of the final sub-component (stable and globally unique).
    """
    g = Graph(edges)

    def largest(min_size: int) -> set | None:
        comps = g.components()
        if not comps:
            return None
        c = max(comps, key=len)
        return c if len(c) > min_size else None

    # Phase 1: Minimum Edge Cut until every sub-component is <= gamma.
    while (c := largest(gamma)) is not None:
        cut = min_edge_cut(g.subgraph(c))
        if not cut:
            break
        for u, v in cut:
            g.remove_edge(u, v)

    # Phase 2: peel single max-betweenness edges until <= mu.
    while (c := largest(mu)) is not None:
        sub = g.subgraph(c)
        bc = edge_betweenness(sub)
        if not bc:
            break
        u, v = max(bc, key=bc.get)
        g.remove_edge(u, v)

    return {r: min(comp) for comp in g.components() for r in comp}


def pre_cleanup(edges: DataFrame, labels: DataFrame,
                gamma_pre: int = PRE_CLEANUP_SIZE) -> DataFrame:
    """Section 4.2.1: drop edges whose only provenance is the Token Overlap
    blocking when they lie inside a connected component larger than
    ``gamma_pre`` records.

    ``edges`` columns: ``src``, ``dst``, ``from_token_overlap`` (boolean).
    ``labels``: the Stage 2 closure ``(id, group)`` of exactly these edges,
    as ``run_group_matching`` computes it from the raw predictions.
    Returns the surviving edges with the same columns.
    """
    sizes = labels.groupBy("group").agg(F.count("*").alias("comp_size"))
    labeled = (
        edges.join(labels.withColumnRenamed("id", "src"), "src")
        .join(sizes, "group")
    )
    return labeled.where(
        ~(F.col("from_token_overlap") & (F.col("comp_size") > F.lit(gamma_pre)))
    ).select("src", "dst", "from_token_overlap")


def gralmatch(edges: DataFrame, gamma: int, mu: int) -> DataFrame:
    """Distributed GraLMatch Graph Cleanup.

    ``edges``: DataFrame with ``src``, ``dst`` (undirected predicted
    matches). Returns the final group assignment ``(id, group)`` for every
    record that appears in an edge. Records not present are implicit
    singleton groups (callers handle them with a left join).

    Setting ``gamma == mu`` yields the paper's -MEC variant (Minimum Edge
    Cut only); ``gamma`` larger than any component yields -BC (Betweenness
    only).
    """
    labels = components_of_edges(edges)
    labeled = edges.join(
        labels.withColumnRenamed("id", "src"), "src"
    ).select("src", "dst", "component")

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        edge_list = list(zip(pdf["src"].tolist(), pdf["dst"].tolist()))
        groups = cleanup_component(edge_list, gamma, mu)
        return pd.DataFrame(
            {"id": list(groups.keys()), "group": list(groups.values())}
        )

    return (
        labeled.repartition("component")
        .groupBy("component")
        .applyInPandas(run, schema="id long, group long")
    )
