"""GraLMatch Graph Cleanup (paper Algorithm 1) on Spark.

The cleanup operates independently per connected component of the
prediction graph, so it parallelizes over components: edges are labeled
with their component (DataFrame-API connected components), grouped by
component, and one ``applyInPandas`` task per component runs the whole of
Stage 3 on it.

The *pre graph cleanup* of Section 4.2.1 (drop Token-Overlap-derived
predictions inside components larger than 50 records) is a rule on those
same components, so it runs in the same task, before Algorithm 1:

    if component > PRE_CLEANUP_SIZE: drop its Token-Overlap edges
    while largest sub-component > γ: remove a Minimum Edge Cut of it
    while largest sub-component > μ: remove its max-Betweenness edge

Dropping edges only splits a component, and Algorithm 1 never reads one
piece while cutting another. Algorithm 1 reads its edges in sorted order,
so the groups depend only on the edge set, not on the order rows arrive in
after a shuffle, and a piece is cut the same way whether it runs alone or
next to the other pieces of its component.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame

from repro.graph.algorithms import Graph, edge_betweenness, min_edge_cut
from repro.graph.connected_components import components_of_edges

#: Component size above which Token-Overlap edges are dropped (Section 4.2.1).
PRE_CLEANUP_SIZE = 50


def cleanup_component(edges: list, gamma: int, mu: int) -> dict:
    """Run Algorithm 1 on one component's edge list.

    Returns ``{record: final_group}`` where the group id is the minimum
    record id of the final sub-component (stable and globally unique).
    The result depends only on the set of undirected edges: the graph is
    built from them in sorted order, which fixes every tie-break.
    """
    g = Graph(sorted({(min(u, v), max(u, v)) for u, v in edges}))

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


def gralmatch(edges: DataFrame, gamma: int, mu: int,
              apply_pre_cleanup: bool = False) -> DataFrame:
    """Distributed GraLMatch Graph Cleanup: Stage 3 of the pipeline.

    ``edges``: DataFrame with ``src``, ``dst`` (undirected predicted
    matches), plus ``from_token_overlap`` (boolean) for the pre-cleanup.
    Returns the final group assignment ``(id, group)`` for every record
    that keeps an edge. Records not present are implicit singleton groups
    (callers handle them with a left join).

    ``apply_pre_cleanup`` first drops the Token-Overlap edges of every
    component of more than ``PRE_CLEANUP_SIZE`` records (Section 4.2.1).

    Setting ``gamma == mu`` yields the paper's -MEC variant (Minimum Edge
    Cut only); ``gamma`` larger than any component yields -BC (Betweenness
    only).
    """
    cols = ["src", "dst"] + (["from_token_overlap"] if apply_pre_cleanup
                             else [])
    labels = components_of_edges(edges)
    labeled = edges.join(
        labels.withColumnRenamed("id", "src"), "src"
    ).select(*cols, "component")

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        if (apply_pre_cleanup and len(set(pdf["src"]) | set(pdf["dst"]))
                > PRE_CLEANUP_SIZE):
            pdf = pdf[~pdf["from_token_overlap"]]
        edge_list = list(zip(pdf["src"].tolist(), pdf["dst"].tolist()))
        groups = cleanup_component(edge_list, gamma, mu)
        return pd.DataFrame(
            {"id": list(groups.keys()), "group": list(groups.values())}
        )

    return labeled.groupBy("component").applyInPandas(
        run, schema="id long, group long")
