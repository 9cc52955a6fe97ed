"""Connected components in the DataFrame API (no GraphFrames/GraphX).

Iterative minimum-label propagation: every vertex starts labeled with its
own id; each round, a vertex adopts the minimum label among itself and its
neighbors; convergence (no label change) is reached after O(diameter)
rounds. Components in entity-matching graphs are shallow (records chained
across a handful of sources), so the round count stays small.

Each round ``materialize``s its labels (``repro.checkpoint``): the
checkpoint truncates the join lineage — without it the plan grows
exponentially and Catalyst analysis dominates runtime — and the rebuild
resets the compounding size estimate. The rebuild stays in the JVM, so the
several scans of ``sym`` and ``labels`` per round read the checkpoint
directly instead of through Python workers. ``materialize`` is still
importable from here.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.checkpoint import materialize

#: Round cap; a graph still changing after it raises instead of looping.
MAX_ROUNDS = 50


def components_of_edges(edges: DataFrame) -> DataFrame:
    """Label the vertices of ``edges`` with their connected component.

    ``edges`` has columns ``src``, ``dst`` (undirected; either orientation,
    duplicates fine). Returns ``(id, component)`` for exactly the vertices
    that appear in ``edges``, where ``component`` is the minimum vertex id
    of the component.
    """
    verts = (
        edges.select(F.col("src").alias("id"))
        .union(edges.select(F.col("dst").alias("id")))
        .distinct()
    )
    sym = (
        edges.select("src", "dst")
        .union(edges.select(F.col("dst").alias("src"), F.col("src").alias("dst")))
        .distinct()
    )
    labels = verts.select("id", F.col("id").alias("component"))
    sym = materialize(sym)
    labels = materialize(labels)

    for _ in range(MAX_ROUNDS):
        # Minimum neighbor label per vertex.
        nbr_min = (
            sym.join(labels, sym.dst == labels.id, "inner")
            .groupBy("src")
            .agg(F.min("component").alias("nbr_component"))
        )
        new_labels = (
            labels.join(nbr_min, labels.id == nbr_min.src, "left")
            .select(
                "id",
                F.least(
                    F.col("component"),
                    F.coalesce(F.col("nbr_component"), F.col("component")),
                ).alias("component"),
            )
        )
        # Pointer jumping (path halving): follow the label's own label, so
        # chains converge in O(log diameter) rounds instead of O(diameter).
        lbl_of_lbl = new_labels.select(
            F.col("id").alias("component"),
            F.col("component").alias("component2"),
        )
        new_labels = (
            new_labels.join(lbl_of_lbl, "component", "left")
            .select(
                "id",
                F.least(
                    F.col("component"),
                    F.coalesce(F.col("component2"), F.col("component")),
                ).alias("component"),
            )
        )
        new_labels = materialize(new_labels)
        changed = (
            new_labels.alias("n")
            .join(labels.alias("o"), "id")
            .where(F.col("n.component") != F.col("o.component"))
            .limit(1)
            .count()
        )
        labels = new_labels
        if changed == 0:
            break
    else:
        raise RuntimeError(
            f"components_of_edges: no fixpoint in {MAX_ROUNDS} rounds")
    return labels

