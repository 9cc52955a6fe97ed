"""Connected components in the DataFrame API (no GraphFrames/GraphX).

Iterative minimum-label propagation: every vertex starts labeled with its
own id; each round, a vertex adopts the minimum label among itself and its
neighbors; convergence (no label change) is reached after O(diameter)
rounds. Components in entity-matching graphs are shallow (records chained
across a handful of sources), so the round count stays small.

``localCheckpoint`` truncates the join lineage each round — without it the
plan grows exponentially and Catalyst analysis dominates runtime.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

#: Round cap; a graph still changing after it raises instead of looping.
MAX_ROUNDS = 50


def materialize(df: DataFrame) -> DataFrame:
    """Eagerly checkpoint ``df`` and drop its inherited plan statistics.

    ``localCheckpoint`` truncates lineage but *preserves* the origin plan's
    Catalyst statistics. Join size estimates are multiplicative, so in an
    iterative join loop (connected components) the preserved sizeInBytes
    compounds — the self-join squares it every round — until Catalyst spends
    minutes multiplying million-digit BigIntegers during planning. Rebuilding
    the Dataset over the checkpointed RDD resets the estimate to the default.
    """
    cp = df.localCheckpoint(eager=True)
    return cp.sparkSession.createDataFrame(cp.rdd, cp.schema)


def connected_components(vertices: DataFrame, edges: DataFrame) -> DataFrame:
    """Label vertices with their connected component.

    Parameters
    ----------
    vertices : DataFrame with column ``id``.
    edges : DataFrame with columns ``src``, ``dst`` (undirected; either
        orientation, duplicates fine).
    Returns DataFrame ``(id, component)`` where ``component`` is the minimum
    vertex id of the component.
    """
    sym = (
        edges.select("src", "dst")
        .union(edges.select(F.col("dst").alias("src"), F.col("src").alias("dst")))
        .distinct()
    )
    labels = vertices.select("id", F.col("id").alias("component"))
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
            f"connected_components: no fixpoint in {MAX_ROUNDS} rounds")
    return labels


def components_of_edges(edges: DataFrame) -> DataFrame:
    """Components over exactly the vertices that appear in ``edges``."""
    verts = (
        edges.select(F.col("src").alias("id"))
        .union(edges.select(F.col("dst").alias("id")))
        .distinct()
    )
    return connected_components(verts, edges)
