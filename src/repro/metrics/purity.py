"""Cluster Purity Score (paper Section 5.3.3).

    ClPur = (1 / sum_i |V_i|) * sum_i |V_i| * c_TP,i / |E_i|

over the output record groups as complete subgraphs c_i = (V_i, E_i), where
|E_i| = C(|V_i|, 2) and c_TP,i = the number of true-positive pairs inside
group i (sum over ground-truth cells of C(n, 2)). Records the assignment
does not cover are singleton groups; a group with |E_i| = 0 contributes
purity 1 (no wrong pair can exist in it).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def cluster_purity(assignment: DataFrame, records: DataFrame) -> float:
    """Weighted average per-group pair purity over all records."""
    gt = records.select(F.col("record_id").alias("id"),
                        F.col("gt_group").alias("gt"))
    # Singleton-complete assignment: uncovered records form their own group,
    # keyed by a negative id so it cannot collide with min-record group ids.
    full = gt.join(assignment, "id", "left").select(
        "id", "gt", F.coalesce(F.col("group"), -F.col("id") - 1).alias("group")
    )
    sizes = full.groupBy("group").agg(F.count("*").alias("nv"))
    tp = (
        full.groupBy("group", "gt").agg(F.count("*").alias("n"))
        .groupBy("group")
        .agg(F.sum(F.col("n") * (F.col("n") - 1) / 2).alias("tp"))
    )
    per_group = sizes.join(tp, "group").select(
        "nv",
        F.when(F.col("nv") > 1,
               F.col("tp") / (F.col("nv") * (F.col("nv") - 1) / 2))
        .otherwise(F.lit(1.0))
        .alias("purity"),
    )
    row = per_group.agg(
        F.sum(F.col("nv") * F.col("purity")).alias("num"),
        F.sum("nv").alias("den"),
    ).first()
    return float(row["num"] / row["den"]) if row["den"] else 1.0
