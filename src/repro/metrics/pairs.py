"""Pair-level precision/recall/F1 for the three pipeline stages.

Stage 1 (pairwise) scores the predicted pairs directly. Stages 2/3 (pre /
post Graph Cleanup) score the *transitive closure* of a group assignment —
all intra-group pairs. Closures are never materialized: both the predicted
pair count sum(C(n_g, 2)) and the true-positive count sum(C(n_{g,t}, 2))
come from contingency aggregations, so a giant pre-cleanup component costs
one groupBy, not |V|^2 rows.

Recall denominators use the full ground-truth pair count of the evaluated
records (paper Section 5.3.2: blocking losses show up as lower recall).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

def _pairs():
    # Built lazily — a module-level Column would need an active SparkContext
    # at import time.
    return F.col("n") * (F.col("n") - 1) / 2


def canonical_pairs(pairs: DataFrame, a: str = "src", b: str = "dst") -> DataFrame:
    """Undirected dedup: order endpoints, drop self-pairs and duplicates."""
    return (
        pairs.select(
            F.least(F.col(a), F.col(b)).alias("src"),
            F.greatest(F.col(a), F.col(b)).alias("dst"),
        )
        .where(F.col("src") != F.col("dst"))
        .distinct()
    )


def gt_pair_count(records: DataFrame) -> int:
    """Total ground-truth matches: sum over groups of C(size, 2)."""
    return int(
        records.groupBy("gt_group")
        .agg(F.count("*").alias("n"))
        .agg(F.coalesce(F.sum(_pairs()), F.lit(0.0)))
        .first()[0]
    )


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def pairwise_scores(pred_pairs: DataFrame, records: DataFrame) -> dict:
    """P/R/F1 of predicted pairs against the ground truth grouping."""
    gt = records.select(F.col("record_id"), F.col("gt_group").alias("gt"))
    pairs = canonical_pairs(pred_pairs)
    joined = (
        pairs.join(gt.withColumnRenamed("record_id", "src")
                     .withColumnRenamed("gt", "gt_src"), "src")
        .join(gt.withColumnRenamed("record_id", "dst")
                .withColumnRenamed("gt", "gt_dst"), "dst")
    )
    counts = joined.agg(
        F.count("*").alias("total"),
        F.sum((F.col("gt_src") == F.col("gt_dst")).cast("long")).alias("tp"),
    ).first()
    total, tp = counts["total"] or 0, counts["tp"] or 0
    gt_total = gt_pair_count(records)
    p = tp / total if total else 0.0
    r = tp / gt_total if gt_total else 0.0
    return {"precision": p, "recall": r, "f1": _f1(p, r),
            "tp": int(tp), "predicted": int(total), "gt_pairs": gt_total}


def closure_scores(assignment: DataFrame, records: DataFrame) -> dict:
    """P/R/F1 of the complete-subgraph closure of a group assignment.

    ``assignment``: (id, group) for records that belong to a multi-record
    group; records absent from it count as singletons (no predicted pairs,
    but their ground-truth pairs stay in the recall denominator).
    """
    gt = records.select(F.col("record_id").alias("id"),
                        F.col("gt_group").alias("gt"))
    asg = assignment.join(gt, "id")
    pred_total = int(
        asg.groupBy("group").agg(F.count("*").alias("n"))
        .agg(F.coalesce(F.sum(_pairs()), F.lit(0.0))).first()[0]
    )
    tp = int(
        asg.groupBy("group", "gt").agg(F.count("*").alias("n"))
        .agg(F.coalesce(F.sum(_pairs()), F.lit(0.0))).first()[0]
    )
    gt_total = gt_pair_count(records)
    p = tp / pred_total if pred_total else 0.0
    r = tp / gt_total if gt_total else 0.0
    return {"precision": p, "recall": r, "f1": _f1(p, r),
            "tp": tp, "predicted": pred_total, "gt_pairs": gt_total}
