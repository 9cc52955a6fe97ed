"""Pair-level precision/recall/F1 for the three pipeline stages.

Stage 1 (pairwise) scores the predicted pairs directly. Stages 2/3 (pre /
post Graph Cleanup) score the *transitive closure* of a group assignment —
all intra-group pairs. Closures are never materialized: both the predicted
pair count sum(C(n_g, 2)) and the true-positive count sum(C(n_{g,t}, 2))
come from contingency aggregations, so a giant pre-cleanup component costs
one groupBy, not |V|^2 rows.

Recall denominators use the full ground-truth pair count of the evaluated
records (paper Section 5.3.2: blocking losses show up as lower recall).

The aggregates of one score do not read each other, so they run
concurrently (``repro.parallel``).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.parallel import concurrently
from repro.record_pairs import canonical_pairs, with_endpoints


def _pairs():
    # Built lazily — a module-level Column would need an active SparkContext
    # at import time.
    return F.col("n") * (F.col("n") - 1) / 2


def gt_pair_count(records: DataFrame) -> int:
    """Total ground-truth matches: sum over groups of C(size, 2)."""
    return int(
        records.groupBy("gt_group")
        .agg(F.count("*").alias("n"))
        .agg(F.coalesce(F.sum(_pairs()), F.lit(0.0)))
        .first()[0]
    )


def prf(tp: int, predicted: int, actual: int) -> dict:
    """Precision, recall and F1 from a true-positive count and the counts
    of predicted and of actual matches; a ratio over a zero count is 0."""
    p = tp / predicted if predicted else 0.0
    r = tp / actual if actual else 0.0
    return {"precision": p, "recall": r,
            "f1": 0.0 if p + r == 0 else 2 * p * r / (p + r)}


def pairwise_scores(pred_pairs: DataFrame, records: DataFrame) -> dict:
    """P/R/F1 of predicted pairs against the ground truth grouping."""
    gt = records.select("record_id", F.col("gt_group").alias("gt"))
    joined = with_endpoints(canonical_pairs(pred_pairs), gt, "gt")
    counts, gt_total = concurrently(
        lambda: joined.agg(
            F.count("*").alias("total"),
            F.sum((F.col("gt_src") == F.col("gt_dst")).cast("long"))
            .alias("tp"),
        ).first(),
        lambda: gt_pair_count(records),
    )
    total, tp = counts["total"] or 0, counts["tp"] or 0
    return {**prf(tp, total, gt_total),
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

    def pair_count(*keys: str) -> int:
        return int(
            asg.groupBy(*keys).agg(F.count("*").alias("n"))
            .agg(F.coalesce(F.sum(_pairs()), F.lit(0.0))).first()[0]
        )

    pred_total, tp, gt_total = concurrently(
        lambda: pair_count("group"),
        lambda: pair_count("group", "gt"),
        lambda: gt_pair_count(records),
    )
    return {**prf(tp, pred_total, gt_total),
            "tp": tp, "predicted": pred_total, "gt_pairs": gt_total}
