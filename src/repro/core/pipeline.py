"""End-to-end entity group matching (paper Figure 1 / Section 5.3).

    blocking → pairwise prediction (LM surrogate) → connected components
    (Stage 2: Pre Graph Cleanup closure) → per component, pre-cleanup +
    Algorithm 1 (Stage 3: Post Graph Cleanup) → entity groups

``run_group_matching`` returns the three stage scores (pairwise / pre / post
P, R, F1 + Cluster Purity for the group stages) plus the final assignment,
which feeds the securities pipeline's Issuer Match blocking.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.blocking.id_overlap import id_overlap_companies, id_overlap_securities
from repro.blocking.issuer_match import issuer_match
from repro.blocking.token_overlap import token_overlap
from repro.checkpoint import materialize
from repro.core.gralmatch import gralmatch
from repro.graph.connected_components import components_of_edges
from repro.matching.model import TrainedModel, serialized_records
from repro.metrics.pairs import closure_scores, pairwise_scores
from repro.metrics.purity import cluster_purity
from repro.parallel import concurrently


@dataclass
class StageScores:
    """Scores of one pipeline run (Table 4 row).

    ``inference_seconds`` (scoring) is the wall time of a branch that runs
    concurrently with the candidate count, so it includes time shared with
    that work.
    """

    pairwise: dict
    pre_cleanup: dict
    post_cleanup: dict
    n_candidates: int
    inference_seconds: float
    assignment: DataFrame  # final (id, group) incl. implicit singletons
    pred_edges: DataFrame  # Stage 3 input: the raw positive predictions


def candidate_pairs(kind: str, records: DataFrame,
                    securities: DataFrame | None = None,
                    company_groups: DataFrame | None = None) -> DataFrame:
    """Table 2 blocking combinations → (src, dst, from_token_overlap).

    ``from_token_overlap`` marks pairs found *only* by the Token Overlap
    blocking (the pre-cleanup of Section 4.2.1 removes exactly those).
    """
    if kind == "companies":
        ids = id_overlap_companies(records, securities).withColumn(
            "by_id", F.lit(True))
        toks = token_overlap(records).withColumn(
            "by_tok", F.lit(True))
        both = ids.join(toks, ["src", "dst"], "full").select(
            "src", "dst",
            (F.coalesce(F.col("by_tok"), F.lit(False))
             & ~F.coalesce(F.col("by_id"), F.lit(False))
             ).alias("from_token_overlap"),
        )
        return both
    if kind == "securities":
        ids = id_overlap_securities(records)
        iss = issuer_match(records, company_groups)
        return ids.union(iss).distinct().withColumn(
            "from_token_overlap", F.lit(False))
    if kind == "products":
        return token_overlap(
            records, text_cols=("name", "brand")
        ).withColumn("from_token_overlap", F.lit(True))
    raise ValueError(f"unknown dataset kind: {kind}")


def full_assignment(records: DataFrame, assignment: DataFrame) -> DataFrame:
    """Extend an (id, group) assignment to every record (singletons keep a
    unique group keyed by their own record id)."""
    base = records.select(F.col("record_id").alias("id"))
    return base.join(assignment, "id", "left").select(
        "id", F.coalesce(F.col("group"), F.col("id")).alias("group")
    )


def run_group_matching(records: DataFrame, kind: str, model: TrainedModel,
                       gamma: int, mu: int,
                       securities: DataFrame | None = None,
                       company_groups: DataFrame | None = None,
                       apply_pre_cleanup: bool = True) -> StageScores:
    """Run the full pipeline on ``records`` and score all three stages.

    ``apply_pre_cleanup`` turns on the Section 4.2.1 pre-cleanup, applied
    inside Stage 3 (``gralmatch``), per component. It drops only edges
    found by Token Overlap alone, so it drops nothing on securities, whose
    blockings are ID Overlap and Issuer Match.

    Branches that do not read each other's output run concurrently
    (``repro.parallel``): the candidate count alongside scoring, then the
    pairwise scores, Stage 2 and Stage 3 once the predictions exist. Stage 2
    and Stage 3 each label the components of the predictions themselves,
    so neither waits for the other.
    """
    cands = materialize(candidate_pairs(kind, records, securities,
                                        company_groups))

    def predict() -> tuple[DataFrame, float]:
        t0 = time.perf_counter()
        ser = serialized_records(records, kind, model.spec)
        scored = model.predict(cands, ser)
        pred = materialize(scored.where(F.col("prediction") == 1.0).select(
            "src", "dst", "from_token_overlap"))
        return pred, time.perf_counter() - t0

    n_candidates, (pred, inference_seconds) = concurrently(cands.count,
                                                           predict)

    def stage2() -> dict:
        """Stage 2: transitive closure of the raw predictions."""
        labels = components_of_edges(pred).withColumnRenamed("component",
                                                             "group")
        return group_scores(labels, records)

    pw, pre, (post, post_labels) = concurrently(
        lambda: pairwise_scores(pred, records), stage2,
        lambda: post_stage(pred, records, gamma, mu, apply_pre_cleanup))

    return StageScores(
        pairwise=pw, pre_cleanup=pre, post_cleanup=post,
        n_candidates=n_candidates, inference_seconds=inference_seconds,
        assignment=full_assignment(records, post_labels),
        pred_edges=pred,
    )


def group_scores(labels: DataFrame, records: DataFrame) -> dict:
    """Closure P/R/F1 of an ``(id, group)`` assignment plus its Cluster
    Purity, computed concurrently."""
    scores, purity = concurrently(lambda: closure_scores(labels, records),
                                  lambda: cluster_purity(labels, records))
    return {**scores, "purity": purity}


def post_stage(edges: DataFrame, records: DataFrame, gamma: int, mu: int,
               apply_pre_cleanup: bool = False) -> tuple[dict, DataFrame]:
    """Stage 3: ``gralmatch`` on ``edges``, the raw predictions
    (``StageScores.pred_edges``), with the pre-cleanup when
    ``apply_pre_cleanup`` is set, plus its scores. Reusable with different
    (γ, μ) on the same edges — the paper's -MEC / ½γ / -BC sensitivity
    variants."""
    post_labels = materialize(gralmatch(edges, gamma, mu, apply_pre_cleanup))
    return group_scores(post_labels, records), post_labels
