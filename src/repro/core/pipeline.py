"""End-to-end entity group matching (paper Figure 1 / Section 5.3).

    blocking → pairwise prediction (LM surrogate) → connected components
    (Stage 2: Pre Graph Cleanup closure) → pre-cleanup on the Stage 2
    components + Algorithm 1 (Stage 3: Post Graph Cleanup) → entity groups

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
from repro.core.gralmatch import gralmatch, pre_cleanup
from repro.graph.connected_components import (components_of_edges,
                                               materialize)
from repro.matching.model import TrainedModel, serialized_records
from repro.metrics.pairs import closure_scores, pairwise_scores
from repro.metrics.purity import cluster_purity


@dataclass
class StageScores:
    """Scores of one pipeline run (Table 4 row)."""

    pairwise: dict
    pre_cleanup: dict
    post_cleanup: dict
    n_candidates: int
    inference_seconds: float
    assignment: DataFrame  # final (id, group) incl. implicit singletons
    pred_edges: DataFrame  # Stage 3 input: pre-cleaned predicted pairs


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
                       apply_pre_cleanup: bool | None = None) -> StageScores:
    """Run the full pipeline on ``records`` and score all three stages.

    ``apply_pre_cleanup`` defaults to the paper's choice: on for the
    token-overlap-blocked datasets (companies, products), off for
    securities (no Token Overlap blocking there).
    """
    cands = candidate_pairs(kind, records, securities, company_groups)
    cands = materialize(cands)
    n_candidates = cands.count()

    t0 = time.time()
    ser = serialized_records(records, kind, model.spec)
    scored = model.predict(cands, ser)
    pred = scored.where(F.col("prediction") == 1.0).select(
        "src", "dst", "from_token_overlap"
    )
    pred = materialize(pred)
    inference_seconds = time.time() - t0

    pw = pairwise_scores(pred, records)

    # Stage 2: transitive closure of the raw predictions.
    pre_labels = components_of_edges(pred).withColumnRenamed(
        "component", "group")
    pre = closure_scores(pre_labels, records)
    pre["purity"] = cluster_purity(pre_labels, records)

    # Stage 3: pre-cleanup on the Stage 2 components + Algorithm 1.
    if apply_pre_cleanup is None:
        apply_pre_cleanup = kind in ("companies", "products")
    edges = pre_cleanup(pred, pre_labels) if apply_pre_cleanup else pred
    post, post_labels = post_stage(edges, records, gamma, mu)

    return StageScores(
        pairwise=pw, pre_cleanup=pre, post_cleanup=post,
        n_candidates=n_candidates, inference_seconds=inference_seconds,
        assignment=full_assignment(records, post_labels),
        pred_edges=edges,
    )


def post_stage(edges: DataFrame, records: DataFrame, gamma: int,
               mu: int) -> tuple[dict, DataFrame]:
    """Stage 3 after pre-cleanup: Algorithm 1 on ``edges``, the pre-cleaned
    predictions (``StageScores.pred_edges``), plus its scores. Reusable with
    different (γ, μ) on the same edges — the paper's -MEC / ½γ / -BC
    sensitivity variants."""
    t0 = time.time()
    post_labels = materialize(gralmatch(edges, gamma, mu))
    post = closure_scores(post_labels, records)
    post["purity"] = cluster_purity(post_labels, records)
    post["cleanup_seconds"] = time.time() - t0
    return post, post_labels
