"""Table 4 — end-to-end entity group matching with Blocking and GraLMatch.

For each dataset and model: pairwise / Pre-Graph-Cleanup / Post-Graph-
Cleanup precision, recall, F1 (+ Cluster Purity for the group stages) and
the inference time of the pairwise scoring stage. The models per dataset
are the paper's Table 4 rows (the keys of ``paper_numbers.TABLE3``), the
seed-0 models that Table 3 also evaluates.

Order matters: the companies pipeline of a model runs first, and its final
group assignment feeds the Issuer Match blocking of the corresponding
securities pipeline — exactly the paper's setup where securities candidates
come from "companies previously matched". Table 2's Issuer Match counts
read the same company assignments (``run_table4``'s second result).

The sensitivity variants (Section 5.2.1) run on synthetic companies with
the DistilBERT-ALL predictions reused, pre-cleanup included:
  -MEC: γ = μ (Minimum Edge Cut only), ½γ, and -BC: γ = ∞ (Betweenness only).
The three read the same edges and nothing of each other, so they run
concurrently.
"""
from __future__ import annotations

from functools import partial

from repro.core.pipeline import StageScores, post_stage, run_group_matching
from repro.parallel import concurrently
from repro.tables.common import ISSUERS, Dataset, pct
from repro.tables.paper_numbers import TABLE3


def _group_row(scores: dict) -> dict:
    return {**{k: pct(scores[k]) for k in ("precision", "recall", "f1")},
            "purity": round(scores["purity"], 2)}


def _row(scores: StageScores) -> dict:
    return {
        "pairwise": {k: pct(scores.pairwise[k])
                     for k in ("precision", "recall", "f1")},
        "pre": _group_row(scores.pre_cleanup),
        "post": _group_row(scores.post_cleanup),
        "n_candidates": scores.n_candidates,
        "inference_seconds": round(scores.inference_seconds, 1),
    }


def run_order(names) -> list:
    """``names`` in run order: each securities dataset right after the
    companies dataset of its issuers (``ISSUERS``), whose groups its Issuer
    Match blocking reads."""
    issuers = set(ISSUERS.values())
    order = []
    for name in names:
        if name in ISSUERS:
            order.append(ISSUERS[name])
        if name not in issuers:
            order.append(name)
    return order


def run_table4(datasets: dict, models: dict) -> tuple[list, dict]:
    """Rows: (dataset, model_key, row dict), in ``run_order``, matched with
    the seed-0 models of ``models`` (``common.train_models``); and the
    company assignment each securities run's Issuer Match read, keyed by
    (securities dataset, model_key)."""
    rows = []
    company_assign: dict = {}
    issuer_groups: dict = {}
    for name in run_order(datasets):
        ds: Dataset = datasets[name]
        for model_key in TABLE3[name]:
            company_groups = company_assign.get((ISSUERS.get(name), model_key))
            if name in ISSUERS:
                issuer_groups[(name, model_key)] = company_groups
            scores = run_group_matching(
                ds.records, ds.kind, models[(name, model_key)][0],
                ds.gamma, ds.mu, securities=ds.securities,
                company_groups=company_groups,
            )
            if ds.kind == "companies":
                company_assign[(name, model_key)] = scores.assignment
            rows.append((name, model_key, _row(scores)))
            # Sensitivity variants reuse the ALL model's predictions.
            if (name == "synthetic_companies"
                    and model_key == "distilbert128_all"):
                variants = {
                    "distilbert128_all_mec": (ds.mu, ds.mu),
                    "distilbert128_all_halfgamma": (ds.gamma // 2, ds.mu),
                    "distilbert128_all_bc": (10**9, ds.mu),
                }
                posts = concurrently(*(
                    partial(post_stage, scores.pred_edges, ds.records, g, m,
                            apply_pre_cleanup=True)
                    for g, m in variants.values()))
                for vname, (post, _) in zip(variants, posts):
                    rows.append((name, vname,
                                 {**_row(scores), "post": _group_row(post)}))
    return rows, issuer_groups
