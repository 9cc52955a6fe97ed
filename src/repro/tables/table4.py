"""Table 4 — end-to-end entity group matching with Blocking and GraLMatch.

For each dataset and model: pairwise / Pre-Graph-Cleanup / Post-Graph-
Cleanup precision, recall, F1 (+ Cluster Purity for the group stages) and
the inference time of the pairwise scoring stage.

Order matters: the companies pipeline of a model runs first, and its final
group assignment feeds the Issuer Match blocking of the corresponding
securities pipeline — exactly the paper's setup where securities candidates
come from "companies previously matched".

The sensitivity variants (Section 5.2.1) run on synthetic companies with
the DistilBERT-ALL predictions reused, pre-cleanup included:
  -MEC: γ = μ (Minimum Edge Cut only), ½γ, and -BC: γ = ∞ (Betweenness only).
The three read the same edges and nothing of each other, so they run
concurrently; each variant's ``cleanup_seconds`` is a wall time shared with
the other two.
"""
from __future__ import annotations

from functools import partial

from repro.core.gralmatch import PRE_CLEANUP_SIZE
from repro.core.pipeline import StageScores, post_stage, run_group_matching
from repro.matching import model as M
from repro.parallel import concurrently
from repro.tables.common import DATASET_MODELS, Dataset, pct

_COMPANION = {"real_securities": "real_companies",
              "synthetic_securities": "synthetic_companies"}


def _row(scores: StageScores) -> dict:
    return {
        "pairwise": {k: pct(scores.pairwise[k])
                     for k in ("precision", "recall", "f1")},
        "pre": {**{k: pct(scores.pre_cleanup[k])
                   for k in ("precision", "recall", "f1")},
                "purity": round(scores.pre_cleanup["purity"], 2)},
        "post": {**{k: pct(scores.post_cleanup[k])
                    for k in ("precision", "recall", "f1")},
                 "purity": round(scores.post_cleanup["purity"], 2)},
        "n_candidates": scores.n_candidates,
        "inference_seconds": round(scores.inference_seconds, 1),
    }


def run_table4(datasets: dict, seed: int = 0,
               dataset_names: tuple | None = None,
               with_sensitivity: bool = True) -> list:
    """Rows: (dataset, model_key, row dict). Runs companies before the
    matching securities dataset so Issuer Match gets real assignments."""
    names = list(dataset_names or datasets.keys())
    # Ensure companion company datasets run before their securities.
    for sec, comp in _COMPANION.items():
        if sec in names and comp in names:
            names.remove(comp)
            names.insert(names.index(sec), comp)
    rows = []
    trained: dict = {}
    company_assign: dict = {}
    for name in names:
        ds: Dataset = datasets[name]
        for model_key in DATASET_MODELS[name]:
            spec = M.MODELS[model_key]
            model = M.train(ds.records, ds.kind, spec, seed=seed)
            trained[(name, model_key)] = model
            company_groups = None
            if name in _COMPANION:
                company_groups = company_assign.get(
                    (_COMPANION[name], model_key))
            scores = run_group_matching(
                ds.records, ds.kind, model, ds.gamma, ds.mu,
                securities=ds.securities, company_groups=company_groups,
            )
            if ds.kind == "companies":
                company_assign[(name, model_key)] = scores.assignment
            rows.append((name, model_key, _row(scores)))
            # Sensitivity variants reuse the ALL model's predictions.
            if (with_sensitivity and name == "synthetic_companies"
                    and model_key == "distilbert128_all"):
                variants = {
                    "distilbert128_all_mec": (ds.mu, ds.mu),
                    "distilbert128_all_halfgamma": (ds.gamma // 2, ds.mu),
                    "distilbert128_all_bc": (10**9, ds.mu),
                }
                posts = concurrently(*(
                    partial(post_stage, scores.pred_edges, ds.records, g, m,
                            PRE_CLEANUP_SIZE)
                    for g, m in variants.values()))
                for vname, (post, _) in zip(variants, posts):
                    rows.append((name, vname, {
                        "pairwise": _row(scores)["pairwise"],
                        "pre": _row(scores)["pre"],
                        "post": {**{k: pct(post[k])
                                    for k in ("precision", "recall", "f1")},
                                 "purity": round(post["purity"], 2)},
                        "n_candidates": scores.n_candidates,
                        "inference_seconds": round(
                            scores.inference_seconds, 1),
                        "cleanup_seconds": round(post["cleanup_seconds"], 1),
                    }))
    return rows
