"""Table 3 — fine-tuning scores of each model on test-split pairs.

For every (dataset, model) cell the surrogate is trained on the train
split (all positive pairs + 5:1 random negatives; the -15K variant uses
the reduced easy-group subset; ``common.train_models``) and evaluated on
the test split's labeled pairs, once per seed; mean and std are reported
like the paper.
"""
from __future__ import annotations

import statistics

from repro.matching import model as M
from repro.tables.common import Dataset, pct


def _mean_std(values: list) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], 0.0
    return statistics.mean(values), statistics.stdev(values)


def run_cell(ds: Dataset, trained: dict) -> dict:
    """Evaluate one (dataset, model) cell's ``{seed: TrainedModel}``."""
    runs = [M.evaluate_pairs(model, ds.records, ds.kind, seed=seed + 100)
            for seed, model in trained.items()]
    out = {}
    for metric in ("precision", "recall", "f1"):
        mean, std = _mean_std([pct(r[metric]) for r in runs])
        out[metric] = round(mean, 2)
        out[f"{metric}_std"] = round(std, 2)
    out["train_seconds"] = round(
        statistics.mean([m.train_seconds for m in trained.values()]), 1)
    return out


def run_table3(datasets: dict, models: dict) -> list:
    """Rows: (dataset, model_key, scores dict), one per cell of ``models``
    (``common.train_models``)."""
    return [(name, model_key, run_cell(datasets[name], trained))
            for (name, model_key), trained in models.items()]
