"""Table 3 — fine-tuning scores of each model on test-split pairs.

For every (dataset, model) cell the surrogate is trained on the train
split (all positive pairs + 5:1 random negatives; the -15K variant uses
the reduced easy-group subset) and evaluated on the test split's labeled
pairs, over multiple seeds; mean and std are reported like the paper.
"""
from __future__ import annotations

import statistics

from repro.matching import model as M
from repro.tables.common import Dataset, pct
from repro.tables.paper_numbers import TABLE3


def _mean_std(values: list) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], 0.0
    return statistics.mean(values), statistics.stdev(values)


def run_cell(ds: Dataset, model_key: str, seeds: tuple) -> dict:
    """Train+evaluate one (dataset, model) cell across seeds."""
    spec = M.MODELS[model_key]
    runs = []
    for seed in seeds:
        trained = M.train(ds.records, ds.kind, spec, seed=seed)
        runs.append(M.evaluate_pairs(trained, ds.records, ds.kind,
                                     seed=seed + 100))
    out = {}
    for metric in ("precision", "recall", "f1"):
        mean, std = _mean_std([pct(r[metric]) for r in runs])
        out[metric] = round(mean, 2)
        out[f"{metric}_std"] = round(std, 2)
    out["train_seconds"] = round(
        statistics.mean([r["train_seconds"] for r in runs]), 1)
    return out


def run_table3(datasets: dict, seeds: tuple = (0, 1)) -> list:
    """Rows: (dataset, model_key, scores dict), one per paper Table 3 cell
    (``paper_numbers.TABLE3``)."""
    return [(name, model_key, run_cell(ds, model_key, seeds))
            for name, ds in datasets.items() for model_key in TABLE3[name]]
