"""Shared harness plumbing for the Table 1–4 reproductions.

``load_datasets`` materializes the five evaluation datasets at a run
scale; the financial synthetic pair scales with ``n_groups_synth`` while
the "real" subsets and WDC stay at the paper's own (small) sizes. Each
dataset's (γ, μ) is read from paper Table 2 (``paper_numbers.TABLE2``).
``train_models`` fine-tunes the models that Tables 3 and 4 share.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from repro.checkpoint import materialize
from repro.entitygen import dataset as gen
from repro.entitygen.wdc import wdc_products
from repro.matching import model as M
from repro.matching.splits import add_split
from repro.tables.paper_numbers import TABLE2, TABLE3

#: Securities dataset → the companies dataset of its issuers, whose
#: matching feeds the securities' Issuer Match blocking.
ISSUERS = {"real_securities": "real_companies",
           "synthetic_securities": "synthetic_companies"}


@dataclass
class Dataset:
    """One evaluation dataset: records plus pipeline wiring."""

    name: str
    kind: str                     # companies | securities | products
    records: DataFrame
    securities: DataFrame | None  # companion table for company ID blocking
    gamma: int
    mu: int


def load_datasets(spark: SparkSession, n_groups_synth: int = 1000,
                  n_groups_real: int = 1500,
                  n_wdc_records: int = 1000) -> dict:
    """Build all five datasets with split columns, checkpointed."""
    syn_c, syn_s = gen.synthetic(n_groups_synth)
    real_c, real_s = gen.real(n_groups_real)
    pdfs = {"real_companies": real_c, "synthetic_companies": syn_c,
            "real_securities": real_s, "synthetic_securities": syn_s,
            "wdc_products": wdc_products(n_wdc_records)}
    records = {name: materialize(add_split(spark.createDataFrame(pdf)))
               for name, pdf in pdfs.items()}
    # A companies dataset's ID Overlap also reads the securities it issued.
    securities = {comp: records[sec] for sec, comp in ISSUERS.items()}
    return {
        name: Dataset(name, name.split("_", 1)[1], records[name],
                      securities.get(name), *TABLE2[name][3:])
        for name in pdfs
    }


def train_models(datasets: dict, seeds: tuple) -> dict:
    """Each paper model row (the keys of ``paper_numbers.TABLE3``) trained
    once per seed: ``{(dataset, model_key): {seed: TrainedModel}}``. Table 3
    evaluates every seed; Table 4 matches with the seed-0 models."""
    return {(name, key): {seed: M.train(ds.records, ds.kind, M.MODELS[key],
                                        seed=seed)
                          for seed in seeds}
            for name, ds in datasets.items() for key in TABLE3[name]}


def pct(x: float) -> float:
    """Fraction → percent, 2 decimals (paper-style)."""
    return round(100.0 * x, 2)


def markdown_table(rows: list, headers: list) -> str:
    """Minimal GitHub-markdown table renderer for job output."""
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for r in rows:
        lines.append("| " + " | ".join(str(v) for v in r) + " |")
    return "\n".join(lines)
