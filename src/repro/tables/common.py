"""Shared harness plumbing for the Table 1–4 reproductions.

``load_datasets`` materializes the five evaluation datasets at a run
scale; the financial synthetic pair scales with ``n_groups_synth`` while
the "real" subsets and WDC stay at the paper's own (small) sizes.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from repro.checkpoint import materialize
from repro.entitygen import dataset as gen
from repro.entitygen.wdc import wdc_products
from repro.matching.splits import add_split

#: Paper Table 2 thresholds per dataset.
THRESHOLDS = {
    "real_companies": (40, 8),
    "synthetic_companies": (25, 5),
    "real_securities": (40, 8),
    "synthetic_securities": (25, 5),
    "wdc_products": (25, 5),
}

#: Which models the paper evaluates on each dataset (Table 3/4 row sets).
DATASET_MODELS = {
    "real_companies": ("ditto128", "ditto256", "distilbert128_all"),
    "synthetic_companies": ("ditto128", "ditto256", "distilbert128_15k",
                            "distilbert128_all"),
    "real_securities": ("ditto128", "ditto256", "distilbert128_all"),
    "synthetic_securities": ("ditto128", "ditto256", "distilbert128_15k",
                             "distilbert128_all"),
    "wdc_products": ("ditto128", "ditto256", "distilbert128_all"),
}


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

    def prep(pdf) -> DataFrame:
        return materialize(add_split(spark.createDataFrame(pdf)))

    syn_c, syn_s = gen.synthetic(n_groups_synth, seed=7)
    real_c, real_s = gen.real(n_groups_real, seed=11)
    wdc = wdc_products(n_wdc_records, seed=21)

    syn_c_df, syn_s_df = prep(syn_c), prep(syn_s)
    real_c_df, real_s_df = prep(real_c), prep(real_s)
    wdc_df = prep(wdc)

    out = {
        "real_companies": Dataset("real_companies", "companies", real_c_df,
                                  real_s_df, *THRESHOLDS["real_companies"]),
        "synthetic_companies": Dataset("synthetic_companies", "companies",
                                       syn_c_df, syn_s_df,
                                       *THRESHOLDS["synthetic_companies"]),
        "real_securities": Dataset("real_securities", "securities",
                                   real_s_df, None,
                                   *THRESHOLDS["real_securities"]),
        "synthetic_securities": Dataset("synthetic_securities", "securities",
                                        syn_s_df, None,
                                        *THRESHOLDS["synthetic_securities"]),
        "wdc_products": Dataset("wdc_products", "products", wdc_df, None,
                                *THRESHOLDS["wdc_products"]),
    }
    return out


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
