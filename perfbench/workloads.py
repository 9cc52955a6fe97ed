"""Benchmark workloads: generated inputs and the pipeline settings per run.

Each workload fixes a dataset kind, a group count and a model. Every run
generates the same tables, with the generator's default seed, and trains
the same model on them. The benchmark's seed permutes the rows of the
tables the pipeline matches.

The dataset is fixed because the work of a call depends on it: the number
of connected-components rounds follows the depth of the deepest predicted
component, and across ten generator seeds at 300 company groups a call ran
257 to 387 Spark jobs. The row order must not change the work or the
final assignment, so every seed asks for the same work and the spread of a
timing across seeds is the machine's own.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.entitygen import dataset as gen
from repro.graph.connected_components import materialize
from repro.matching import model as M
from repro.matching.splits import add_split


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # companies | securities
    n_groups: int
    model_key: str       # key of repro.matching.model.MODELS


#: A pipeline call costs 140 to 170 Spark jobs at these sizes, almost all
#: fixed per-job overhead, and every run starts its own JVM and trains its
#: own model, so the sizes are kept small. The companies workload runs
#: without the Section 4.2.1 pre-cleanup: it only cuts components of more
#: than 50 records, and at 100 company groups the largest has 28, so it
#: would add one connected-components pass that drops nothing.
WORKLOADS = {w.name: w for w in (
    Workload("companies_ditto128_nopre", "companies", 100, "ditto128"),
    Workload("securities_distilbert", "securities", 300, "distilbert128_all"),
)}

#: Algorithm 1's γ and μ, the paper's values for every dataset.
GAMMA, MU = 25, 5


#: ``repro.entitygen.dataset.synthetic``'s own default seed.
DATA_SEED = 7


@dataclass
class Inputs:
    """One seed's inputs; the matched tables are checkpointed in Spark."""

    records_pdf: pd.DataFrame   # record_id, gt_group of the matched table
    train_records: DataFrame    # the matched table in generated order, local
    records: DataFrame          # the matched table in the seed's row order
    securities: DataFrame | None
    company_groups: DataFrame | None


def generate(spark: SparkSession, w: Workload, seed: int,
             n_groups: int | None = None) -> Inputs:
    """Generate the workload's tables; the pipeline's inputs come in the
    row order ``seed`` draws."""
    companies, securities = gen.synthetic(n_groups or w.n_groups,
                                          seed=DATA_SEED)

    def table(pdf: pd.DataFrame) -> DataFrame:
        return add_split(spark.createDataFrame(pdf))

    def prep(pdf: pd.DataFrame) -> DataFrame:
        return materialize(table(pdf.sample(frac=1.0, random_state=seed,
                                            ignore_index=True)))

    if w.kind == "companies":
        return Inputs(companies[["record_id", "gt_group"]], table(companies),
                      prep(companies), prep(securities), None)
    # The securities run's Issuer Match blocking takes the ground-truth
    # company groups, so it does not depend on a companies run.
    groups = companies[["record_id", "gt_group"]].sample(
        frac=1.0, random_state=seed, ignore_index=True)
    groups = spark.createDataFrame(groups).select(
        F.col("record_id").alias("id"), F.col("gt_group").alias("group"))
    return Inputs(securities[["record_id", "gt_group"]],
                  table(securities), prep(securities), None,
                  materialize(groups))


def train(w: Workload, inputs: Inputs) -> M.TrainedModel:
    """Train on the generated order, so every seed gets the same model.

    The training table is the local one, not a checkpoint: it gives the
    same coefficients, and training passes over its input three times, so
    the Python round trip a ``materialize``d table adds to every read would
    cost each run about 4 s of set-up.
    """
    return M.train(inputs.train_records, w.kind, M.MODELS[w.model_key],
                   seed=DATA_SEED)
