"""LM-surrogate pairwise matcher: model registry, training, prediction.

Each paper model maps to a :class:`ModelSpec` that fixes the serialization
scheme, the (pair-level) token budget, and the training regime:

- ``ditto128`` / ``ditto256`` — DITTO's ``[col]/[val]`` encoding at 128/256
  pair tokens; trained on all train-split pairs.
- ``distilbert128_all`` — plain value serialization at 128; all pairs.
- ``distilbert128_15k`` — plain at 128; the reduced easy-group subset
  (Section 5.2.1), which yields the paper's high-precision/low-recall
  regime.

The classifier head is a ``pyspark.ml`` LogisticRegression over the pair
features of :mod:`repro.matching.features` — fitting the role of the
fine-tuned softmax layer on top of frozen serialization/truncation
behaviour, which is where the models actually differ.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.ml.classification import LogisticRegression, LogisticRegressionModel
from pyspark.ml.functions import array_to_vector
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.matching.features import add_features
from repro.matching.serialize import add_serialized
from repro.matching.splits import labeled_pairs, reduced_pairs
from repro.metrics.pairs import prf

#: Columns serialized per dataset kind, in the curated order of the plain
#: scheme — most discriminative first, long free text last (so truncation
#: sheds descriptions, not names/identifiers).
SER_COLS = {
    "companies": ("name", "city", "region", "country_code", "short_description"),
    "securities": ("name", "isin", "cusip", "valor", "sedol", "sec_type"),
    "products": ("name", "brand", "category", "price", "description"),
}


@dataclass(frozen=True)
class ModelSpec:
    """One paper model = serialization scheme + token budget + train mode."""

    name: str
    scheme: str        # "plain" | "ditto"
    max_len: int       # pair-level subword budget
    train_mode: str    # "all" | "15k"


MODELS = {
    "ditto128": ModelSpec("DITTO (128)", "ditto", 128, "all"),
    "ditto256": ModelSpec("DITTO (256)", "ditto", 256, "all"),
    "distilbert128_all": ModelSpec("DistilBERT (128)-ALL", "plain", 128, "all"),
    "distilbert128_15k": ModelSpec("DistilBERT (128)-15K", "plain", 128, "15k"),
}


def serialized_records(records: DataFrame, kind: str,
                       spec: ModelSpec) -> DataFrame:
    """Records with the spec's truncated serialization column ``ser``."""
    return add_serialized(records, SER_COLS[kind], spec.scheme, spec.max_len)


def featurized(pairs: DataFrame, records_ser: DataFrame) -> DataFrame:
    """Pairs with an ML ``features`` vector column."""
    return add_features(pairs, records_ser).withColumn(
        "features", array_to_vector("features_arr")
    )


@dataclass
class TrainedModel:
    """A fitted surrogate: spec + serialized-record cache + LR head."""

    spec: ModelSpec
    lr: LogisticRegressionModel
    train_seconds: float

    def predict(self, pairs: DataFrame, records_ser: DataFrame) -> DataFrame:
        """Score (src, dst) pairs; adds ``prediction``."""
        feats = featurized(pairs, records_ser)
        return self.lr.transform(feats).select(*pairs.columns, "prediction")


def train(records: DataFrame, kind: str, spec: ModelSpec,
          seed: int = 0) -> TrainedModel:
    """Fine-tune the surrogate on the train split of ``records``.

    ``records`` must already carry a ``split`` column (see
    :func:`repro.matching.splits.add_split`).
    """
    t0 = time.perf_counter()
    records_ser = serialized_records(records, kind, spec)
    pairs = labeled_pairs(records, "train", seed)
    if spec.train_mode == "15k":
        pairs = reduced_pairs(pairs, records)
    train_df = featurized(pairs, records_ser).select("features", "label")
    # Moderate L2 keeps the boundary near the class-margin midpoint, so a
    # model trained only on clearly-matching positives (the -15K regime)
    # stays conservative on borderline pairs — the paper's precision/recall
    # trade-off between -15K and -ALL.
    lr = LogisticRegression(maxIter=100, regParam=0.05)
    model = lr.fit(train_df)
    return TrainedModel(spec=spec, lr=model,
                        train_seconds=time.perf_counter() - t0)


def evaluate_pairs(model: TrainedModel, records: DataFrame, kind: str,
                   seed: int) -> dict:
    """Fine-tuning-style precision, recall and F1 on the test split's
    labeled pairs (Table 3); ``seed`` draws the negatives."""
    records_ser = serialized_records(records, kind, model.spec)
    pairs = labeled_pairs(records, "test", seed)
    scored = model.predict(pairs.select("src", "dst", "label"), records_ser)
    agg = scored.agg(
        F.sum((F.col("prediction") == 1.0).cast("long")).alias("pp"),
        F.sum(((F.col("prediction") == 1.0) & (F.col("label") == 1.0))
              .cast("long")).alias("tp"),
        F.sum((F.col("label") == 1.0).cast("long")).alias("pos"),
    ).first()
    pp, tp, pos = agg["pp"] or 0, agg["tp"] or 0, agg["pos"] or 0
    return prf(tp, pp, pos)
