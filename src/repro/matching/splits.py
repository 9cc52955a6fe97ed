"""Train/validation/test splits and fine-tuning pair construction.

Paper Section 5.1.3: records are split 60/20/20 *along ground-truth record
groups* (all records of a group land in one split, so models cannot
memorize pairs); models are fine-tuned on all positive pairs of the train
split plus randomly sampled negatives at a 5:1 negative:positive ratio.

Section 5.2.1 (DistilBERT-15K): a reduced training set built from the
first pairs of the train/val splits, discarding pairs from groups involved
in an acquisition or not fully matchable via identifier overlaps — we use
the generator's per-record ``easy_group`` flag for this (equivalent to the
label knowledge the paper's authors used on their train split).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.metrics.pairs import canonical_pairs

#: Sampled negatives per positive pair (the paper's 5:1 ratio).
NEG_RATIO = 5


def add_split(records: DataFrame, seed: int = 0) -> DataFrame:
    """Add ``split`` in {train, val, test} by hashing the ground-truth group."""
    bucket = F.pmod(F.xxhash64(F.col("gt_group"), F.lit(seed)), F.lit(10))
    return records.withColumn(
        "split",
        F.when(bucket < 6, "train").when(bucket < 8, "val").otherwise("test"),
    )


def positive_pairs(records: DataFrame, split: str) -> DataFrame:
    """All intra-group pairs (src, dst) of one split."""
    recs = records.where(F.col("split") == split).select(
        "record_id", F.col("gt_group").alias("gt")
    )
    a, b = recs.alias("a"), recs.alias("b")
    joined = a.join(b, "gt").where(F.col("a.record_id") < F.col("b.record_id"))
    return joined.select(
        F.col("a.record_id").alias("src"), F.col("b.record_id").alias("dst")
    )


def negative_pairs(records: DataFrame, split: str, n_target: int,
                   seed: int = 0) -> DataFrame:
    """~``n_target`` random cross-group pairs from one split.

    Random bucketing bounds the join fan-out (each bucket holds ~8 records),
    then an ordered limit takes a deterministic sample of the target size.
    """
    recs = records.where(F.col("split") == split).select(
        "record_id", F.col("gt_group").alias("gt")
    )
    n = recs.count()
    # Bucket size b yields ~n*b/2 candidate pairs; size it to cover the
    # target with ~2x slack (still bounds the join fan-out to O(n*b)).
    b = max(8, (4 * n_target) // max(1, n) + 2)
    n_buckets = max(1, n // b)
    bucketed = recs.withColumn(
        "bucket", F.pmod(F.xxhash64("record_id", F.lit(seed)), F.lit(n_buckets))
    )
    a, b = bucketed.alias("a"), bucketed.alias("b")
    cand = (
        a.join(b, "bucket")
        .where(
            (F.col("a.record_id") < F.col("b.record_id"))
            & (F.col("a.gt") != F.col("b.gt"))
        )
        .select(
            F.col("a.record_id").alias("src"), F.col("b.record_id").alias("dst")
        )
    )
    return (
        cand.withColumn("r", F.xxhash64("src", "dst", F.lit(seed)))
        .orderBy("r").limit(n_target).drop("r")
    )


def labeled_pairs(records: DataFrame, split: str,
                  seed: int = 0) -> DataFrame:
    """(src, dst, label) fine-tuning pairs for one split."""
    pos = positive_pairs(records, split)
    n_pos = pos.count()
    neg = negative_pairs(records, split, NEG_RATIO * n_pos, seed)
    return (
        pos.withColumn("label", F.lit(1.0))
        .unionByName(neg.withColumn("label", F.lit(0.0)))
    )


def reduced_pairs(pairs: DataFrame, records: DataFrame,
                  cap: int = 15_000) -> DataFrame:
    """The DistilBERT-15K training subset: drop pairs from non-easy groups
    (acquisition-involved or not identifier-matchable), keep the first
    ``cap`` pairs in record-id order (the paper's "first 10K/5K pairs")."""
    flags = records.select(
        "record_id", F.col("easy_group").cast("boolean").alias("easy")
    )
    kept = (
        pairs.join(flags.withColumnRenamed("record_id", "src")
                        .withColumnRenamed("easy", "easy_src"), "src")
        .join(flags.withColumnRenamed("record_id", "dst")
                   .withColumnRenamed("easy", "easy_dst"), "dst")
        # The filter discards hard *positives* (a random negative pair is
        # unaffected by whether its groups are identifier-matchable).
        .where((F.col("label") == 0.0)
               | (F.col("easy_src") & F.col("easy_dst")))
        .select("src", "dst", "label")
    )
    return kept.orderBy("src", "dst").limit(cap)
