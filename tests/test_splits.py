"""Tests for group-level splits and fine-tuning pair construction."""
import duckdb
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.matching.splits import (REDUCED_CAP, add_split, labeled_pairs,
                                   negative_pairs, positive_pairs,
                                   reduced_pairs)


class TestAddSplit:
    def test_groups_not_divided(self, companies_df):
        n = (companies_df.groupBy("gt_group")
             .agg(F.countDistinct("split").alias("k"))
             .where(F.col("k") > 1).count())
        assert n == 0

    def test_split_proportions(self, companies_df):
        counts = {r["split"]: r["count"] for r in
                  companies_df.groupBy("split").count().collect()}
        total = sum(counts.values())
        assert 0.4 < counts.get("train", 0) / total < 0.8
        assert counts.get("val", 0) > 0 and counts.get("test", 0) > 0

    def test_deterministic(self, spark, companies_pdf):
        a = add_split(spark.createDataFrame(companies_pdf))
        b = add_split(spark.createDataFrame(companies_pdf))
        sa = {(r["record_id"], r["split"]) for r in a.collect()}
        sb = {(r["record_id"], r["split"]) for r in b.collect()}
        assert sa == sb


class TestPositivePairs:
    def test_oracle_equivalence(self, spark, companies_df):
        pos = positive_pairs(companies_df, "train")
        pdf = companies_df.select("record_id", "gt_group", "split").toPandas()
        assert_sql = """
            SELECT a.record_id AS src, b.record_id AS dst
            FROM recs a JOIN recs b ON a.gt_group = b.gt_group
            WHERE a.record_id < b.record_id
              AND a.split = 'train' AND b.split = 'train'
        """
        from repro.oracle import assert_equivalent
        assert_equivalent(pos, assert_sql, recs=pdf)

    def test_only_intra_group(self, spark, companies_df):
        pos = positive_pairs(companies_df, "train")
        gt = companies_df.select("record_id", "gt_group")
        bad = (
            pos.join(gt.withColumnRenamed("record_id", "src")
                       .withColumnRenamed("gt_group", "g1"), "src")
            .join(gt.select(F.col("record_id").alias("dst"),
                            F.col("gt_group").alias("g2")), "dst")
            .where(F.col("g1") != F.col("g2"))
        )
        assert bad.count() == 0


class TestNegativePairs:
    def test_no_positives_included(self, spark, companies_df):
        neg = negative_pairs(companies_df, "train", 200)
        gt = companies_df.select("record_id", "gt_group")
        bad = (
            neg.join(gt.withColumnRenamed("record_id", "src")
                       .withColumnRenamed("gt_group", "g1"), "src")
            .join(gt.select(F.col("record_id").alias("dst"),
                            F.col("gt_group").alias("g2")), "dst")
            .where(F.col("g1") == F.col("g2"))
        )
        assert bad.count() == 0

    def test_near_target_count(self, spark, companies_df):
        assert 100 <= negative_pairs(companies_df, "train", 200).count() <= 200

    def test_deterministic(self, spark, companies_df):
        a = {(r["src"], r["dst"])
             for r in negative_pairs(companies_df, "train", 100).collect()}
        b = {(r["src"], r["dst"])
             for r in negative_pairs(companies_df, "train", 100).collect()}
        assert a == b


class TestLabeledPairs:
    def test_ratio_approx_5_to_1(self, spark, companies_df):
        pairs = labeled_pairs(companies_df, "train")
        counts = {r["label"]: r["count"]
                  for r in pairs.groupBy("label").count().collect()}
        assert counts[0.0] >= 3 * counts[1.0]

    def test_labels_correct(self, spark, companies_df):
        pairs = labeled_pairs(companies_df, "train")
        gt = companies_df.select("record_id", "gt_group")
        joined = (
            pairs.join(gt.withColumnRenamed("record_id", "src")
                         .withColumnRenamed("gt_group", "g1"), "src")
            .join(gt.select(F.col("record_id").alias("dst"),
                            F.col("gt_group").alias("g2")), "dst")
        )
        wrong = joined.where(
            ((F.col("label") == 1.0) & (F.col("g1") != F.col("g2")))
            | ((F.col("label") == 0.0) & (F.col("g1") == F.col("g2")))
        )
        assert wrong.count() == 0


class TestReducedPairs:
    def test_hard_positives_removed(self, spark, companies_df):
        pairs = labeled_pairs(companies_df, "train")
        red = reduced_pairs(pairs, companies_df)
        flags = companies_df.select("record_id", "easy_group")
        bad = (
            red.where(F.col("label") == 1.0)
            .join(flags.withColumnRenamed("record_id", "src")
                       .withColumnRenamed("easy_group", "e1"), "src")
            .join(flags.select(F.col("record_id").alias("dst"),
                               F.col("easy_group").alias("e2")), "dst")
            .where(~F.col("e1") | ~F.col("e2"))
        )
        assert bad.count() == 0

    def test_negatives_kept(self, spark, companies_df):
        pairs = labeled_pairs(companies_df, "train")
        red = reduced_pairs(pairs, companies_df)
        assert red.where(F.col("label") == 0.0).count() > 0

    def test_cap_respected(self, spark, companies_df):
        """More kept pairs than ``REDUCED_CAP``: the first ``REDUCED_CAP``
        in (src, dst) order remain. Negatives are kept whatever their
        groups, so all-negative pairs over the records exceed the cap."""
        ids = companies_df.select(F.col("record_id").alias("src"))
        pairs = (ids.crossJoin(ids.withColumnRenamed("src", "dst"))
                 .where(F.col("src") < F.col("dst"))
                 .withColumn("label", F.lit(0.0)))
        assert pairs.count() > REDUCED_CAP
        red = reduced_pairs(pairs, companies_df)
        first = pairs.orderBy("src", "dst").limit(REDUCED_CAP)
        assert red.count() == REDUCED_CAP
        assert red.exceptAll(first).count() == 0
