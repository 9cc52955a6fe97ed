"""Tests for pair metrics and cluster purity, oracle-checked with DuckDB."""
import duckdb
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.metrics.pairs import (closure_scores, gt_pair_count,
                                 pairwise_scores, prf)
from repro.metrics.purity import cluster_purity
from repro.oracle import assert_equivalent


def _records(spark, groups):
    """groups: list of group sizes → records with gt_group=i."""
    rows, rid = [], 0
    for i, n in enumerate(groups):
        for _ in range(n):
            rows.append((rid, i))
            rid += 1
    return spark.createDataFrame(
        pd.DataFrame(rows, columns=["record_id", "gt_group"]).astype("int64"))


def _pairs(spark, pairs):
    return spark.createDataFrame(
        pd.DataFrame(pairs, columns=["src", "dst"]).astype("int64"),
        schema="src long, dst long")


def _assign(spark, mapping):
    return spark.createDataFrame(
        pd.DataFrame(list(mapping.items()), columns=["id", "group"])
        .astype("int64"),
        schema="id long, group long")


class TestPrf:
    def test_from_counts(self):
        got = prf(3, 4, 6)
        assert got == {"precision": 0.75, "recall": 0.5, "f1": 0.6}

    def test_zero_counts_score_zero(self):
        assert prf(0, 0, 0) == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        assert prf(0, 5, 5)["f1"] == 0.0


class TestGtPairCount:
    @pytest.mark.parametrize("groups,expected", [
        ([1], 0), ([2], 1), ([3], 3), ([4, 4], 12), ([5, 1, 2], 11),
    ])
    def test_formula(self, spark, groups, expected):
        assert gt_pair_count(_records(spark, groups)) == expected

    def test_oracle_equivalence(self, spark, companies_pdf):
        df = spark.createDataFrame(companies_pdf)
        got = gt_pair_count(df)
        exp = duckdb.sql(
            """SELECT COALESCE(SUM(n * (n - 1) / 2), 0) FROM
               (SELECT COUNT(*) n FROM companies_pdf GROUP BY gt_group)"""
        ).fetchone()[0]
        assert got == int(exp)


class TestPairwiseScores:
    def test_perfect_prediction(self, spark):
        recs = _records(spark, [2, 2])  # gt pairs: (0,1),(2,3)
        s = pairwise_scores(_pairs(spark, [(0, 1), (2, 3)]), recs)
        assert s["precision"] == 1.0 and s["recall"] == 1.0 and s["f1"] == 1.0

    def test_half_precision(self, spark):
        recs = _records(spark, [2, 2])
        s = pairwise_scores(_pairs(spark, [(0, 1), (1, 2)]), recs)
        assert s["precision"] == 0.5
        assert s["recall"] == 0.5
        assert s["tp"] == 1 and s["predicted"] == 2

    def test_empty_predictions(self, spark):
        recs = _records(spark, [3])
        s = pairwise_scores(_pairs(spark, []), recs)
        assert s["precision"] == 0.0 and s["recall"] == 0.0 and s["f1"] == 0.0

    def test_duplicate_predictions_counted_once(self, spark):
        recs = _records(spark, [2])
        s = pairwise_scores(_pairs(spark, [(0, 1), (1, 0)]), recs)
        assert s["predicted"] == 1

    def test_oracle_tp_count(self, spark):
        recs_pdf = pd.DataFrame({"record_id": range(6),
                                 "gt_group": [0, 0, 0, 1, 1, 2]})
        pairs_pdf = pd.DataFrame([(0, 1), (1, 2), (0, 3), (3, 4), (4, 5)],
                                 columns=["src", "dst"])
        s = pairwise_scores(spark.createDataFrame(pairs_pdf),
                            spark.createDataFrame(recs_pdf))
        exp_tp = duckdb.sql(
            """SELECT COUNT(*) FROM pairs_pdf p
               JOIN recs_pdf a ON p.src = a.record_id
               JOIN recs_pdf b ON p.dst = b.record_id
               WHERE a.gt_group = b.gt_group"""
        ).fetchone()[0]
        assert s["tp"] == exp_tp == 3


class TestClosureScores:
    def test_matches_bruteforce_closure(self, spark):
        recs = _records(spark, [3, 2, 1])
        # Assign records 0,1,2,3 to one predicted group, 4 alone, 5 missing.
        asg = _assign(spark, {0: 0, 1: 0, 2: 0, 3: 0, 4: 4})
        s = closure_scores(asg, recs)
        # Closure pairs: C(4,2)=6; TP inside: pairs among {0,1,2}=3.
        assert s["predicted"] == 6 and s["tp"] == 3
        assert s["precision"] == pytest.approx(0.5)
        assert s["recall"] == pytest.approx(3 / 4)  # gt pairs = 3 + 1

    def test_perfect_assignment(self, spark):
        recs = _records(spark, [2, 3])
        asg = _assign(spark, {0: 0, 1: 0, 2: 2, 3: 2, 4: 2})
        s = closure_scores(asg, recs)
        assert s["precision"] == 1.0 and s["recall"] == 1.0

    def test_empty_assignment_zero_scores(self, spark):
        recs = _records(spark, [2])
        s = closure_scores(_assign(spark, {}), recs)
        assert s["precision"] == 0.0 and s["recall"] == 0.0

    def test_giant_group_precision_collapse(self, spark):
        """The Pre-Graph-Cleanup phenomenon: one giant merged component."""
        recs = _records(spark, [2] * 10)  # 10 groups of 2 → 10 gt pairs
        asg = _assign(spark, {i: 0 for i in range(20)})
        s = closure_scores(asg, recs)
        assert s["predicted"] == 190
        assert s["recall"] == 1.0
        assert s["precision"] == pytest.approx(10 / 190)


class TestClusterPurity:
    def test_pure_groups(self, spark):
        recs = _records(spark, [2, 2])
        asg = _assign(spark, {0: 0, 1: 0, 2: 2, 3: 2})
        assert cluster_purity(asg, recs) == pytest.approx(1.0)

    def test_singletons_count_as_pure(self, spark):
        recs = _records(spark, [1, 1])
        assert cluster_purity(_assign(spark, {}), recs) == pytest.approx(1.0)

    def test_mixed_group(self, spark):
        recs = _records(spark, [2, 2])
        # One predicted group holding both gt groups: purity = 2/6 per the
        # formula, all 4 records in it.
        asg = _assign(spark, {0: 0, 1: 0, 2: 0, 3: 0})
        assert cluster_purity(asg, recs) == pytest.approx(2 / 6)

    def test_weighted_by_group_size(self, spark):
        recs = _records(spark, [2, 2, 1])
        # 4 records in an impure group (purity 1/3), 1 singleton (purity 1).
        asg = _assign(spark, {0: 0, 1: 0, 2: 0, 3: 0})
        expected = (4 * (2 / 6) + 1 * 1.0) / 5
        assert cluster_purity(asg, recs) == pytest.approx(expected)

    def test_hand_computed_paper_formula(self, spark):
        recs = _records(spark, [3, 2])
        asg = _assign(spark, {0: 0, 1: 0, 2: 0, 3: 3, 4: 3})
        # group0: V=3 all same gt → purity 1; group3: V=2 same gt → 1.
        assert cluster_purity(asg, recs) == pytest.approx(1.0)
