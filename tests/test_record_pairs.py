"""Tests for the record-pair rules, oracle-checked with DuckDB."""
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.record_pairs import (canonical_pairs, cross_source_pairs,
                                with_endpoints)


def _pairs(spark, pairs):
    return spark.createDataFrame(
        pd.DataFrame(pairs, columns=["src", "dst"]).astype("int64"),
        schema="src long, dst long")


class TestCanonicalPairs:
    def test_orders_and_dedups(self, spark):
        out = canonical_pairs(_pairs(spark, [(2, 1), (1, 2), (3, 3)]))
        assert {(r["src"], r["dst"]) for r in out.collect()} == {(1, 2)}

    def test_oracle_equivalence(self, spark):
        pdf = pd.DataFrame([(2, 1), (1, 2), (5, 9), (9, 5), (4, 4)],
                           columns=["src", "dst"])
        out = canonical_pairs(spark.createDataFrame(pdf))
        assert_equivalent(
            out,
            """SELECT DISTINCT least(src, dst) AS src,
                      greatest(src, dst) AS dst
               FROM pairs WHERE src <> dst""",
            pairs=pdf,
        )


class TestCrossSourcePairs:
    #: Record 1 carries key "x" twice; records 1 and 3 share source 0;
    #: record 4's key is its own; records 5 and 6 share "y" across sources.
    PDF = pd.DataFrame({
        "record_id": [1, 1, 2, 3, 4, 5, 6],
        "company_record_id": [10, 10, 20, 10, 40, 50, 60],
        "source_id": [0, 0, 1, 0, 1, 0, 2],
        "key": ["x", "x", "x", "x", "z", "y", "y"],
    })

    def test_drops_same_record_and_source_keeps_orientations(self, spark):
        out = cross_source_pairs(spark.createDataFrame(self.PDF), "key")
        got = sorted((r["src"], r["dst"]) for r in out.collect())
        assert got == [(1, 2), (1, 2), (2, 1), (2, 1), (2, 3), (3, 2),
                       (5, 6), (6, 5)]

    @pytest.mark.parametrize("rec", ["record_id", "company_record_id"])
    def test_oracle_equivalence(self, spark, rec):
        out = cross_source_pairs(spark.createDataFrame(self.PDF), "key", rec)
        assert_equivalent(
            out,
            f"""SELECT a.{rec} AS src, b.{rec} AS dst
                FROM recs a JOIN recs b ON a.key = b.key
                WHERE a.{rec} <> b.{rec} AND a.source_id <> b.source_id""",
            recs=self.PDF,
        )


class TestWithEndpoints:
    def _records(self, spark):
        return spark.createDataFrame(pd.DataFrame({
            "record_id": [1, 2, 3], "g": [7, 7, 8], "h": ["a", "b", "c"]}))

    def test_names_columns_per_end(self, spark):
        pairs = _pairs(spark, [(1, 2), (2, 3)])
        out = with_endpoints(pairs, self._records(spark), "g", "h")
        assert set(out.columns) == {"src", "dst", "g_src", "h_src",
                                    "g_dst", "h_dst"}
        got = {(r["src"], r["dst"], r["g_src"], r["g_dst"], r["h_src"],
                r["h_dst"]) for r in out.collect()}
        assert got == {(1, 2, 7, 7, "a", "b"), (2, 3, 7, 8, "b", "c")}

    def test_drops_pair_with_missing_end(self, spark):
        pairs = _pairs(spark, [(1, 2), (2, 9), (9, 3)])
        out = with_endpoints(pairs, self._records(spark))
        assert sorted(out.columns) == ["dst", "src"]
        assert {(r["src"], r["dst"]) for r in out.collect()} == {(1, 2)}
