"""Tests for the three blockings, oracle-checked against DuckDB SQL."""
import duckdb
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.blocking.id_overlap import (id_overlap_companies,
                                       id_overlap_securities, melt_ids)
from repro.blocking.issuer_match import issuer_match
from repro.blocking.token_overlap import (MIN_DF_CAP, N_TOP,
                                          token_overlap, tokenize)
from repro.oracle import assert_equivalent


class TestTokenize:
    def test_lowercase_and_punct(self, spark):
        pdf = pd.DataFrame({"record_id": [1], "source_id": [0],
                            "name": ["Acme-Corp. Ltd"], "city": ["Zurich"]})
        toks = tokenize(spark.createDataFrame(pdf))
        got = {r["token"] for r in toks.collect()}
        assert got == {"acme", "corp", "ltd", "zurich"}

    def test_short_tokens_dropped(self, spark):
        pdf = pd.DataFrame({"record_id": [1], "source_id": [0],
                            "name": ["AB Acme"], "city": [""]})
        toks = tokenize(spark.createDataFrame(pdf))
        assert {r["token"] for r in toks.collect()} == {"acme"}

    def test_distinct_per_record(self, spark):
        pdf = pd.DataFrame({"record_id": [1], "source_id": [0],
                            "name": ["Acme Acme Acme"], "city": [""]})
        assert tokenize(spark.createDataFrame(pdf)).count() == 1

    def test_oracle_equivalence(self, spark, companies_pdf):
        df = spark.createDataFrame(companies_pdf)
        toks = tokenize(df).select("record_id", "token")
        assert_equivalent(
            toks,
            """SELECT DISTINCT record_id, t.token FROM companies_pdf,
               UNNEST(string_split(regexp_replace(lower(name || ' ' || city),
                      '[^a-z0-9 ]', ' ', 'g'), ' ')) AS t(token)
               WHERE length(t.token) >= 3""",
            companies_pdf=companies_pdf,
        )


class TestTokenOverlap:
    def _df(self, spark):
        pdf = pd.DataFrame({
            "record_id": [1, 2, 3, 4],
            "source_id": [0, 1, 0, 1],
            "name": ["Zorvex Energy", "Zorvex Energy Ltd",
                     "Acme Networks", "Totally Different"],
            "city": ["", "", "", ""],
        })
        return spark.createDataFrame(pdf)

    def test_finds_shared_token_pair(self, spark):
        out = token_overlap(self._df(spark))
        got = {(r["src"], r["dst"]) for r in out.collect()}
        assert (1, 2) in got

    def test_same_source_excluded(self, spark):
        out = token_overlap(self._df(spark))
        got = {(r["src"], r["dst"]) for r in out.collect()}
        assert (1, 3) not in got  # records 1 and 3 share source 0

    def test_no_token_no_pair(self, spark):
        out = token_overlap(self._df(spark))
        got = {(r["src"], r["dst"]) for r in out.collect()}
        assert all(4 not in p for p in got)

    def test_df_cap_drops_ubiquitous_tokens(self, spark):
        """A token on more than ``MIN_DF_CAP`` records is dropped; two
        records that also share a rare token still pair through it."""
        n = MIN_DF_CAP + 10
        pdf = pd.DataFrame({
            "record_id": range(n),
            "source_id": [i % 2 for i in range(n)],
            "name": ["Common Inc"] * (n - 2) + ["Common Zorvex"] * 2,
            "city": [""] * n,
        })
        out = token_overlap(spark.createDataFrame(pdf))
        assert {(r["src"], r["dst"]) for r in out.collect()} == {
            (n - 2, n - 1)}

    def test_top_n_limits_fanout(self, spark):
        """Ten records per source, all sharing one token: each record keeps
        its ``N_TOP`` lowest-id partners (overlaps tie), and a pair is a
        candidate when either side keeps the other — not all 100 pairs."""
        pdf = pd.DataFrame({
            "record_id": range(20),
            "source_id": [0] * 10 + [1] * 10,
            "name": ["Zorvex Energy"] * 20,
            "city": [""] * 20,
        })
        out = token_overlap(spark.createDataFrame(pdf))
        got = {(r["src"], r["dst"]) for r in out.collect()}
        want = ({(a, b) for a in range(10) for b in range(10, 10 + N_TOP)}
                | {(a, b) for a in range(N_TOP) for b in range(10, 20)})
        assert N_TOP < 10 and len(want) < 100
        assert got == want

    def test_recall_on_generated_groups(self, spark, companies_df):
        """Most easy groups must be discoverable via token overlap."""
        out = token_overlap(companies_df)
        gt = companies_df.select("record_id", "gt_group", "easy_group")
        hits = (
            out.join(gt.withColumnRenamed("record_id", "src")
                       .withColumnRenamed("gt_group", "g1"), "src")
            .join(gt.select(F.col("record_id").alias("dst"),
                            F.col("gt_group").alias("g2")), "dst")
            .where(F.col("g1") == F.col("g2"))
        )
        assert hits.count() > 0.4 * gt.count()


class TestIdOverlap:
    def test_melt_ids_drops_empty(self, spark):
        pdf = pd.DataFrame({
            "record_id": [1], "source_id": [0], "company_record_id": [7],
            "isin": ["X1"], "cusip": [""], "valor": ["99"], "sedol": [""],
        })
        out = melt_ids(spark.createDataFrame(pdf))
        assert {r["id_value"] for r in out.collect()} == {"X1", "99"}

    def _sec(self, spark):
        pdf = pd.DataFrame({
            "record_id": [1, 2, 3, 4],
            "source_id": [0, 1, 0, 1],
            "company_record_id": [10, 11, 12, 13],
            "isin": ["AA1", "AA1", "BB2", "CC3"],
            "cusip": ["", "", "", "BB2"],
            "valor": ["", "", "", ""],
            "sedol": ["", "", "", ""],
        })
        return spark.createDataFrame(pdf)

    def test_same_value_pairs(self, spark):
        out = id_overlap_securities(self._sec(spark))
        got = {(r["src"], r["dst"]) for r in out.collect()}
        assert (1, 2) in got

    def test_cross_field_match(self, spark):
        """A value appearing in another record's different id field matches
        (Figure 2 data-drift pattern)."""
        out = id_overlap_securities(self._sec(spark))
        got = {(r["src"], r["dst"]) for r in out.collect()}
        assert (3, 4) in got

    def test_same_source_excluded(self, spark):
        pdf = pd.DataFrame({
            "record_id": [1, 2], "source_id": [0, 0],
            "company_record_id": [10, 11],
            "isin": ["AA1", "AA1"], "cusip": ["", ""],
            "valor": ["", ""], "sedol": ["", ""],
        })
        assert id_overlap_securities(spark.createDataFrame(pdf)).count() == 0

    def test_oracle_equivalence(self, spark, securities_pdf):
        out = id_overlap_securities(spark.createDataFrame(securities_pdf))
        assert_equivalent(
            out,
            """WITH ids AS (
                 SELECT DISTINCT record_id, source_id, id_value FROM (
                   SELECT record_id, source_id, isin AS id_value FROM sec
                   UNION ALL SELECT record_id, source_id, cusip FROM sec
                   UNION ALL SELECT record_id, source_id, valor FROM sec
                   UNION ALL SELECT record_id, source_id, sedol FROM sec
                 ) WHERE id_value <> ''
               )
               SELECT DISTINCT least(a.record_id, b.record_id) AS src,
                      greatest(a.record_id, b.record_id) AS dst
               FROM ids a JOIN ids b USING (id_value)
               WHERE a.record_id <> b.record_id
                 AND a.source_id <> b.source_id""",
            sec=securities_pdf,
        )

    def test_companies_via_securities(self, spark, companies_df,
                                      securities_df):
        out = id_overlap_companies(companies_df, securities_df)
        gt = companies_df.select("record_id", "gt_group")
        hits = (
            out.join(gt.withColumnRenamed("record_id", "src")
                       .withColumnRenamed("gt_group", "g1"), "src")
            .join(gt.select(F.col("record_id").alias("dst"),
                            F.col("gt_group").alias("g2")), "dst")
        )
        total = hits.count()
        same = hits.where(F.col("g1") == F.col("g2")).count()
        assert total > 0
        assert same / total > 0.8  # ID overlap is high-precision blocking


class TestIssuerMatch:
    def test_covers_intra_group_securities(self, spark, securities_df,
                                           gt_company_groups):
        out = issuer_match(securities_df, gt_company_groups)
        gt = securities_df.select("record_id", "company_entity_id")
        joined = (
            out.join(gt.withColumnRenamed("record_id", "src")
                       .withColumnRenamed("company_entity_id", "c1"), "src")
            .join(gt.select(F.col("record_id").alias("dst"),
                            F.col("company_entity_id").alias("c2")), "dst")
        )
        # With ground-truth company groups, every candidate's issuers are in
        # the same gt company group.
        comp_gt = {r["id"]: r["group"] for r in gt_company_groups.collect()}
        for r in joined.collect():
            pass  # join executed; per-row invariant checked below on sample
        sample = joined.limit(200).collect()
        sec_issuer = {r["record_id"]: r["company_record_id"]
                      for r in securities_df.select(
                          "record_id", "company_record_id").collect()}
        for r in sample:
            ga = comp_gt[sec_issuer[r["src"]]]
            gb = comp_gt[sec_issuer[r["dst"]]]
            assert ga == gb

    def test_no_cross_group_candidates(self, spark):
        secs = spark.createDataFrame(pd.DataFrame({
            "record_id": [1, 2], "source_id": [0, 1],
            "company_record_id": [10, 20],
        }))
        groups = spark.createDataFrame(pd.DataFrame({
            "id": [10, 20], "group": [100, 200]}))
        assert issuer_match(secs, groups).count() == 0

    def test_same_source_excluded(self, spark):
        secs = spark.createDataFrame(pd.DataFrame({
            "record_id": [1, 2], "source_id": [0, 0],
            "company_record_id": [10, 20],
        }))
        groups = spark.createDataFrame(pd.DataFrame({
            "id": [10, 20], "group": [100, 100]}))
        assert issuer_match(secs, groups).count() == 0
