"""Smoke + correctness tests for the table harnesses (tiny scale)."""
import duckdb
import pytest
from pyspark.sql import functions as F

from repro.entitygen import dataset as gen
from repro.tables import paper_numbers
from repro.tables.common import (DATASET_MODELS, THRESHOLDS, load_datasets,
                                 markdown_table, pct)
from repro.tables.table1 import run_table1
from repro.tables.table2 import run_table2
from repro.tables.table3 import run_cell


@pytest.fixture(scope="module")
def datasets(spark):
    return load_datasets(spark, n_groups_synth=80, n_groups_real=80,
                         n_wdc_records=200)


class TestCommon:
    def test_load_datasets_keys(self, datasets):
        assert set(datasets) == {
            "real_companies", "synthetic_companies", "real_securities",
            "synthetic_securities", "wdc_products"}

    def test_thresholds_match_paper(self):
        assert THRESHOLDS["real_companies"] == (40, 8)
        assert THRESHOLDS["synthetic_companies"] == (25, 5)
        assert THRESHOLDS["wdc_products"] == (25, 5)

    def test_dataset_models_match_paper_rows(self):
        assert "distilbert128_15k" in DATASET_MODELS["synthetic_companies"]
        assert "distilbert128_15k" not in DATASET_MODELS["real_companies"]

    def test_pct(self):
        assert pct(0.12345) == 12.35

    def test_markdown_table(self):
        md = markdown_table([(1, "a")], ["x", "y"])
        assert md.splitlines()[0] == "| x | y |"
        assert "| 1 | a |" in md

    def test_split_column_present(self, datasets):
        for ds in datasets.values():
            assert "split" in ds.records.columns


class TestTable1:
    def test_stats_match_duckdb(self, datasets):
        pdf = datasets["synthetic_companies"].records.toPandas()
        got = gen.stats(pdf)
        exp = duckdb.sql(
            """SELECT COUNT(DISTINCT source_id), COUNT(DISTINCT gt_group),
                      COUNT(*) FROM pdf"""
        ).fetchone()
        assert (got["n_sources"], got["n_entities"], got["n_records"]) == exp
        exp_matches = duckdb.sql(
            """SELECT COALESCE(SUM(n*(n-1)/2),0) FROM
               (SELECT COUNT(*) n FROM pdf GROUP BY gt_group)"""
        ).fetchone()[0]
        assert got["n_matches"] == int(exp_matches)

    def test_run_table1_rows(self, datasets):
        rows = run_table1(datasets)
        assert [r[0] for r in rows] == [
            "real_companies", "synthetic_companies", "real_securities",
            "synthetic_securities"]
        for _, stats in rows:
            assert stats["n_records"] > 0
            assert stats["n_matches"] > 0


class TestTable2:
    def test_every_dataset_has_candidates(self, datasets):
        # Issuer Match on ground-truth company groups, so blocking is
        # checked without training a company model first.
        gt_groups = {
            name: datasets[comp].records.select(
                F.col("record_id").alias("id"),
                F.col("gt_group").alias("group"))
            for name, comp in (("real_securities", "real_companies"),
                               ("synthetic_securities", "synthetic_companies"))
        }
        rows = run_table2(datasets, gt_groups)
        assert len(rows) == 5
        for name, _, _, n_cand, _, _ in rows:
            assert n_cand > 0, name


class TestTable3:
    @pytest.mark.parametrize("name", ["synthetic_companies",
                                      "synthetic_securities"])
    def test_distilbert_all_cell(self, datasets, name):
        cell = run_cell(datasets[name], "distilbert128_all", seeds=(0,))
        assert cell["f1"] > 50.0


class TestPaperNumbers:
    def test_table4_stage_tuples(self):
        for ds, models in paper_numbers.TABLE4.items():
            for key, (pw, pre, post) in models.items():
                assert len(pw) == 3 and len(pre) == 4 and len(post) == 4

    def test_table3_triples(self):
        for ds, models in paper_numbers.TABLE3.items():
            for key, triple in models.items():
                assert len(triple) == 3

    def test_table2_matches_thresholds(self):
        for ds, (_, _, _, gamma, mu) in paper_numbers.TABLE2.items():
            assert (gamma, mu) == THRESHOLDS[ds]

    def test_model_keys_consistent(self):
        from repro.matching.model import MODELS
        for ds, models in paper_numbers.TABLE3.items():
            for key in models:
                assert key in MODELS
