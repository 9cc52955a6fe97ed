"""Tests for the LM-surrogate model registry, training, and prediction."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.matching import model as M


class TestRegistry:
    def test_four_models(self):
        assert set(M.MODELS) == {"ditto128", "ditto256",
                                 "distilbert128_all", "distilbert128_15k"}

    def test_specs(self):
        assert M.MODELS["ditto128"].scheme == "ditto"
        assert M.MODELS["ditto128"].max_len == 128
        assert M.MODELS["ditto256"].max_len == 256
        assert M.MODELS["distilbert128_all"].scheme == "plain"
        assert M.MODELS["distilbert128_15k"].train_mode == "15k"

    def test_ser_cols_cover_kinds(self):
        assert set(M.SER_COLS) == {"companies", "securities", "products"}


class TestTrainPredict:
    @pytest.fixture(scope="class")
    def trained(self, companies_df):
        return M.train(companies_df, "companies",
                       M.MODELS["distilbert128_all"], seed=0)

    def test_training_converges_on_separable_signal(self, trained,
                                                    companies_df):
        ev = M.evaluate_pairs(trained, companies_df, "companies", seed=5)
        assert ev["f1"] > 0.8

    def test_train_seconds_recorded(self, trained):
        assert trained.train_seconds > 0

    def test_predict_schema(self, trained, companies_df, spark):
        ser = M.serialized_records(companies_df, "companies", trained.spec)
        ids = [r["record_id"] for r in companies_df.limit(4).collect()]
        pairs = spark.createDataFrame(pd.DataFrame({
            "src": ids[:2], "dst": ids[2:]}))
        out = trained.predict(pairs, ser)
        assert set(out.columns) == {"src", "dst", "prediction"}
        rows = out.collect()
        assert all(r["prediction"] in (0.0, 1.0) for r in rows)

    def test_identical_records_predicted_match(self, trained, spark):
        ser = spark.createDataFrame(pd.DataFrame({
            "record_id": [1, 2],
            "ser": ["zorvex energy zurich"] * 2}))
        pairs = spark.createDataFrame(pd.DataFrame({"src": [1], "dst": [2]}))
        row = trained.predict(pairs, ser).first()
        assert row["prediction"] == 1.0

    def test_disjoint_records_predicted_nomatch(self, trained, spark):
        ser = spark.createDataFrame(pd.DataFrame({
            "record_id": [1, 2],
            "ser": ["zorvex energy zurich", "completely unrelated tokyo"]}))
        pairs = spark.createDataFrame(pd.DataFrame({"src": [1], "dst": [2]}))
        row = trained.predict(pairs, ser).first()
        assert row["prediction"] == 0.0

    def test_15k_trains_and_evaluates(self, companies_df):
        t = M.train(companies_df, "companies", M.MODELS["distilbert128_15k"],
                    seed=0)
        ev = M.evaluate_pairs(t, companies_df, "companies", seed=5)
        assert ev["f1"] > 0.7

    def test_evaluate_math(self, trained, companies_df):
        ev = M.evaluate_pairs(trained, companies_df, "companies", seed=5)
        assert set(ev) == {"precision", "recall", "f1"}
        p, r, f1 = ev["precision"], ev["recall"], ev["f1"]
        if p + r:
            assert f1 == pytest.approx(2 * p * r / (p + r))


class TestSerializedRecords:
    def test_column_added(self, companies_df):
        ser = M.serialized_records(companies_df, "companies",
                                   M.MODELS["ditto128"])
        assert "ser" in ser.columns
        row = ser.select("ser").first()
        assert isinstance(row["ser"], str) and row["ser"]

    def test_ditto_vs_plain_differ(self, companies_df):
        d = M.serialized_records(companies_df, "companies",
                                 M.MODELS["ditto256"]).select(
            "record_id", "ser").toPandas()
        p = M.serialized_records(companies_df, "companies",
                                 M.MODELS["distilbert128_all"]).select(
            "record_id", "ser").toPandas()
        merged = d.merge(p, on="record_id", suffixes=("_d", "_p"))
        assert (merged["ser_d"] != merged["ser_p"]).all()

    def test_securities_kind(self, securities_df):
        ser = M.serialized_records(securities_df, "securities",
                                   M.MODELS["distilbert128_all"])
        assert ser.select("ser").first()["ser"]
