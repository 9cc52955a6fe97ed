"""Tests for pair similarity features."""
import pytest

from repro.matching.features import pair_features


class TestPairFeatures:
    def test_length(self):
        assert len(pair_features("a b c", "a b d")) == 6

    def test_identical_strings(self):
        f = pair_features("acme corp zurich", "acme corp zurich")
        jac, cont, tri, idov, rare, lenr = f
        assert jac == 1.0 and cont == 1.0 and tri == 1.0 and lenr == 1.0

    def test_disjoint_strings(self):
        f = pair_features("aaa bbb", "ccc ddd")
        assert f[0] == 0.0 and f[1] == 0.0 and f[3] == 0.0

    def test_jaccard_half_overlap(self):
        f = pair_features("a b", "b c")
        assert f[0] == pytest.approx(1 / 3)
        assert f[1] == pytest.approx(1 / 2)

    def test_id_overlap_counts_identifier_tokens(self):
        f = pair_features("acme us318077dsie", "umbrella us318077dsie")
        assert f[3] == pytest.approx(1 / 3)

    def test_id_overlap_saturates_at_three(self):
        ids = "a1b2c3x a1b2c3y a1b2c3z a1b2c3w"
        f = pair_features(ids, ids)
        assert f[3] == 1.0

    def test_short_or_digitless_tokens_not_ids(self):
        f = pair_features("abc abcdef", "abc abcdef")
        assert f[3] == 0.0  # no digit → not identifier-shaped

    def test_rare_overlap_counts_long_tokens(self):
        f = pair_features("zorvex energy", "zorvex capital")
        assert f[4] == pytest.approx(1 / 4)

    def test_len_ratio(self):
        f = pair_features("a b c d", "a b")
        assert f[5] == pytest.approx(0.5)

    def test_empty_strings(self):
        f = pair_features("", "")
        assert all(v == 0.0 for v in f)

    def test_one_empty(self):
        f = pair_features("a b", "")
        assert f[0] == 0.0 and f[5] == 0.0

    def test_symmetry(self):
        a, b = "acme corp us31807 zurich", "acme inc us31807 geneva"
        assert pair_features(a, b) == pair_features(b, a)

    def test_all_in_unit_interval(self):
        f = pair_features("zorvex energy us318077dsie x", "zorvex us318077dsie")
        assert all(0.0 <= v <= 1.0 for v in f)


class TestAddFeaturesSpark:
    def test_features_join_and_compute(self, spark):
        import pandas as pd
        from pyspark.sql import functions as F
        from repro.matching.features import add_features
        recs = spark.createDataFrame(pd.DataFrame({
            "record_id": [1, 2, 3],
            "ser": ["acme corp", "acme corp", "zorvex energy"],
        }))
        pairs = spark.createDataFrame(pd.DataFrame({
            "src": [1, 1], "dst": [2, 3]}))
        out = add_features(pairs, recs).select("src", "dst", "features_arr")
        rows = {(r["src"], r["dst"]): r["features_arr"]
                for r in out.collect()}
        assert rows[(1, 2)][0] == pytest.approx(1.0)
        assert rows[(1, 3)][0] == pytest.approx(0.0)

    def test_matches_python_reference(self, spark):
        import pandas as pd
        from repro.matching.features import add_features
        sers = ["zorvex energy us1234567", "zorvex capital us1234567",
                "acme networks", "acme networks gmbh"]
        recs = spark.createDataFrame(pd.DataFrame({
            "record_id": [0, 1, 2, 3], "ser": sers}))
        pairs = spark.createDataFrame(pd.DataFrame({
            "src": [0, 2], "dst": [1, 3]}))
        out = {(r["src"], r["dst"]): list(r["features_arr"])
               for r in add_features(pairs, recs).collect()}
        assert out[(0, 1)] == pytest.approx(pair_features(sers[0], sers[1]))
        assert out[(2, 3)] == pytest.approx(pair_features(sers[2], sers[3]))
