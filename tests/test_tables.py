"""Smoke + correctness tests for the table harnesses (tiny scale)."""
import re
from types import SimpleNamespace

import duckdb
import pytest
from pyspark.sql import functions as F

import reproduce
from repro.core.pipeline import StageScores
from repro.entitygen import dataset as gen
from repro.matching import model as M
from repro.tables import paper_numbers, table2, table3, table4
from repro.tables.common import (ISSUERS, load_datasets, markdown_table, pct,
                                 train_models)
from repro.tables.table1 import run_table1
from repro.tables.table2 import run_table2
from repro.tables.table3 import run_cell

#: The models the paper reports per dataset (Tables 3 and 4), in order.
PAPER_MODELS = {
    "real_companies": ["ditto128", "ditto256", "distilbert128_all"],
    "synthetic_companies": ["ditto128", "ditto256", "distilbert128_15k",
                            "distilbert128_all"],
    "real_securities": ["ditto128", "ditto256", "distilbert128_all"],
    "synthetic_securities": ["ditto128", "ditto256", "distilbert128_15k",
                             "distilbert128_all"],
    "wdc_products": ["ditto128", "ditto256", "distilbert128_all"],
}


@pytest.fixture(scope="module")
def datasets(spark):
    return load_datasets(spark, n_groups_synth=80, n_groups_real=80,
                         n_wdc_records=200)


class TestCommon:
    def test_load_datasets_keys(self, datasets):
        assert set(datasets) == {
            "real_companies", "synthetic_companies", "real_securities",
            "synthetic_securities", "wdc_products"}

    def test_thresholds_match_paper(self, datasets):
        assert {name: (ds.gamma, ds.mu) for name, ds in datasets.items()} == {
            "real_companies": (40, 8), "synthetic_companies": (25, 5),
            "real_securities": (40, 8), "synthetic_securities": (25, 5),
            "wdc_products": (25, 5)}

    def test_dataset_models_match_paper_rows(self, monkeypatch, datasets):
        monkeypatch.setattr(M, "train", lambda records, kind, spec, seed:
                            spec.name)
        monkeypatch.setattr(table3, "run_cell", lambda ds, trained: {})
        models = train_models(datasets, seeds=(0,))
        rows = table3.run_table3(datasets, models)
        assert [(name, key) for name, key, _ in rows] == [
            (name, key) for name, keys in PAPER_MODELS.items()
            for key in keys]

    def test_issuer_datasets_exist(self, datasets):
        for sec, comp in ISSUERS.items():
            assert datasets[sec].kind == "securities"
            assert datasets[comp].kind == "companies"
            assert datasets[comp].securities is datasets[sec].records
            assert datasets[sec].securities is None

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
            for name, comp in ISSUERS.items()
        }
        rows = run_table2(datasets, gt_groups)
        assert {name: blockings for name, blockings, *_ in rows} == {
            "real_companies": "ID Overlap + Token Overlap",
            "synthetic_companies": "ID Overlap + Token Overlap",
            "real_securities": "ID Overlap + Issuer Match",
            "synthetic_securities": "ID Overlap + Issuer Match",
            "wdc_products": "Token Overlap"}
        for name, _, _, n_cand, _, _ in rows:
            assert n_cand > 0, name


class TestTable3:
    @pytest.mark.parametrize("name", ["synthetic_companies",
                                      "synthetic_securities"])
    def test_distilbert_all_cell(self, datasets, name):
        ds = datasets[name]
        model = M.train(ds.records, ds.kind, M.MODELS["distilbert128_all"],
                        seed=0)
        cell = run_cell(ds, {0: model})
        assert cell["f1"] > 50.0
        assert cell["train_seconds"] == round(model.train_seconds, 1)


class TestTable4:
    def test_run_order_puts_issuers_first(self, datasets):
        assert table4.run_order(datasets) == [
            "real_companies", "real_securities", "synthetic_companies",
            "synthetic_securities", "wdc_products"]

    def test_securities_read_their_issuers_groups(self, monkeypatch,
                                                  datasets):
        """With matching stubbed out: every paper row runs, each
        securities run gets the group assignment of its issuers' run with
        the same model (and ``run_table4`` returns it), and the three
        sensitivity variants follow synthetic companies' DistilBERT-ALL
        row."""
        scores = {"precision": 1.0, "recall": 1.0, "f1": 1.0, "purity": 1.0}
        calls = []

        def match(records, kind, model, gamma, mu, securities=None,
                  company_groups=None):
            calls.append((records, model, company_groups))
            return StageScores(scores, scores, scores, 0, 0.0,
                               assignment=(records, model), pred_edges=None)

        monkeypatch.setattr(table4, "run_group_matching", match)
        monkeypatch.setattr(table4, "post_stage",
                            lambda *args, **kwargs: (scores, None))
        models = {(name, key): {0: M.MODELS[key].name}
                  for name, keys in PAPER_MODELS.items() for key in keys}
        rows, issuer_groups = table4.run_table4(datasets, models)
        variants = [("synthetic_companies", f"distilbert128_all_{v}")
                    for v in ("mec", "halfgamma", "bc")]
        expected = []
        for name in table4.run_order(datasets):
            expected += [(name, key) for key in PAPER_MODELS[name]]
            if name == "synthetic_companies":
                expected += variants
        assert [(name, key) for name, key, _ in rows] == expected
        by_run = {(records, model): groups
                  for records, model, groups in calls}
        for sec, comp in ISSUERS.items():
            for key in PAPER_MODELS[sec]:
                model = M.MODELS[key].name
                groups = by_run[(datasets[sec].records, model)]
                assert groups[0] is datasets[comp].records
                assert groups[1] == model
                assert issuer_groups[(sec, key)] is groups
        assert len(issuer_groups) == sum(len(PAPER_MODELS[sec])
                                         for sec in ISSUERS)


class TestReproduce:
    def test_one_run_trains_each_model_once(self, monkeypatch, capsys, spark,
                                            datasets):
        """``jobs/reproduce.main`` with training, evaluation, matching and
        candidate generation stubbed, on the 80-group datasets: one session
        and one ``load_datasets``, one training per (dataset, model, seed),
        Table 4 on the seed-0 models Table 3 evaluated, Table 2's Issuer
        Match on Table 4's DistilBERT-ALL company assignments, and the
        tables printed in the order 1, 3, 4, 2."""
        scores = {"precision": 1.0, "recall": 1.0, "f1": 1.0, "purity": 1.0}
        starts, loads, trained, evaluated, matched, blocked = ([] for _ in
                                                               range(6))

        def train(records, kind, spec, seed):
            trained.append(SimpleNamespace(records=records, spec=spec,
                                           seed=seed, train_seconds=1.0))
            return trained[-1]

        def evaluate(model, records, kind, seed):
            evaluated.append((model, seed))
            return scores

        def match(records, kind, model, gamma, mu, securities=None,
                  company_groups=None):
            matched.append((records, kind, model))
            return StageScores(scores, scores, scores, 0, 0.0,
                               assignment=("groups", model), pred_edges=None)

        def candidates(kind, records, securities=None, company_groups=None):
            blocked.append((records, company_groups))
            return SimpleNamespace(count=lambda: 0)

        monkeypatch.setattr(reproduce, "get_spark",
                            lambda app: starts.append(app) or spark)
        monkeypatch.setattr(reproduce, "load_datasets",
                            lambda s, n_groups_synth: loads.append(s)
                            or datasets)
        monkeypatch.setattr(M, "train", train)
        monkeypatch.setattr(M, "evaluate_pairs", evaluate)
        monkeypatch.setattr(table4, "run_group_matching", match)
        monkeypatch.setattr(table4, "post_stage",
                            lambda *args, **kwargs: (scores, None))
        monkeypatch.setattr(table2, "candidate_pairs", candidates)

        out = reproduce.main(80, 2)

        assert len(starts) == 1 and len(loads) == 1
        cells = [(datasets[name].records, M.MODELS[key])
                 for name, keys in PAPER_MODELS.items() for key in keys]
        assert len(cells) == 17
        assert sorted((id(m.records), id(m.spec), m.seed) for m in trained) \
            == sorted((id(r), id(spec), seed) for r, spec in cells
                      for seed in (0, 1))
        assert sorted(id(m) for m, _ in evaluated) == sorted(map(id, trained))
        assert all(seed == m.seed + 100 for m, seed in evaluated)
        # Table 4: one run per paper row, each on the seed-0 model that
        # Table 3 evaluated; the company pipeline runs only there.
        assert len(matched) == 17
        assert sum(kind == "companies" for _, kind, _ in matched) == 7
        for records, _, model in matched:
            assert model.seed == 0 and model.records is records
            assert any(model is m for m, _ in evaluated)
        # Table 2: securities candidates read the DistilBERT-ALL companies.
        issuer_groups = {id(r): g for r, g in blocked if g is not None}
        assert len(blocked) == 5 and len(issuer_groups) == len(ISSUERS)
        for sec, comp in ISSUERS.items():
            groups = issuer_groups[id(datasets[sec].records)]
            assert groups[0] == "groups"
            assert groups[1].records is datasets[comp].records
            assert groups[1].spec is M.MODELS["distilbert128_all"]
        assert re.findall(r"^## Table (\d)$", out, re.M) == \
            ["1", "3", "4", "2"]
        assert capsys.readouterr().out.strip() == out.strip()


class TestPaperNumbers:
    def test_table4_stage_tuples(self):
        for ds, models in paper_numbers.TABLE4.items():
            for key, (pw, pre, post) in models.items():
                assert len(pw) == 3 and len(pre) == 4 and len(post) == 4

    def test_table3_triples(self):
        for ds, models in paper_numbers.TABLE3.items():
            for key, triple in models.items():
                assert len(triple) == 3

    def test_model_keys_consistent(self):
        from repro.matching.model import MODELS
        for ds, models in paper_numbers.TABLE3.items():
            for key in models:
                assert key in MODELS
