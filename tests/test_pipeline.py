"""Integration tests for the end-to-end entity group matching pipeline."""
import time

import pandas as pd
import pytest
from pyspark.sql import functions as F

import repro.core.gralmatch as gralmatch_mod
import repro.core.pipeline as pipeline_mod
from repro.checkpoint import materialize
from repro.core.gralmatch import gralmatch
from repro.core.pipeline import (candidate_pairs, full_assignment,
                                 post_stage, run_group_matching,
                                 serialized_records)
from repro.graph.connected_components import components_of_edges
from repro.matching import model as M
from repro.metrics.pairs import closure_scores, pairwise_scores
from repro.metrics.purity import cluster_purity

GAMMA, MU = 25, 5


@pytest.fixture(scope="module")
def company_model(companies_df):
    return M.train(companies_df, "companies", M.MODELS["distilbert128_all"],
                   seed=0)


@pytest.fixture(scope="module")
def securities_model(securities_df):
    return M.train(securities_df, "securities",
                   M.MODELS["distilbert128_all"], seed=0)


@pytest.fixture(scope="module")
def company_result(companies_df, securities_df, company_model):
    return run_group_matching(companies_df, "companies", company_model,
                              gamma=GAMMA, mu=MU, securities=securities_df)


class TestCandidatePairs:
    def test_companies_have_provenance_flag(self, companies_df,
                                            securities_df):
        cands = candidate_pairs("companies", companies_df,
                                securities=securities_df)
        assert set(cands.columns) == {"src", "dst", "from_token_overlap"}
        flags = {r["from_token_overlap"] for r in
                 cands.select("from_token_overlap").distinct().collect()}
        assert True in flags and False in flags

    def test_securities_use_issuer_and_ids(self, securities_df,
                                           gt_company_groups):
        cands = candidate_pairs("securities", securities_df,
                                company_groups=gt_company_groups)
        assert cands.count() > 0
        assert {r["from_token_overlap"] for r in
                cands.select("from_token_overlap").distinct().collect()} == {False}

    def test_products_token_only(self, wdc_df):
        cands = candidate_pairs("products", wdc_df)
        assert cands.count() > 0

    def test_unknown_kind_raises(self, companies_df):
        with pytest.raises(ValueError):
            candidate_pairs("nope", companies_df)

    def test_candidate_recall_covers_most_gt(self, companies_df,
                                             securities_df):
        """Blocking must surface most true pairs (paper: recall drop from
        blocking is moderate)."""
        from repro.metrics.pairs import pairwise_scores
        cands = candidate_pairs("companies", companies_df,
                                securities=securities_df)
        s = pairwise_scores(cands, companies_df)
        assert s["recall"] > 0.6


class TestFullAssignment:
    def test_covers_every_record(self, companies_df, company_result):
        asg = company_result.assignment
        assert asg.count() == companies_df.count()

    def test_singletons_self_grouped(self, spark, companies_df):
        asg = full_assignment(
            companies_df,
            spark.createDataFrame(pd.DataFrame({"id": [], "group": []}),
                                  schema="id long, group long"))
        rows = asg.collect()
        assert all(r["id"] == r["group"] for r in rows)


class TestPostStage:
    def test_labels_once_and_reproduces_run(self, monkeypatch, companies_df,
                                            company_result):
        """Stage 3 on the run's predictions, with the pre-cleanup the
        companies run applies, labels components once (inside
        ``gralmatch``) and reproduces the run's post scores."""
        calls = []

        def counting(edges, *args, **kwargs):
            calls.append(edges)
            return components_of_edges(edges, *args, **kwargs)

        for mod in (pipeline_mod, gralmatch_mod):
            monkeypatch.setattr(mod, "components_of_edges", counting)
        post, _ = post_stage(company_result.pred_edges, companies_df,
                             GAMMA, MU, apply_pre_cleanup=True)
        assert len(calls) == 1
        assert post == company_result.post_cleanup


class _NoMatch:
    """A model that scores every candidate 0.0; the pipeline reads only
    ``spec`` and ``predict`` of a model."""

    spec = M.MODELS["distilbert128_all"]

    def predict(self, pairs, records_ser):
        return pairs.withColumn("prediction", F.lit(0.0))


class TestNoPredictedEdges:
    def test_every_record_a_singleton(self, companies_df, securities_df):
        n_records = companies_df.count()
        for pre in (True, False):
            res = run_group_matching(companies_df, "companies", _NoMatch(),
                                     GAMMA, MU, securities=securities_df,
                                     apply_pre_cleanup=pre)
            rows = res.assignment.collect()
            assert len(rows) == n_records
            assert all(r["id"] == r["group"] for r in rows)
            assert res.n_candidates > 0
            assert res.pred_edges.count() == 0
            for stage in (res.pairwise, res.pre_cleanup, res.post_cleanup):
                assert stage["precision"] == 0.0
                assert stage["recall"] == 0.0
            assert res.pre_cleanup["purity"] == 1.0
            assert res.post_cleanup["purity"] == 1.0


class TestEndToEnd:
    def test_stage_scores_present(self, company_result):
        for d in (company_result.pairwise, company_result.pre_cleanup,
                  company_result.post_cleanup):
            assert {"precision", "recall", "f1"} <= set(d)
        assert "purity" in company_result.pre_cleanup
        assert "purity" in company_result.post_cleanup

    def test_cleanup_restores_precision(self, company_result):
        """The paper's central claim: Post Graph Cleanup precision far above
        Pre Graph Cleanup precision."""
        assert (company_result.post_cleanup["precision"]
                > company_result.pre_cleanup["precision"] + 0.1)
        assert company_result.post_cleanup["precision"] > 0.9

    def test_pre_cleanup_recall_at_least_pairwise(self, company_result):
        """Transitive closure only adds predicted pairs."""
        assert (company_result.pre_cleanup["recall"]
                >= company_result.pairwise["recall"] - 1e-9)

    def test_purity_improves_post_cleanup(self, company_result):
        assert (company_result.post_cleanup["purity"]
                >= company_result.pre_cleanup["purity"])

    def test_group_sizes_bounded_by_mu(self, company_result):
        sizes = (company_result.assignment.groupBy("group").count()
                 .agg(F.max("count")).first()[0])
        assert sizes <= 5

    def test_inference_time_recorded(self, company_result):
        assert company_result.inference_seconds > 0
        assert company_result.n_candidates > 0

    def test_securities_pipeline_with_company_assignment(
            self, securities_df, securities_model, company_result):
        res = run_group_matching(securities_df, "securities", securities_model,
                                 gamma=25, mu=5,
                                 company_groups=company_result.assignment)
        assert res.post_cleanup["f1"] > 0.5
        assert res.post_cleanup["precision"] > 0.8

    def test_transitive_discovery_of_no_id_groups(self, spark,
                                                  securities_df,
                                                  securities_model,
                                                  gt_company_groups):
        """Securities whose identifiers were wiped (NoIdOverlaps) can only
        be matched through the Issuer Match blocking — the paper's
        transitivity argument. With gt company groups, the pipeline must
        recover a decent share of their pairs."""
        res = run_group_matching(securities_df, "securities",
                                 securities_model, gamma=25, mu=5,
                                 company_groups=gt_company_groups)
        hard = securities_df.where(~F.col("easy_group")
                                   & ~F.col("acq_involved"))
        if hard.count() < 4:
            pytest.skip("no hard groups in tiny dataset")
        from repro.metrics.pairs import closure_scores
        hard_scores = closure_scores(
            res.assignment.join(
                hard.select(F.col("record_id").alias("id")), "id"),
            hard)
        assert hard_scores["recall"] > 0.2

    def test_wdc_pipeline_runs(self, wdc_df):
        model = M.train(wdc_df, "products", M.MODELS["distilbert128_all"],
                        seed=0)
        res = run_group_matching(wdc_df, "products", model, gamma=25, mu=5)
        assert res.post_cleanup["precision"] >= res.pre_cleanup["precision"]

    def test_wdc_cleanup_chops_large_groups(self, wdc_df):
        """Heterogeneous group sizes + fixed mu → post-cleanup recall drops
        below pre-cleanup recall (the paper's WDC finding)."""
        model = M.train(wdc_df, "products", M.MODELS["distilbert128_all"],
                        seed=0)
        res = run_group_matching(wdc_df, "products", model, gamma=25, mu=5)
        assert res.post_cleanup["recall"] < res.pre_cleanup["recall"]


_GROUP = "spark.jobGroup.id"


def _mark(sc, name: str) -> int:
    """Id of a one-task marker job run in a job group of its own, read once
    the status store has recorded it (and so every earlier job)."""
    sc.setLocalProperty(_GROUP, name)
    try:
        sc.parallelize([0], 1).count()
    finally:
        sc.setLocalProperty(_GROUP, None)
    tracker = sc.statusTracker()
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        ids = tracker.getJobIdsForGroup(name)
        if ids and tracker.getJobInfo(ids[0]).status == "SUCCEEDED":
            return ids[0]
        time.sleep(0.01)
    raise RuntimeError(f"marker {name} not recorded")


def _sequential(records, kind, model, pre, **inputs):
    """The pipeline as one public function after another, each output
    forced before the next starts."""
    cands = materialize(candidate_pairs(kind, records, **inputs))
    n_candidates = cands.count()
    ser = serialized_records(records, kind, model.spec)
    pred = materialize(model.predict(cands, ser).where(
        F.col("prediction") == 1.0).select("src", "dst",
                                            "from_token_overlap"))
    pairwise = pairwise_scores(pred, records)
    pre_labels = components_of_edges(pred).withColumnRenamed(
        "component", "group")
    pre_scores = closure_scores(pre_labels, records)
    pre_scores["purity"] = cluster_purity(pre_labels, records)
    post_labels = materialize(gralmatch(pred, GAMMA, MU, pre))
    post = closure_scores(post_labels, records)
    post["purity"] = cluster_purity(post_labels, records)
    return {"pairwise": pairwise, "pre": pre_scores, "post": post,
            "n_candidates": n_candidates, "edges": pred,
            "assignment": full_assignment(records, post_labels)}


def _rows(df) -> list:
    return sorted(tuple(r) for r in df.collect())


@pytest.fixture(scope="module", params=[
    ("companies", True), ("companies", False), ("securities", False)],
    ids=["companies_pre", "companies_nopre", "securities"])
def concurrent_run(request, spark, companies_df, securities_df,
                   gt_company_groups, company_model, securities_model):
    """One ``run_group_matching`` call and its assignment collect, run in a
    job group between two marker jobs, plus the sequential reference."""
    kind, pre = request.param
    if kind == "companies":
        records, model = companies_df, company_model
        inputs = {"securities": securities_df}
    else:
        records, model = securities_df, securities_model
        inputs = {"company_groups": gt_company_groups}
    sc = spark.sparkContext
    group = f"test-pipeline-{request.param_index}"
    first = _mark(sc, f"{group}-before")
    sc.setLocalProperty(_GROUP, group)
    try:
        res = run_group_matching(records, kind, model, GAMMA, MU,
                                 apply_pre_cleanup=pre, **inputs)
        assignment = _rows(res.assignment)
    finally:
        sc.setLocalProperty(_GROUP, None)
    last = _mark(sc, f"{group}-after")
    group_ids = sorted(sc.statusTracker().getJobIdsForGroup(group))
    ref = _sequential(records, kind, model, pre, **inputs)
    return {"res": res, "assignment": assignment, "ref": ref,
            "between": list(range(first + 1, last)), "group_ids": group_ids}


class TestConcurrentBranches:
    def test_every_job_in_callers_group(self, concurrent_run):
        """The rule the benchmark's job count checks: the jobs run between
        the markers are exactly the jobs of the caller's group."""
        assert concurrent_run["group_ids"] == concurrent_run["between"]
        assert len(concurrent_run["between"]) > 50

    def test_equals_sequential_composition(self, concurrent_run):
        res, ref = concurrent_run["res"], concurrent_run["ref"]
        assert res.pairwise == ref["pairwise"]
        assert res.pre_cleanup == ref["pre"]
        assert res.post_cleanup == ref["post"]
        assert res.n_candidates == ref["n_candidates"]
        assert _rows(res.pred_edges) == _rows(ref["edges"])
        assert concurrent_run["assignment"] == _rows(ref["assignment"])


class TestPreCleanupDefault:
    def test_securities_default_equals_off(self, securities_df,
                                           securities_model,
                                           gt_company_groups):
        """The pre-cleanup (on by default) drops only Token-Overlap edges;
        securities blocking finds none, so it changes nothing there."""
        default = run_group_matching(securities_df, "securities",
                                     securities_model, GAMMA, MU,
                                     company_groups=gt_company_groups)
        off = run_group_matching(securities_df, "securities",
                                 securities_model, GAMMA, MU,
                                 company_groups=gt_company_groups,
                                 apply_pre_cleanup=False)
        assert default.pairwise == off.pairwise
        assert default.pre_cleanup == off.pre_cleanup
        assert default.post_cleanup == off.post_cleanup
        assert _rows(default.assignment) == _rows(off.assignment)
