"""Shared test fixtures: small generated datasets, reused session-wide.

The Spark session itself comes from the repo-root conftest. Dataset
fixtures are session-scoped and checkpointed so the ~tens of Spark tests
share one small generation instead of rebuilding per test.
"""
import numpy as np
import pytest

from repro.checkpoint import materialize
from repro.entitygen import dataset as gen
from repro.entitygen.artifacts import GenConfig, plan_artifacts
from repro.entitygen.wdc import wdc_products
from repro.matching.splits import add_split


@pytest.fixture(scope="session")
def tiny_cfg() -> GenConfig:
    return GenConfig(n_groups=120, seed=3)


@pytest.fixture(scope="session")
def tiny_plan(tiny_cfg):
    return plan_artifacts(tiny_cfg, np.random.default_rng(tiny_cfg.seed))


@pytest.fixture(scope="session")
def tiny_pdfs():
    """(companies_pdf, securities_pdf) at 120 groups, deterministic."""
    return gen.synthetic(120, seed=3)


@pytest.fixture(scope="session")
def companies_pdf(tiny_pdfs):
    return tiny_pdfs[0]


@pytest.fixture(scope="session")
def securities_pdf(tiny_pdfs):
    return tiny_pdfs[1]


@pytest.fixture(scope="session")
def companies_df(spark, companies_pdf):
    return materialize(add_split(spark.createDataFrame(companies_pdf)))


@pytest.fixture(scope="session")
def securities_df(spark, securities_pdf):
    return materialize(add_split(spark.createDataFrame(securities_pdf)))


@pytest.fixture(scope="session")
def wdc_pdf():
    return wdc_products(300, seed=5)


@pytest.fixture(scope="session")
def wdc_df(spark, wdc_pdf):
    return materialize(add_split(spark.createDataFrame(wdc_pdf)))


@pytest.fixture(scope="session")
def gt_company_groups(spark, companies_pdf):
    """Ground-truth company assignment (id, group) for issuer-match tests."""
    pdf = companies_pdf[["record_id", "gt_group"]].rename(
        columns={"record_id": "id", "gt_group": "group"})
    return materialize(spark.createDataFrame(pdf))
