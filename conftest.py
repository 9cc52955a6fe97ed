"""Session-wide Spark fixture, built by ``jobs/_session.get_spark``.

Importing ``_session`` here, at conftest import (pytest loads this before
any test module), puts the driver memory into ``PYSPARK_SUBMIT_ARGS``
before pyspark is imported anywhere.
"""
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "jobs"))
from _session import get_spark  # noqa: E402


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session."""
    s = get_spark("repro")
    # One line in the test output that tells whether the cgroup
    # derivation saw the real limit (README § Spark target).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
