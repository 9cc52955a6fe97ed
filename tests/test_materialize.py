"""Tests for ``repro.checkpoint.materialize``."""
import pytest
from pyspark.sql import functions as F

import repro.core.pipeline
import repro.graph.connected_components
from repro.checkpoint import materialize

SCHEMA = "id long not null, name string, tokens array<string>, score double"


def _size_in_bytes(df) -> int:
    stats = df._jdf.queryExecution().optimizedPlan().stats()
    return int(stats.sizeInBytes())


@pytest.fixture
def table(spark):
    """60 rows in 7 partitions, with a nullable, an array and a non-null
    column; built from ``range`` so its plan carries a real size estimate."""
    name = F.concat(F.lit("name "), F.col("id").cast("string"))
    return spark.range(60).select(
        "id",
        F.when(F.col("id") % 5 != 0, name).alias("name"),
        F.array(F.concat(F.lit("t"), (F.col("id") % 3).cast("string")),
                F.concat(F.lit("u"), (F.col("id") % 4).cast("string"))
                ).alias("tokens"),
        (F.col("id") / 7).alias("score"),
    ).repartition(7)


class TestMaterialize:
    def test_same_rows_schema_and_partitions(self, table):
        out = materialize(table)
        assert out.schema == table.schema
        assert not out.schema["id"].nullable
        assert out.schema["name"].nullable
        assert out.rdd.getNumPartitions() == table.rdd.getNumPartitions() == 7
        assert sorted(out.collect()) == sorted(table.collect())

    def test_size_estimate_reset_to_default(self, spark, table):
        default = spark._jsparkSession.sessionState().conf() \
            .defaultSizeInBytes()
        assert _size_in_bytes(table) < default
        assert _size_in_bytes(materialize(table)) == default

    def test_plan_is_a_scan_of_the_checkpoint(self, table):
        out = materialize(table)
        plan = out._jdf.queryExecution().executedPlan().toString()
        assert "Scan ExistingRDD" in plan
        assert "Exchange" not in plan

    def test_scan_stays_in_the_jvm(self, table):
        """No Python RDD under the materialized table, so reading it starts
        no Python worker."""
        out = materialize(table)
        lineage = out._jdf.queryExecution().toRdd().toDebugString()
        assert "PythonRDD" not in lineage

    def test_empty_round_trips(self, spark):
        empty = spark.createDataFrame([], SCHEMA)
        out = materialize(empty)
        assert out.schema == empty.schema
        assert out.count() == 0
        assert out.rdd.getNumPartitions() == empty.rdd.getNumPartitions()

    def test_importable_where_benchmark_imports_it(self):
        assert repro.graph.connected_components.materialize is materialize
        assert repro.core.pipeline.materialize is materialize
