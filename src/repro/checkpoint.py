"""``materialize``: the one way the pipeline pins an intermediate table.

Blocking inputs, candidate pairs, predictions, the connected-components
rounds and the final labels are all read more than once. Each is
checkpointed once and every later read scans the checkpoint.
"""
from __future__ import annotations

from pyspark.sql import DataFrame


def materialize(df: DataFrame) -> DataFrame:
    """Eagerly checkpoint ``df`` and drop its inherited plan statistics.

    ``localCheckpoint`` truncates lineage but *preserves* the origin plan's
    Catalyst statistics. Join size estimates are multiplicative, so in an
    iterative join loop (connected components) the preserved sizeInBytes
    compounds — the self-join squares it every round — until Catalyst spends
    minutes multiplying million-digit BigIntegers during planning.
    Rebuilding the Dataset over the checkpointed rows resets the estimate to
    ``spark.sql.defaultSizeInBytes``.

    The rebuild stays in the JVM: ``createDataFrame`` is called on the JVM
    session with the checkpoint's ``JavaRDD[Row]``. Rebuilding from the
    Python side (``createDataFrame(cp.rdd, cp.schema)``) gives the same
    ``Scan ExistingRDD`` plan, but over a Python RDD, so every later scan
    would start Python workers and pickle each row out of the JVM and back.
    Both keep the schema (nullability included) and the partition count.
    """
    spark = df.sparkSession
    cp = df.localCheckpoint(eager=True)
    jdf = spark._jsparkSession.createDataFrame(cp._jdf.javaRDD(),
                                               cp._jdf.schema())
    return DataFrame(jdf, spark)
