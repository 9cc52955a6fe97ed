"""Record pairs ``(src, dst)``: the rules every pair table is built with.

The three blockings of Section 5.3.1 share one rule: a candidate is two
different records, from different sources, that share a key (an
identifier value, a token, an issuer's matched group). Scoring, training
and the metrics share another: look a record column up at both ends of a
pair. Each is stated here once.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def canonical_pairs(pairs: DataFrame) -> DataFrame:
    """Undirected dedup: order endpoints, drop self-pairs and duplicates."""
    return (
        pairs.select(
            F.least(F.col("src"), F.col("dst")).alias("src"),
            F.greatest(F.col("src"), F.col("dst")).alias("dst"),
        )
        .where(F.col("src") != F.col("dst"))
        .distinct()
    )


def cross_source_pairs(records: DataFrame, key: str,
                       rec: str = "record_id") -> DataFrame:
    """``(src, dst)`` of every two rows of ``records`` that share ``key``
    but differ in ``rec`` and in ``source_id``; both orientations, and
    duplicates when the rows repeat a pair."""
    a, b = records.alias("a"), records.alias("b")
    return a.join(b, key).where(
        (F.col(f"a.{rec}") != F.col(f"b.{rec}"))
        & (F.col("a.source_id") != F.col("b.source_id"))
    ).select(F.col(f"a.{rec}").alias("src"), F.col(f"b.{rec}").alias("dst"))


def with_endpoints(pairs: DataFrame, records: DataFrame,
                   *cols: str) -> DataFrame:
    """Inner-join ``records`` by ``record_id`` at ``src``, then at ``dst``,
    exposing each of ``cols`` as ``<col>_src`` / ``<col>_dst``. A pair
    with an end that is not in ``records`` drops."""
    for end in ("src", "dst"):
        pairs = pairs.join(records.select(
            F.col("record_id").alias(end),
            *[F.col(c).alias(f"{c}_{end}") for c in cols]), end)
    return pairs
