"""Token Overlap blocking (paper Section 5.3.1, blocking 2).

Each record is tokenized (lower-cased name + city, punctuation stripped);
candidate pairs are, per record, the top-n records from *other* data
sources with the most overlapping tokens. A document-frequency cap drops
ubiquitous tokens (corporate suffixes like "inc", "ltd") that would
otherwise create a quadratic token-join blowup without carrying matching
signal — the collision-prone mid-frequency terms ("energy", "networks")
that drive the paper's false positives stay below the cap.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.record_pairs import canonical_pairs, cross_source_pairs

N_TOP = 5  # candidates kept per record (Section 5.3.1)
#: Tokens on more than ``max(MIN_DF_CAP, MAX_DF_FRAC * #records)`` drop.
MAX_DF_FRAC = 0.05
MIN_DF_CAP = 50


def tokenize(records: DataFrame, text_cols: tuple = ("name", "city")) -> DataFrame:
    """(record_id, source_id, token) — distinct tokens of length >= 3."""
    text = F.concat_ws(" ", *[F.coalesce(F.col(c), F.lit("")) for c in text_cols])
    return (
        records.select(
            "record_id", "source_id",
            F.explode(
                F.split(F.regexp_replace(F.lower(text), r"[^a-z0-9 ]", " "), r"\s+")
            ).alias("token"),
        )
        .where(F.length("token") >= 3)
        .distinct()
    )


def token_overlap(records: DataFrame,
                  text_cols: tuple = ("name", "city")) -> DataFrame:
    """Top-N_TOP token-overlap candidate pairs (src, dst) across sources."""
    toks = tokenize(records, text_cols)
    n_records = records.count()
    cap = max(MIN_DF_CAP, int(n_records * MAX_DF_FRAC))
    rare = (
        toks.groupBy("token").agg(F.count("*").alias("df"))
        .where(F.col("df") <= cap)
        .select("token")
    )
    overlaps = (
        cross_source_pairs(toks.join(rare, "token"), "token")
        .groupBy("src", "dst")
        .agg(F.count("*").alias("overlap"))
    )
    w = Window.partitionBy("src").orderBy(F.desc("overlap"), F.asc("dst"))
    top = overlaps.withColumn("rank", F.row_number().over(w)).where(
        F.col("rank") <= N_TOP
    )
    return canonical_pairs(top)
