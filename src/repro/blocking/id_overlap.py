"""ID Overlap blocking (paper Section 5.3.1, blocking 1).

Securities: candidate pairs are security records across different sources
sharing any identifier *value* (ISIN/CUSIP/VALOR/SEDOL — values are matched
across identifier fields too: the paper's Figure 2 shows drifted records
where a CUSIP value shows up in another source's ISIN column).

Companies: a company pair is a candidate when any security issued by one
shares an identifier value with any security issued by the other — the
benchmark heuristic used for financial records.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.record_pairs import (canonical_pairs, cross_source_pairs,
                                with_endpoints)

ID_COLS = ("isin", "cusip", "valor", "sedol")


def melt_ids(securities: DataFrame) -> DataFrame:
    """(record_id, source_id, company_record_id, id_value), non-empty only."""
    pairs = F.array(*[
        F.struct(F.lit(c).alias("id_type"), F.col(c).alias("id_value"))
        for c in ID_COLS
    ])
    return (
        securities.select(
            "record_id", "source_id", "company_record_id",
            F.explode(pairs).alias("kv"),
        )
        .select("record_id", "source_id", "company_record_id",
                F.col("kv.id_value").alias("id_value"))
        .where(F.col("id_value") != "")
        .distinct()
    )


def id_overlap_securities(securities: DataFrame) -> DataFrame:
    """Security candidate pairs (src, dst) sharing an identifier value."""
    return canonical_pairs(cross_source_pairs(melt_ids(securities), "id_value"))


def id_overlap_companies(companies: DataFrame, securities: DataFrame) -> DataFrame:
    """Company candidate pairs whose issued securities share an identifier."""
    pairs = canonical_pairs(cross_source_pairs(
        melt_ids(securities), "id_value", rec="company_record_id"))
    # Keep only pairs whose endpoints are actual company records (a security
    # may reference an issuer record missing from the company table).
    return with_endpoints(pairs, companies)
