"""Issuer Match blocking (paper Section 5.3.1, blocking 3 — securities only).

Given a previous *company* matching (an assignment of company records to
matched groups), two security records become a candidate pair when their
issuers landed in the same matched company group. This is what lets
securities with wiped identifiers (NoIdOverlaps) and generic names
("Equity Shares") be matched at all.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.record_pairs import canonical_pairs, cross_source_pairs


def issuer_match(securities: DataFrame, company_groups: DataFrame) -> DataFrame:
    """Security candidate pairs whose issuers share a matched company group.

    ``company_groups``: (id, group) over company record ids — the output of
    the company entity group matching (or ground truth, in tests).
    """
    secs = securities.select("record_id", "source_id", "company_record_id")
    tagged = secs.join(
        company_groups.withColumnRenamed("id", "company_record_id"),
        "company_record_id",
    )
    return canonical_pairs(cross_source_pairs(tagged, "group"))
