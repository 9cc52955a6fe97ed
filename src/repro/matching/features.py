"""Pair similarity features over truncated serializations.

The features only see the two *truncated subword-piece strings* — whatever
information truncation or chunking destroyed is unavailable, which is the
mechanism by which the surrogate reproduces the paper's model pathologies
(e.g. DITTO(128) losing identifier evidence on securities).

Computed with an Arrow ``pandas_udf`` — this is the "UDF calling the
fine-tuned model" stage of the pipeline, applied to the candidate-pair
DataFrame produced by blocking.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.functions import pandas_udf

from repro.matching.serialize import ID_RE
from repro.record_pairs import with_endpoints


def pair_features(ser_a: str, ser_b: str) -> list:
    """Six similarity features for one pair of serialized records."""
    ta, tb = ser_a.split(), ser_b.split()
    sa, sb = set(ta), set(tb)
    inter = sa & sb
    union = sa | sb
    jac = len(inter) / len(union) if union else 0.0
    cont = len(inter) / min(len(sa), len(sb)) if sa and sb else 0.0
    ga = {ser_a[i:i + 3] for i in range(max(0, len(ser_a) - 2))}
    gb = {ser_b[i:i + 3] for i in range(max(0, len(ser_b) - 2))}
    gu = ga | gb
    tri = len(ga & gb) / len(gu) if gu else 0.0
    ids = sum(1 for t in inter if ID_RE.match(t))
    idov = min(ids, 3) / 3.0
    rare = sum(1 for t in inter if len(t) >= 5 and not ID_RE.match(t))
    rareov = min(rare, 4) / 4.0
    lenr = (min(len(ta), len(tb)) / max(len(ta), len(tb))
            if ta and tb else 0.0)
    return [jac, cont, tri, idov, rareov, lenr]


def _features_udf():
    # Created lazily: a module-level pandas_udf would try to parse its DDL
    # return type at import time, which fails on executors (no session).
    @pandas_udf("array<double>")
    def feats(a: pd.Series, b: pd.Series) -> pd.Series:
        return pd.Series([
            pair_features(x or "", y or "")
            for x, y in zip(a.tolist(), b.tolist())
        ])

    return feats


def add_features(pairs: DataFrame, records_ser: DataFrame) -> DataFrame:
    """Join serialized records onto (src, dst) pairs and compute the
    ``features_arr`` column.

    ``records_ser`` must carry ``record_id`` and ``ser`` (from
    :func:`repro.matching.serialize.add_serialized`).
    """
    return with_endpoints(pairs, records_ser, "ser").withColumn(
        "features_arr", _features_udf()("ser_src", "ser_dst"))
