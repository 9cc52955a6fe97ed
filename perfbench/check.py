"""Output check of one pipeline run, independent of Spark.

DuckDB recomputes the closure precision, recall, F1 and Cluster Purity of
the collected final assignment from the generated ground truth; they must
equal the scores the pipeline reported. The digest identifies the
assignment. ``reference.json`` holds, per workload, the digest, the Spark
job count and the quality scores of a validated run. The seed only permutes
the input rows, so a run on any seed must reproduce them exactly. A change
that alters any of them on purpose records the new values with
``run.py --record``.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Values of a run that must repeat exactly on every seed.
REPEATED = ("digest", "spark_jobs", "pairwise_f1", "pre_precision",
            "post_precision", "post_f1", "post_purity")

_SQL = """
WITH a AS (
    SELECT asg.id, asg."group" AS g, gt.gt_group AS gt
    FROM asg JOIN gt ON asg.id = gt.record_id
),
groups AS (SELECT g, count(*) AS nv FROM a GROUP BY g),
cells AS (SELECT g, gt, count(*) AS n FROM a GROUP BY g, gt),
tp_g AS (SELECT g, sum(n * (n - 1) // 2) AS tp FROM cells GROUP BY g),
gt_sizes AS (SELECT gt_group, count(*) AS n FROM gt GROUP BY gt_group)
SELECT
    (SELECT sum(nv * (nv - 1) // 2) FROM groups) AS predicted,
    (SELECT sum(tp) FROM tp_g) AS tp,
    (SELECT sum(n * (n - 1) // 2) FROM gt_sizes) AS gt_pairs,
    (SELECT sum(CASE WHEN nv > 1
                     THEN nv * tp / (nv * (nv - 1) / 2.0) ELSE nv END)
            / sum(nv)
     FROM groups JOIN tp_g USING (g)) AS purity
"""


def closure_scores(assignment: pd.DataFrame, gt: pd.DataFrame) -> dict:
    """Closure P/R/F1 and purity of a full ``(id, group)`` assignment
    against ``gt`` (``record_id``, ``gt_group``)."""
    con = duckdb.connect()
    try:
        con.register("asg", assignment)
        con.register("gt", gt)
        predicted, tp, gt_pairs, purity = con.execute(_SQL).fetchone()
    finally:
        con.close()
    predicted, tp, gt_pairs = int(predicted or 0), int(tp or 0), int(gt_pairs or 0)
    p = tp / predicted if predicted else 0.0
    r = tp / gt_pairs if gt_pairs else 0.0
    return {"precision": p, "recall": r,
            "f1": 0.0 if p + r == 0 else 2 * p * r / (p + r),
            "purity": float(purity), "tp": tp, "predicted": predicted}


def digest(assignment: pd.DataFrame) -> str:
    """Order-independent hash of an ``(id, group)`` assignment."""
    arr = assignment[["id", "group"]].to_numpy(dtype=np.int64)
    arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def problems(assignment: pd.DataFrame, gt: pd.DataFrame, pre: dict,
             post: dict) -> list:
    """Why the run's output is wrong; empty when it passes."""
    out = []
    if len(assignment) != len(gt) or set(assignment["id"]) != set(gt["record_id"]):
        out.append("assignment does not cover every record exactly once")
    ref = closure_scores(assignment, gt)
    for k in ("tp", "predicted"):
        if ref[k] != post[k]:
            out.append(f"post {k}: pipeline {post[k]} != duckdb {ref[k]}")
    for k in ("precision", "recall", "f1", "purity"):
        if abs(ref[k] - post[k]) > 1e-9:
            out.append(f"post {k}: pipeline {post[k]!r} != duckdb {ref[k]!r}")
    if not post["precision"] > pre["precision"]:
        out.append(f"post precision {post['precision']:.5f} is not above "
                   f"pre precision {pre['precision']:.5f}")
    return out


def _load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def reference_problems(workload: str, observed: dict) -> list:
    """Differences from the recorded values of ``workload``; empty when
    they match or when none are recorded."""
    ref = _load_reference().get(workload)
    if ref is None:
        return []
    return [f"{k} {v!r} differs from the recorded {ref[k]!r}"
            for k, v in observed.items() if v != ref[k]]


def record_reference(workload: str, observed: dict) -> None:
    """Store ``observed`` as the recorded values of ``workload``."""
    ref = _load_reference()
    ref[workload] = {k: observed[k] for k in REPEATED}
    REFERENCE.write_text(json.dumps(dict(sorted(ref.items())), indent=1)
                         + "\n")
