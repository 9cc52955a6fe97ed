"""Table 1 — dataset statistics (paper Section 3.3).

Each record table is collected to the driver and summarized by
:func:`repro.entitygen.dataset.stats`; the "# of Matches" column is the
ground-truth pair count sum(C(n_i, 2)).
"""
from __future__ import annotations

from repro.entitygen.dataset import stats
from repro.tables.common import Dataset


def run_table1(datasets: dict) -> list:
    """Rows: (dataset, stat dict) for the four financial datasets."""
    rows = []
    for name in ("real_companies", "synthetic_companies",
                 "real_securities", "synthetic_securities"):
        ds: Dataset = datasets[name]
        rows.append((name, stats(ds.records.toPandas())))
    return rows
