"""Table 2 — blockings, record counts, candidate-pair counts, thresholds.

Candidate pairs are produced by the same blocking combinations the paper
uses per dataset (ID Overlap + Token Overlap for companies, ID Overlap +
Issuer Match for securities, Token Overlap for WDC). The securities Issuer
Match needs a prior company matching; for this *blocking statistics* table
we follow the paper's setup and use the company matching produced by the
DistilBERT-ALL pipeline of Table 4 (``run_table4``'s second result) —
callers pass it via ``company_groups``.
"""
from __future__ import annotations

from repro.core.pipeline import candidate_pairs
from repro.tables.paper_numbers import TABLE2


def run_table2(datasets: dict, company_groups: dict) -> list:
    """Rows: (dataset, blockings, n_records, n_candidates, gamma, mu).

    ``company_groups`` maps the two securities dataset names to a company
    (id, group) assignment DataFrame used by Issuer Match. The blockings
    label is the paper's own (``paper_numbers.TABLE2``).
    """
    rows = []
    for name, ds in datasets.items():
        cands = candidate_pairs(
            ds.kind, ds.records, securities=ds.securities,
            company_groups=company_groups.get(name),
        )
        rows.append((
            name, " + ".join(TABLE2[name][0]), ds.records.count(),
            cands.count(), ds.gamma, ds.mu,
        ))
    return rows
