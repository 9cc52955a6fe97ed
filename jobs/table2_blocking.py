"""Reproduce paper Table 2 (blockings, candidate pair counts, thresholds).

The securities Issuer Match blocking consumes the company matching of the
DistilBERT-ALL pipeline, as in the paper's end-to-end setup.

Usage: spark-submit jobs/table2_blocking.py [n_groups_synth]
"""
import sys

from _session import get_spark

from repro.core.pipeline import run_group_matching
from repro.matching import model as M
from repro.tables.common import ISSUERS, load_datasets, markdown_table
from repro.tables.paper_numbers import TABLE2
from repro.tables.table2 import run_table2


def main(n_groups_synth: int = 1000) -> str:
    spark = get_spark("table2")
    datasets = load_datasets(spark, n_groups_synth=n_groups_synth)
    company_groups = {}
    for sec_name, comp_name in ISSUERS.items():
        ds = datasets[comp_name]
        model = M.train(ds.records, "companies", M.MODELS["distilbert128_all"])
        res = run_group_matching(ds.records, "companies", model,
                                 ds.gamma, ds.mu, securities=ds.securities)
        company_groups[sec_name] = res.assignment
    rows = run_table2(datasets, company_groups)
    out = []
    for name, blockings, n_rec, n_cand, gamma, mu in rows:
        paper = TABLE2[name]
        out.append((name, blockings, n_rec, paper[1], n_cand, paper[2],
                    gamma, mu))
    md = markdown_table(out, ["dataset", "blockings", "records",
                              "records (paper)", "candidates",
                              "candidates (paper)", "gamma", "mu"])
    print(md)
    return md


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1000)
