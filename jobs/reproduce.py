"""Reproduce paper Tables 1–4 in one run.

One session and one ``load_datasets``; each (dataset, model, seed) is
fine-tuned once (``common.train_models``). Each table is printed under a
``## Table N`` heading as soon as it is computed, in the order 1, 3, 4, 2:
Table 3 evaluates every seed's models, Table 4 matches groups with the
seed-0 models, and Table 2's securities Issuer Match reads the company
matching of Table 4's DistilBERT-ALL pipeline, as in the paper's
end-to-end setup.

Usage: spark-submit jobs/reproduce.py [n_groups_synth] [n_seeds]
"""
import sys

from _session import get_spark

from repro.tables.common import load_datasets, markdown_table, train_models
from repro.tables.paper_numbers import TABLE1, TABLE2, TABLE3, TABLE4
from repro.tables.table1 import run_table1
from repro.tables.table2 import run_table2
from repro.tables.table3 import run_table3
from repro.tables.table4 import run_table4

#: The model whose company matching feeds Table 2's Issuer Match counts.
ISSUER_MODEL = "distilbert128_all"

STATS_KEYS = ("n_sources", "n_entities", "n_records", "n_matches",
              "avg_matches_per_entity", "pct_with_description")


def table1_md(rows: list) -> str:
    out = [(name, k, stats[k], TABLE1.get(name, {}).get(k, "-"))
           for name, stats in rows for k in STATS_KEYS if k in stats]
    return markdown_table(out, ["dataset", "stat", "measured", "paper"])


def table2_md(rows: list) -> str:
    out = []
    for name, blockings, n_rec, n_cand, gamma, mu in rows:
        paper = TABLE2[name]
        out.append((name, blockings, n_rec, paper[1], n_cand, paper[2],
                    gamma, mu))
    return markdown_table(out, ["dataset", "blockings", "records",
                                "records (paper)", "candidates",
                                "candidates (paper)", "gamma", "mu"])


def table3_md(rows: list) -> str:
    out = []
    for name, model_key, s in rows:
        paper = TABLE3.get(name, {}).get(model_key)
        pp = tuple(f"{v:.2f}" for v in paper) if paper else ("-",) * 3
        out.append((
            name, model_key,
            f"{s['precision']}±{s['precision_std']}", pp[0],
            f"{s['recall']}±{s['recall_std']}", pp[1],
            f"{s['f1']}±{s['f1_std']}", pp[2],
            f"{s['train_seconds']}s",
        ))
    return markdown_table(out, ["dataset", "model", "P", "P (paper)",
                                "R", "R (paper)", "F1", "F1 (paper)",
                                "train time"])


def _prf(d: dict) -> str:
    return f"{d['precision']}/{d['recall']}/{d['f1']}"


def table4_md(rows: list) -> str:
    out = []
    for name, model_key, r in rows:
        paper = TABLE4.get(name, {}).get(model_key)
        if paper:
            p_pw = "/".join(f"{v:.1f}" for v in paper[0])
            p_pre = "/".join(f"{v:.1f}" for v in paper[1][:3]) + f" ({paper[1][3]:.2f})"
            p_post = "/".join(f"{v:.1f}" for v in paper[2][:3]) + f" ({paper[2][3]:.2f})"
        else:
            p_pw = p_pre = p_post = "-"
        out.append((
            name, model_key,
            _prf(r["pairwise"]), p_pw,
            _prf(r["pre"]) + f" ({r['pre']['purity']})", p_pre,
            _prf(r["post"]) + f" ({r['post']['purity']})", p_post,
            f"{r['inference_seconds']}s",
        ))
    return markdown_table(out, [
        "dataset", "model",
        "pairwise P/R/F1", "paper",
        "pre-cleanup P/R/F1 (purity)", "paper",
        "post-cleanup P/R/F1 (purity)", "paper",
        "inference",
    ])


def main(n_groups_synth: int = 1000, n_seeds: int = 2) -> str:
    spark = get_spark("reproduce")
    datasets = load_datasets(spark, n_groups_synth=n_groups_synth)
    sections = []

    def emit(n: int, md: str) -> None:
        sections.append(f"## Table {n}\n\n{md}\n")
        print(sections[-1], flush=True)

    emit(1, table1_md(run_table1(datasets)))
    models = train_models(datasets, tuple(range(n_seeds)))
    emit(3, table3_md(run_table3(datasets, models)))
    rows, issuer_groups = run_table4(datasets, models)
    emit(4, table4_md(rows))
    emit(2, table2_md(run_table2(datasets, {
        name: groups for (name, key), groups in issuer_groups.items()
        if key == ISSUER_MODEL})))
    return "\n".join(sections)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1000,
         int(sys.argv[2]) if len(sys.argv) > 2 else 2)
