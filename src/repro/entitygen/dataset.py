"""Dataset presets and the end-to-end generation entry points.

The paper evaluates on four financial datasets (Table 1/2) plus WDC
Products. We reproduce:

- ``synthetic_companies`` / ``synthetic_securities`` — 5 sources, the full
  artifact mix, collision-prone names; scaled by ``n_groups`` (paper: 200K
  groups; our bench default is a 1/12-ish scale, same generator).
- ``real_companies`` / ``real_securities`` — the paper's *labeled real
  subset* regime: 8 sources, mostly identifier-matchable easy groups, ~2%
  edge cases, at the paper's own scale (6.3K / 12.8K records).

Generation is deterministic in ``seed`` and runs driver-side in pandas
(≤ tens of thousands of groups); Spark consumes the result via
``spark.createDataFrame`` — all *matching* computation is distributed.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pandas as pd

from .artifacts import GenConfig, plan_artifacts
from .companies import compute_presence, make_entities, render_records
from .securities import make_security_entities, render_security_records

#: Synthetic preset (Section 3.2 regime). ``n_groups`` chosen per run scale.
SYNTHETIC = GenConfig()

#: Real-labeled-subset preset (Section 5.1.1 regime): 8 sources, dominated
#: by identifier-matchable groups found via matching identifier codes, very
#: few edge cases, fewer collision-prone names, longer descriptions rate per
#: the real column of Table 1 (25%).
REAL = GenConfig(
    n_sources=8,
    presence_prob=0.54,      # avg group size ≈ 4.3 over 8 sources
    desc_prob=0.25,
    common_name_prob=0.06,
    p_acronym=0.04,
    p_corp_term=0.25,
    p_paraphrase=0.10,
    p_acquisition=0.012,
    p_merger=0.008,
    p_multiple_ids=0.03,
    p_no_id_overlaps=0.015,
    p_multiple_securities=0.35,
    p_typo=0.03,
    seed=11,
)


def generate(cfg: GenConfig) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Run the full generation: (companies_pdf, securities_pdf)."""
    g = np.random.default_rng(cfg.seed)
    plan = plan_artifacts(cfg, g)
    ents = make_entities(cfg, plan, g)
    presence = compute_presence(ents, cfg, plan, g)
    companies = render_records(ents, cfg, plan, presence, g)
    secs = make_security_entities(ents, cfg, plan, g)
    securities = render_security_records(secs, ents, cfg, plan, presence, g)
    return companies, securities


def synthetic(n_groups: int = 300, seed: int = 7) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Synthetic companies+securities at the requested group count."""
    return generate(replace(SYNTHETIC, n_groups=n_groups, seed=seed))


def real(n_groups: int = 1500, seed: int = 11) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Real-like companies+securities (paper scale ⇒ n_groups≈1500)."""
    return generate(replace(REAL, n_groups=n_groups, seed=seed))


def stats(pdf: pd.DataFrame) -> dict:
    """Table 1 statistics for one generated record table.

    ``# of Matches`` is the ground-truth pair count sum(C(n_i, 2)) over
    groups, matching the paper's definition (avg matches/entity ≈ 7.5 for
    group size ≈ 4.3).
    """
    sizes = pdf.groupby("gt_group").size()
    n_matches = int((sizes * (sizes - 1) // 2).sum())
    out = {
        "n_sources": int(pdf["source_id"].nunique()),
        "n_entities": int(sizes.shape[0]),
        "n_records": int(len(pdf)),
        "n_matches": n_matches,
        "avg_matches_per_entity": round(n_matches / max(1, sizes.shape[0]), 2),
    }
    if "short_description" in pdf.columns:
        out["pct_with_description"] = round(
            100.0 * (pdf["short_description"] != "").mean(), 1
        )
    return out
