"""Security entity synthesis and per-source record rendering.

Each company issues one *primary* security (its listed share class) plus,
under the MultipleSecurities artifact, extra securities of other types.
Securities carry up to four identifiers (ISIN, CUSIP, VALOR, SEDOL); records
of the same security normally share them, which is what the ID Overlap
blocking exploits. Artifacts perturb this:

- **MultipleIDs** — an alternate identifier set used by half the records.
- **NoIdOverlaps** — every record gets fresh identifiers (group matchable
  only through its issuer / transitivity).
- **Acquisition** — the acquiree's primary security folds into the
  acquirer's primary security group; the bridge-source record keeps the
  acquiree company's context but carries the acquirer's identifiers.
- **Merger** — the merger-created entity's security copies identifiers from
  both predecessors (false ID-overlap links; NOT ground-truth matches).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from .artifacts import ArtifactPlan, GenConfig
from . import vocab

_ALNUM = np.array(list("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"))

#: Per-source presence of a *security* record given its issuer's record
#: exists there (securities form smaller groups than companies — Table 1:
#: avg 5.4 vs 7.5 matches per entity).
SEC_PRESENCE_PROB = 0.82
P_ID_MISSING = 0.25       # per identifier: left empty
P_GENERIC_SECNAME = 0.5   # per record: the name is the bare security type


def _rand_id(g: np.random.Generator, n: int, prefix: str = "") -> str:
    body = "".join(_ALNUM[g.integers(0, len(_ALNUM), n)])
    return prefix + body


def make_id_set(g: np.random.Generator, country_code: str) -> dict:
    """Fresh identifier values with realistic shapes (no check digits)."""
    return {
        "isin": _rand_id(g, 10, country_code[:2]),
        "cusip": _rand_id(g, 9),
        "valor": str(int(g.integers(10**8, 10**9))),
        "sedol": _rand_id(g, 6),
    }


@dataclass
class SecurityEntity:
    """Canonical attributes of one security."""

    entity_id: int
    company_entity_id: int
    sec_type: str
    primary: bool
    ids: dict
    alt_ids: dict | None = None   # MultipleIDs artifact


def make_security_entities(ents: list, cfg: GenConfig, plan: ArtifactPlan,
                           g: np.random.Generator) -> list:
    """One primary security per company (+extras for MultipleSecurities)."""
    secs = []
    next_id = 0
    for ent in ents:
        ccode = ent.loc[4]
        n_extra = 0
        if ent.entity_id in plan.multiple_securities:
            n_extra = 1 + int(g.integers(0, 2))
        for k in range(1 + n_extra):
            sec_type = (vocab.pick(g, vocab.SECURITY_TYPES) if k == 0
                        else vocab.pick(g, vocab.EXTRA_SECURITY_TYPES))
            alt = None
            if k == 0 and ent.entity_id in plan.multiple_ids:
                alt = make_id_set(g, ccode)
            secs.append(SecurityEntity(
                entity_id=next_id,
                company_entity_id=ent.entity_id,
                sec_type=sec_type,
                primary=(k == 0),
                ids=make_id_set(g, ccode),
                alt_ids=alt,
            ))
            next_id += 1
    return secs


def _apply_cross_group_id_effects(primary_of: dict,
                                  plan: ArtifactPlan) -> dict:
    """Acquisition/merger identifier rewiring over the company entity →
    primary security map ``primary_of``.

    Returns ``gt_override``: security entity -> ground-truth security group
    (acquiree primaries fold into acquirer primaries). Mutates merger
    securities' ids in place (copying predecessor identifiers).
    """
    gt_override = {}
    for acquirer, acquiree in plan.acquisitions:
        pa, pb = primary_of.get(acquirer), primary_of.get(acquiree)
        if pa is None or pb is None:
            continue
        gt_override[pb.entity_id] = pa.entity_id
    for a, b, c in plan.mergers:
        pa, pb, pc = primary_of.get(a), primary_of.get(b), primary_of.get(c)
        if pc is None:
            continue
        # The new entity's records reuse predecessor identifiers (data drift:
        # overwritten identifiers that do NOT imply a true match).
        if pa is not None:
            pc.ids["isin"] = pa.ids["isin"]
            pc.ids["cusip"] = pa.ids["cusip"]
        if pb is not None:
            pc.ids["valor"] = pb.ids["valor"]
            pc.ids["sedol"] = pb.ids["sedol"]
    return gt_override


def render_security_records(secs: list, ents: list, cfg: GenConfig,
                            plan: ArtifactPlan, presence: dict,
                            g: np.random.Generator) -> pd.DataFrame:
    """One security record per (security, source where the issuer exists).

    Returns columns: record_id, source_id, entity_id, gt_group,
    company_record_id, company_entity_id, name, sec_type, isin, cusip,
    valor, sedol.
    """
    primary_of = {s.company_entity_id: s for s in secs if s.primary}
    gt_override = _apply_cross_group_id_effects(primary_of, plan)
    acquirees = plan.acquirees
    acq_set, hard_set = plan.flag_sets
    ent_by_id = {e.entity_id: e for e in ents}
    rows = []
    base = (max(e.entity_id for e in ents) + 1) * 100 if ents else 0
    for sec in secs:
        ce = sec.company_entity_id
        pres = presence[ce]
        gt = gt_override.get(sec.entity_id, sec.entity_id)
        company = ent_by_id[ce]
        kept = [s for s in pres.sources
                if s == pres.bridge or g.random() < SEC_PRESENCE_PROB]
        if not kept:
            kept = [pres.sources[0]]
        for s in kept:
            ids = dict(sec.ids)
            # MultipleIDs: later sources use the alternate identifier set.
            if sec.alt_ids is not None and s >= cfg.n_sources // 2:
                ids = dict(sec.alt_ids)
            # NoIdOverlaps: fresh identifiers per record — no overlap at all.
            if ce in plan.no_id_overlaps:
                ids = make_id_set(g, company.loc[4])
            # Acquisition bridge record: acquiree's security carries the
            # acquirer's identifiers (Figure 2, record #21).
            if sec.primary and ce in acquirees and s == pres.bridge:
                acq_primary = primary_of.get(acquirees[ce])
                if acq_primary is not None:
                    ids = dict(acq_primary.ids)
            # Per-record identifier missingness.
            out_ids = {k: (v if g.random() > P_ID_MISSING else "")
                       for k, v in ids.items()}
            if all(v == "" for v in out_ids.values()):
                out_ids["isin"] = ids["isin"]  # keep at least one identifier
            if g.random() < P_GENERIC_SECNAME:
                name = sec.sec_type
            else:
                name = f"{' '.join(company.name_tokens)} {sec.sec_type}"
            rows.append((
                base + sec.entity_id * 100 + s, s, sec.entity_id, gt,
                ce * 100 + s, ce, name, sec.sec_type,
                out_ids["isin"], out_ids["cusip"], out_ids["valor"],
                out_ids["sedol"], ce in acq_set, ce not in hard_set,
            ))
    return pd.DataFrame(
        rows,
        columns=["record_id", "source_id", "entity_id", "gt_group",
                 "company_record_id", "company_entity_id", "name", "sec_type",
                 "isin", "cusip", "valor", "sedol", "acq_involved",
                 "easy_group"],
    )
