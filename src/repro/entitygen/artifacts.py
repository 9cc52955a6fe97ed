"""Artifact planning for the synthetic benchmark generator.

The paper (Section 3.2) builds its benchmark by applying *data artifacts* to
record groups. This module decides — deterministically from a seed — which
groups receive which artifacts, and how groups interact (acquisitions merge
ground-truth groups, mergers create a new polluting entity).

The artifact semantics implemented here follow Section 3.2 / 3.3:

- **AcronymName**: one source renders the company name as its acronym.
- **InsertCorporateTerm**: a corporate term (Inc./Ltd/...) is inserted in all
  mentions of the name.
- **CreateCorporateAcquisition**: acquirer A absorbs acquiree B. All records
  of A and B are ground-truth matches (one group). In sources that *recorded*
  the event, B's records are deleted; one designated *bridge* source keeps
  B's record with B's name but A's security identifiers (Figure 2, record
  #21) — so the group is only discoverable transitively.
- **CreateCorporateMerger**: groups A and B merge into a *new* entity C whose
  security identifiers partially overwrite/copy those of A and B. A, B and C
  are NOT matches (paper: "We do not consider records involved in simulated
  mergers as matches"), so the copied identifiers create false ID-overlap
  candidate pairs.
- **MultipleIDs**: a security entity gets an alternate identifier set used by
  a subset of its records.
- **NoIdOverlaps**: all identifier overlaps within a security group are wiped
  (every record gets fresh identifiers) — matchable only via issuer/text.
- **MultipleSecurities**: the company issues extra securities of other types
  (rights, bonds, units).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GenConfig:
    """Knobs for one dataset generation. Defaults = synthetic preset."""

    n_groups: int = 300
    n_sources: int = 5
    presence_prob: float = 0.868  # per-source record presence → avg group ≈ 4.3
    desc_prob: float = 0.32       # fraction of records carrying a description
    # Fraction of groups whose name is built only from collision-prone
    # COMMON_TERMS (drives Token Overlap false positives).
    common_name_prob: float = 0.18
    # Artifact rates (fraction of groups affected).
    p_acronym: float = 0.10
    p_corp_term: float = 0.30
    p_paraphrase: float = 0.20
    p_acquisition: float = 0.05   # fraction of groups acting as *acquiree*
    p_merger: float = 0.03        # fraction of groups entering a merger pair
    p_multiple_ids: float = 0.10
    p_no_id_overlaps: float = 0.08
    p_multiple_securities: float = 0.25
    # Per-record noise.
    p_typo: float = 0.05
    seed: int = 7


@dataclass
class ArtifactPlan:
    """Which groups get which artifacts (entity ids are 0..n_groups-1;
    merger-created entities get ids >= n_groups)."""

    acronym: set = field(default_factory=set)
    corp_term: dict = field(default_factory=dict)       # entity -> term
    paraphrase: set = field(default_factory=set)
    acquisitions: list = field(default_factory=list)    # (acquirer, acquiree)
    mergers: list = field(default_factory=list)         # (a, b, new_entity)
    multiple_ids: set = field(default_factory=set)
    no_id_overlaps: set = field(default_factory=set)
    multiple_securities: set = field(default_factory=set)

    @property
    def acquirees(self) -> dict:
        """acquiree entity -> acquirer entity."""
        return {b: a for a, b in self.acquisitions}

    @property
    def merger_entities(self) -> list:
        """Entities created by mergers, in creation order."""
        return [c for _, _, c in self.mergers]

    @property
    def flag_sets(self) -> tuple[set, set]:
        """(acquisition-involved, hard) entities: every record's
        ``acq_involved`` / ``easy_group`` (= not hard) flags."""
        acq = {e for pair in self.acquisitions for e in pair}
        return acq, acq | set(self.merger_entities) | self.no_id_overlaps

    def gt_company_group(self, n_entities: int) -> dict:
        """entity_id -> ground-truth group id (acquirees fold into acquirers).

        ``n_entities`` must cover merger-created entities too (they map to
        themselves: mergers do not merge ground truth).
        """
        acq = self.acquirees
        return {e: acq.get(e, e) for e in range(n_entities)}


def plan_artifacts(cfg: GenConfig, g: np.random.Generator) -> ArtifactPlan:
    """Assign artifacts to the ``cfg.n_groups`` base groups.

    Acquisition and merger participants are drawn disjointly so their
    ground-truth effects never overlap (an entity is involved in at most one
    cross-group event), mirroring the paper's per-group sequential artifact
    application while keeping ground truth well-defined.
    """
    from .vocab import CORPORATE_SUFFIXES, pick

    n = cfg.n_groups
    plan = ArtifactPlan()

    # Cross-group events first: sample disjoint participants.
    n_acq = int(n * cfg.p_acquisition)
    n_mer = int(n * cfg.p_merger) // 2 * 2  # merger consumes a pair
    n_cross = 2 * n_acq + n_mer
    cross = g.choice(n, size=min(n_cross, n), replace=False)
    i = 0
    for _ in range(n_acq):
        if i + 1 >= len(cross):
            break
        plan.acquisitions.append((int(cross[i]), int(cross[i + 1])))
        i += 2
    next_entity = n
    for _ in range(n_mer // 2):
        if i + 1 >= len(cross):
            break
        plan.mergers.append((int(cross[i]), int(cross[i + 1]), next_entity))
        next_entity += 1
        i += 2

    # Independent per-group artifacts.
    for e in range(n):
        if g.random() < cfg.p_acronym:
            plan.acronym.add(e)
        if g.random() < cfg.p_corp_term:
            plan.corp_term[e] = pick(g, CORPORATE_SUFFIXES)
        if g.random() < cfg.p_paraphrase:
            plan.paraphrase.add(e)
        if g.random() < cfg.p_multiple_ids:
            plan.multiple_ids.add(e)
        if g.random() < cfg.p_no_id_overlaps:
            plan.no_id_overlaps.add(e)
        if g.random() < cfg.p_multiple_securities:
            plan.multiple_securities.add(e)
    return plan
