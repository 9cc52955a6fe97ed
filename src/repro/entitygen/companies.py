"""Company entity synthesis and per-source record rendering.

A *company entity* is the canonical real-world company; each data source
renders its own noisy record of it (naming variations, location formats,
missing descriptions) — Section 3.1/3.2 of the paper. Artifact effects that
are company-visible (AcronymName, InsertCorporateTerm, ParaphraseAttribute,
acquisition record deletion / bridge record) are applied here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from .artifacts import ArtifactPlan, GenConfig
from . import vocab

ACQ_RECORDED_PROB = 0.5  # per-source prob the acquisition was recorded
# Per-record name noise: upper case; a suffix unless InsertCorporateTerm.
P_UPPER = 0.12
P_SUFFIX_NOISE = 0.25


@dataclass
class CompanyEntity:
    """Canonical attributes of one company (pre-noise)."""

    entity_id: int
    name_tokens: tuple
    loc: tuple          # (city, region, region_code, country, country_code)
    adj: str
    industry: str
    service: str
    audience: str
    has_desc: bool


def make_entities(cfg: GenConfig, plan: ArtifactPlan,
                  g: np.random.Generator) -> list:
    """Create base entities plus merger-created entities.

    With probability ``common_name_prob`` a name is drawn purely from the
    collision-prone common-term pool; otherwise it gets a unique stem plus
    1–2 common terms. Merger entities (ids >= n_groups) get fresh names.
    """
    ents = []
    total = cfg.n_groups + len(plan.mergers)
    for e in range(total):
        if e < cfg.n_groups and g.random() < cfg.common_name_prob:
            k = 2 + int(g.integers(0, 2))
            toks = tuple(
                vocab.COMMON_TERMS[int(i)]
                for i in g.choice(len(vocab.COMMON_TERMS), size=k, replace=False)
            )
        else:
            k = 1 + int(g.integers(0, 2))
            toks = (vocab.stem(e),) + tuple(
                vocab.COMMON_TERMS[int(i)]
                for i in g.choice(len(vocab.COMMON_TERMS), size=k, replace=False)
            )
        ents.append(
            CompanyEntity(
                entity_id=e,
                name_tokens=toks,
                loc=vocab.pick(g, vocab.LOCATIONS),
                adj=vocab.pick(g, vocab.ADJECTIVES),
                industry=vocab.pick(g, vocab.INDUSTRIES),
                service=vocab.pick(g, vocab.SERVICES),
                audience=vocab.pick(g, vocab.AUDIENCES),
                has_desc=bool(g.random() < min(1.0, cfg.desc_prob * 1.35)),
            )
        )
    return ents


def _acronym(tokens: tuple) -> str:
    return "".join(t[0].upper() for t in tokens)


def _typo(word: str, g: np.random.Generator) -> str:
    if len(word) < 4:
        return word
    i = int(g.integers(1, len(word) - 1))
    return word[:i] + word[i + 1] + word[i] + word[i + 2:]


def render_name(ent: CompanyEntity, source: int, plan: ArtifactPlan,
                cfg: GenConfig, g: np.random.Generator) -> str:
    """Render the per-source name with artifacts and source noise."""
    toks = list(ent.name_tokens)
    # AcronymName: one source (deterministically source 1 if present) swaps
    # the name for its acronym.
    if ent.entity_id in plan.acronym and source == 1 and len(toks) >= 2:
        name = _acronym(tuple(toks))
    else:
        # Source naming styles: some vendors keep only the distinctive
        # stem, drop trailing terms, or reorder (paper Section 3.1:
        # "variations in naming practices").
        style = g.random()
        if style < 0.08 and len(toks) >= 2:
            toks = toks[:1]
        elif style < 0.25 and len(toks) > 2:
            toks = toks[:-1]
        elif style < 0.32 and len(toks) >= 3:
            toks = [toks[0]] + toks[2:] + [toks[1]]
        if g.random() < cfg.p_typo:
            i = int(g.integers(0, len(toks)))
            toks[i] = _typo(toks[i], g)
        name = " ".join(toks)
    term = plan.corp_term.get(ent.entity_id)
    if term is not None:
        name = f"{name} {term}"
    elif g.random() < P_SUFFIX_NOISE:
        name = f"{name} {vocab.pick(g, vocab.CORPORATE_SUFFIXES)}"
    if g.random() < P_UPPER:
        name = name.upper()
    return name


def render_description(ent: CompanyEntity, paraphrased: bool) -> str:
    """Two deterministic templates; the paraphrase artifact re-renders the
    same facts with the synonym map (stands in for the Pegasus model)."""
    base = (
        f"{' '.join(ent.name_tokens)} is a {ent.adj} {ent.industry} "
        f"company providing {ent.service} for {ent.audience}."
    )
    if not paraphrased:
        return base
    syn = vocab.SYNONYMS
    words = [syn.get(w, w) for w in
             (f"{ent.adj} {ent.industry} firm offering {ent.service} "
              f"to {ent.audience}").split()]
    return f"Provider profile: {' '.join(words)}."


def render_location(ent: CompanyEntity, g: np.random.Generator) -> tuple:
    """(city, region, country_code) with per-source abbreviation style."""
    city, region, rcode, country, ccode = ent.loc
    style = int(g.integers(0, 3))
    if style == 0:
        return city, region, ccode
    if style == 1:
        return city, rcode, ccode
    return "", rcode, ccode  # some sources omit the city


@dataclass
class Presence:
    """Per-entity rendering plan shared by company and security renderers.

    ``sources`` — sources where the entity's records exist after artifact
    effects. ``bridge`` — for acquirees, the one recorded source that kept
    the record (its security identifiers get overwritten with the
    acquirer's, Figure 2 record #21); None otherwise.
    """

    sources: list
    bridge: int | None = None


def compute_presence(ents: list, cfg: GenConfig, plan: ArtifactPlan,
                     g: np.random.Generator) -> dict:
    """Decide, per entity, which sources carry its records.

    Acquisition semantics: acquiree records are *deleted* in sources that
    recorded the event, except one designated bridge source which keeps the
    record. Merger-created entities exist in roughly half the sources.
    """
    acquirees = plan.acquirees
    merger_set = set(plan.merger_entities)
    out = {}
    for ent in ents:
        e = ent.entity_id
        prob = cfg.presence_prob * (0.5 if e in merger_set else 1.0)
        present = [s for s in range(cfg.n_sources) if g.random() < prob]
        if not present:
            present = [int(g.integers(0, cfg.n_sources))]
        bridge = None
        if e in acquirees:
            recorded = [s for s in present
                        if g.random() < ACQ_RECORDED_PROB]
            bridge = recorded[0] if recorded else present[0]
            present = [s for s in present if s not in recorded or s == bridge]
            if bridge not in present:
                present.append(bridge)
        out[e] = Presence(sources=sorted(present), bridge=bridge)
    return out


def render_records(ents: list, cfg: GenConfig, plan: ArtifactPlan,
                   presence: dict, g: np.random.Generator) -> pd.DataFrame:
    """One row per (entity, source) in the presence plan, with ground-truth
    group id. Returns columns: record_id, source_id, entity_id, gt_group,
    name, city, region, country_code, short_description."""
    gt = plan.gt_company_group(len(ents))
    acq_set, hard_set = plan.flag_sets
    rows = []
    for ent in ents:
        e = ent.entity_id
        para_from = cfg.n_sources // 2
        for s in presence[e].sources:
            name = render_name(ent, s, plan, cfg, g)
            city, region, ccode = render_location(ent, g)
            desc = ""
            if ent.has_desc and g.random() < 0.75:
                desc = render_description(
                    ent, paraphrased=(e in plan.paraphrase and s >= para_from)
                )
            rows.append(
                (e * 100 + s, s, e, gt[e], name, city, region, ccode, desc,
                 e in acq_set, e not in hard_set)
            )
    return pd.DataFrame(
        rows,
        columns=["record_id", "source_id", "entity_id", "gt_group", "name",
                 "city", "region", "country_code", "short_description",
                 "acq_involved", "easy_group"],
    )
