"""WDC-Products-like benchmark generator (paper Section 5.1.4).

The WDC Products result in the paper is structural: record groups have
*heterogeneous sizes* (web offers per product), so GraLMatch's fixed size
threshold μ chops large true groups and the Graph Cleanup *hurts* recall —
the one dataset where Post-Cleanup F1 can fall below Pre-Cleanup. The
"80% corner cases" variant means most products have a hard near-duplicate
(same brand/model family, different variant).

This generator reproduces that structure offline: product offers with
zipf-ish group sizes in 1..20, one offer per (group, shop), and for 80% of
groups a sibling product whose title differs by a single variant token.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from . import vocab

_BRANDS = ["Acme", "Globex", "Initech", "Umbrella", "Stark", "Wayne",
           "Tyrell", "Cyberdyne", "Aperture", "Soylent", "Wonka", "Oscorp"]
_CATEGORIES = ["laptop", "monitor", "printer", "router", "keyboard",
               "headset", "camera", "tablet", "phone", "drive"]
_VARIANTS = ["S", "X", "Pro", "Lite", "Plus", "Mini", "Max", "II"]
#: Share of products with a corner-case sibling (the "80% corner cases").
CORNER_FRAC = 0.8
#: Shops offering products; a group has at most one offer per shop.
N_SHOPS = 30


def _model_code(g: np.random.Generator) -> str:
    letters = "".join(chr(int(g.integers(65, 91))) for _ in range(2))
    return f"{letters}-{int(g.integers(1000, 9999))}"


def wdc_products(n_records: int = 1000, seed: int = 21) -> pd.DataFrame:
    """Generate ~``n_records`` product offers with heterogeneous groups.

    Columns mirror the financial tables where the pipeline needs them:
    record_id, source_id (shop), gt_group, name, brand, category, price,
    description, acq_involved, easy_group.
    """
    g = np.random.default_rng(seed)
    rows = []
    rid = 0
    group = 0
    while rid < n_records:
        brand = vocab.pick(g, _BRANDS)
        cat = vocab.pick(g, _CATEGORIES)
        code = _model_code(g)
        # Heterogeneous group sizes: zipf-ish in 1..20.
        size = int(min(20, max(1, g.zipf(1.6))))
        variants = [""]
        if g.random() < CORNER_FRAC:
            # Corner case: a sibling product differing by one variant token.
            variants.append(vocab.pick(g, _VARIANTS))
        shops = g.choice(N_SHOPS, size=min(N_SHOPS, size * len(variants)),
                         replace=False)
        si = 0
        for var in variants:
            full_code = f"{code}{var}" if var in ("S", "X") else code
            var_word = "" if var in ("S", "X", "") else var
            base_title = " ".join(
                w for w in [brand, full_code, var_word, cat] if w
            )
            for _ in range(size):
                if si >= len(shops) or rid >= n_records:
                    break
                words = base_title.split()
                if len(words) > 3 and g.random() < 0.3:
                    words = words[:-1]  # shops drop the category word
                if g.random() < 0.2:
                    words = words + [vocab.pick(g, ["new", "2024", "original",
                                                    "genuine", "oem"])]
                title = " ".join(words)
                if g.random() < 0.15:
                    title = title.upper()
                price = round(float(50 + g.random() * 950), 2)
                desc = ""
                if g.random() < 0.4:
                    desc = (f"{brand} {cat} model {full_code}"
                            f"{' ' + var_word if var_word else ''}"
                            f" with warranty.")
                rows.append((rid, int(shops[si]), group, title, brand, cat,
                             str(price), desc, False, True))
                rid += 1
                si += 1
            group += 1
    return pd.DataFrame(
        rows,
        columns=["record_id", "source_id", "gt_group", "name", "brand",
                 "category", "price", "description", "acq_involved",
                 "easy_group"],
    )
