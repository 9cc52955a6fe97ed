"""Record serialization for the LM-surrogate pairwise matcher.

The paper's model differences are *information-flow* differences driven by
how records are serialized and truncated:

- **plain** (DistilBERT-style): values only, in a curated order with the
  most discriminative field first (name, identifiers, location,
  description).
- **ditto** (DITTO-style): ``[col] <name> [val] <value>`` segments in
  alphabetical column order. The paper notes this "increases the amount of
  tokens required to encode the same value information".

We emulate subword (BPE) cost so that a *token budget* binds the same way
it does for the real models: common vocabulary words cost one piece;
out-of-vocabulary words split into 4-char pieces; identifier-like values
(long, digit-bearing) split into 2-char pieces under the ditto scheme
(BERT tokenizes random alphanumerics near character level) and stay whole
pieces under the plain scheme (stand-in for DistilBERT's whole-word
handling being good enough for the id-centric fields the plain order puts
early). A classified *pair* shares the budget: each record is truncated to
``max_len // 2`` pieces, exactly like the usual BERT pair encoding.
"""
from __future__ import annotations

import re

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.functions import pandas_udf

# Words that cost a single subword piece (the generator's vocabulary plus
# tags' column names) — everything else is out-of-vocabulary.
from repro.entitygen import vocab as _v

_COMMON_WORDS = set(
    w
    for pool in (
        _v.COMMON_TERMS, _v.CORPORATE_SUFFIXES, _v.ADJECTIVES,
        _v.INDUSTRIES, _v.SERVICES, _v.AUDIENCES, _v.SECURITY_TYPES,
        _v.EXTRA_SECURITY_TYPES,
    )
    for term in pool
    for w in re.findall(r"[a-z0-9]+", str(term).lower())
) | set(
    "is a an the for of to and in on company provides providing firm "
    "offering offers provider profile stock share shares common ordinary "
    "equity rights bond unit preferred city region country name type "
    "description isin cusip valor sedol brand model price category title "
    "col val".split()
) | set(w.lower() for c, r, rc, co, cc in _v.LOCATIONS
        for w in f"{c} {r} {rc} {co} {cc}".split())

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_ID_RE = re.compile(r"^(?=.*\d)[a-z0-9]{6,}$")


def _words(text: str) -> list:
    return _TOKEN_RE.findall(text.lower())


def _chunk(w: str, size: int) -> list:
    return [w[i:i + size] for i in range(0, len(w), size)]


def _pieces(word: str, scheme: str) -> list:
    """Subword pieces of one word under the given scheme."""
    if word in _COMMON_WORDS:
        return [word]
    if _ID_RE.match(word):
        # Identifier-shaped: character-level under ditto (the paper's "long
        # sequences of uninformative tokens"), whole under plain (see
        # module docstring).
        return _chunk(word, 1) if scheme == "ditto" else [word]
    return _chunk(word, 3) if scheme == "ditto" else _chunk(word, 4)


def serialize_record(values: dict, scheme: str, max_len: int,
                     plain_order: tuple) -> str:
    """Serialize one record to its truncated subword-piece string."""
    pieces: list = []
    budget = max_len // 2  # pair encoding: half the budget per record
    # Both schemes serialize in table column order (real DITTO wraps the
    # source table's columns in order; the plain order is curated).
    cols = [c for c in plain_order if c in values]
    cols += [c for c in sorted(values.keys()) if c not in plain_order]
    for c in cols:
        v = str(values.get(c) or "")
        if not v:
            continue
        if scheme == "ditto":
            # "[COL] name [VAL]" costs ~7 subword pieces for the real
            # tokenizer ("[", "col", "]", name, "[", "val", "]") — the
            # paper's "increases the amount of tokens required" overhead.
            pieces += ["[", "col", "]", c.lower(), "[", "val", "]"]
        for w in _words(v):
            pieces += _pieces(w, scheme)
        if len(pieces) >= budget:
            break
    return " ".join(pieces[:budget])


def add_serialized(records: DataFrame, cols: tuple, scheme: str,
                   max_len: int) -> DataFrame:
    """Add the serialized-text column ``ser`` computed from ``cols``, in
    that order, via Arrow UDF."""

    @pandas_udf("string")
    def ser(s: pd.DataFrame) -> pd.Series:
        return pd.Series([
            serialize_record(row, scheme, max_len, cols)
            for row in s.to_dict("records")
        ])

    return records.withColumn("ser", ser(F.struct(*[F.col(c) for c in cols])))
