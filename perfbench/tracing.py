"""Exact Spark job counts, spans around the pipeline's layers, and the
driver-side replay of Algorithm 1.

Job ids are assigned in submission order per SparkContext. A marker job in a
group of its own therefore reads the current id, and once the status store
shows the marker as finished it has recorded every earlier job too. The jobs
between two markers are counted from their ids, so the count is exact even
after Spark has evicted old job records (it keeps 1,000 by default).
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import pandas as pd
from pyspark import SparkContext
from pyspark.sql import functions as F

import repro.core.gralmatch as gralmatch_mod
import repro.core.pipeline as P
from repro.graph.algorithms import Graph
from workloads import GAMMA, MU

_GROUP = "spark.jobGroup.id"


class JobClock:
    """Reads the id of the latest Spark job with a marker job."""

    def __init__(self, sc: SparkContext, timeout_s: float = 60.0):
        self.sc = sc
        self.timeout_s = timeout_s
        self._n = 0
        self._rdd = sc.parallelize([0], 1)

    def mark(self) -> int:
        self._n += 1
        group = f"perfbench-marker-{self._n}"
        outer = self.sc.getLocalProperty(_GROUP)
        self.sc.setLocalProperty(_GROUP, group)
        try:
            self._rdd.count()
        finally:
            self.sc.setLocalProperty(_GROUP, outer)
        tracker = self.sc.statusTracker()
        deadline = time.monotonic() + self.timeout_s
        while time.monotonic() < deadline:
            ids = tracker.getJobIdsForGroup(group)
            if ids:
                info = tracker.getJobInfo(ids[0])
                if info is not None and info.status == "SUCCEEDED":
                    return ids[0]
            time.sleep(0.002)
        raise RuntimeError(f"marker job {group} not recorded within "
                           f"{self.timeout_s} s")

    @contextmanager
    def count(self, group: str, out: dict):
        """Run the body under job group ``group``; set ``out['jobs']`` to
        the number of jobs it ran, checked against the group's own ids."""
        first = self.mark()
        outer = self.sc.getLocalProperty(_GROUP)
        self.sc.setLocalProperty(_GROUP, group)
        try:
            yield out
        finally:
            self.sc.setLocalProperty(_GROUP, outer)
        last = self.mark()
        ids = sorted(self.sc.statusTracker().getJobIdsForGroup(group))
        out["jobs"] = last - first - 1
        expected = list(range(first + 1, last))
        # Eviction drops the oldest job records first, so the ids the group
        # still holds must be the newest of the expected ones.
        if expected and (not ids or ids != expected[-len(ids):]):
            raise RuntimeError(
                f"job group {group} holds ids {ids[:5]}..{ids[-5:]}, "
                f"expected {first + 1}..{last - 1}")


@dataclass
class Span:
    name: str
    start: float        # perf_counter seconds
    end: float
    parent: int | None
    run_id: str
    jobs: int = 0       # jobs run directly in this span, not in children


class Tracer:
    """In-memory spans; written out by the caller.

    Each span runs its Spark jobs under a job group of its own, so a span's
    jobs are the ids Spark records for that group. ``close`` reads them
    after one marker job, and requires that the spans' jobs are exactly the
    jobs run since ``open``.
    """

    def __init__(self, clock: JobClock):
        self.clock = clock
        self.run_id = None
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._first = self._opened_at = None

    def open(self, run_id: str) -> None:
        self.run_id = run_id
        self._opened_at = len(self.spans)
        self._first = self.clock.mark()

    def close(self) -> None:
        last = self.clock.mark()
        tracker = self.clock.sc.statusTracker()
        ids = []
        for i in range(self._opened_at, len(self.spans)):
            span_ids = tracker.getJobIdsForGroup(self._group(i))
            self.spans[i].jobs = len(span_ids)
            ids += span_ids
        if sorted(ids) != list(range(self._first + 1, last)):
            raise RuntimeError(
                f"spans of {self.run_id} hold {len(ids)} jobs, but "
                f"{last - self._first - 1} ran since the run opened")

    def _group(self, i: int) -> str:
        return f"perfbench-span-{i}-{self.spans[i].name}"

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(s)
        self._stack.append(idx)
        sc = self.clock.sc
        outer = sc.getLocalProperty(_GROUP)
        sc.setLocalProperty(_GROUP, self._group(idx))
        try:
            yield s
        finally:
            sc.setLocalProperty(_GROUP, outer)
            self._stack.pop()
            s.end = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def layers(self, run_id: str) -> dict:
        """Per layer (span name up to the first dot) over the spans of
        ``run_id``: self seconds (a span minus its children), jobs and
        call count."""
        child_s = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        out: dict = defaultdict(lambda: {"s": 0.0, "jobs": 0, "calls": 0})
        for i, s in enumerate(self.spans):
            if s.run_id == run_id:
                layer = out[s.name.split(".")[0]]
                layer["s"] += s.end - s.start - child_s[i]
                layer["jobs"] += s.jobs
                layer["calls"] += 1
        return out

    def top_level_s(self, run_id: str) -> float:
        return sum(s.end - s.start for s in self.spans
                   if s.run_id == run_id and s.parent is None)

    def to_json(self) -> list:
        return [asdict(s) for s in self.spans]


@contextmanager
def traced_cc(tracer: Tracer):
    """Time the CC calls made inside ``gralmatch`` as child spans, by
    wrapping the name where that module imported it."""
    original = gralmatch_mod.components_of_edges
    gralmatch_mod.components_of_edges = tracer.wrap("cc", original)
    try:
        yield
    finally:
        gralmatch_mod.components_of_edges = original


def traced_match(tracer: Tracer, w, inputs, model) -> dict:
    """``run_group_matching`` step by step, one span per layer call.

    Calls the public functions ``run_group_matching`` and ``post_stage``
    call, in the same order, and forces each output inside its span so lazy
    Spark work is charged to the layer that planned it.
    """
    records = inputs.records
    with tracer.span("blocking"):
        cands = P.materialize(P.candidate_pairs(
            w.kind, records, inputs.securities, inputs.company_groups))
        n_candidates = cands.count()
    with tracer.span("scoring"):
        ser = P.serialized_records(records, w.kind, model.spec)
        pred = P.materialize(model.predict(cands, ser).where(
            F.col("prediction") == 1.0).select("src", "dst",
                                                "from_token_overlap"))
    with tracer.span("metrics.pairs"):
        pairwise = P.pairwise_scores(pred, records)
    with tracer.span("cc"):
        pre_labels = P.components_of_edges(pred).withColumnRenamed(
            "component", "group")
    with tracer.span("metrics.pairs"):
        pre = P.closure_scores(pre_labels, records)
    with tracer.span("metrics.purity"):
        pre["purity"] = P.cluster_purity(pre_labels, records)
    with traced_cc(tracer), tracer.span("cleanup"):
        post_labels = P.materialize(P.gralmatch(pred, GAMMA, MU))
    with tracer.span("metrics.pairs"):
        post = P.closure_scores(post_labels, records)
    with tracer.span("metrics.purity"):
        post["purity"] = P.cluster_purity(post_labels, records)
    with tracer.span("assignment"):
        assignment = P.full_assignment(records, post_labels).toPandas()
    return {"pairwise": pairwise, "pre": pre, "post": post,
            "n_candidates": n_candidates, "assignment": assignment,
            "cands": cands, "pred": pred}


def _canonical(pdf: pd.DataFrame) -> pd.DataFrame:
    lo = pdf[["src", "dst"]].min(axis=1)
    hi = pdf[["src", "dst"]].max(axis=1)
    out = pd.DataFrame({"src": lo, "dst": hi})
    return out[out["src"] != out["dst"]].drop_duplicates().sort_values(
        ["src", "dst"], ignore_index=True)


def components(edges: pd.DataFrame) -> dict:
    """``{record: smallest record of its component}`` over ``edges``."""
    graph = Graph(edges[["src", "dst"]].itertuples(
        index=False, name=None))
    return {r: min(c) for c in graph.components() for r in c}


def _true_matches(pairs: pd.DataFrame, gt: dict) -> int:
    return int(sum(gt[u] == gt[v] for u, v in pairs.itertuples(index=False)))


class _RecordingGraph(Graph):
    """Graph that records the edges Algorithm 1 removes."""

    removed: list

    def remove_edge(self, u, v) -> None:
        self.removed.append((min(u, v), max(u, v)))
        super().remove_edge(u, v)


def replay_alg1(edges: pd.DataFrame, assignment: pd.DataFrame, gt: dict,
                gamma: int, mu: int) -> dict:
    """Run ``cleanup_component`` per Stage 3 component on the driver.

    Counts the components where the replay's groups differ from Spark's
    final assignment (``replay_mismatch``); a difference is reported, not
    treated as a failure, because Algorithm 1's tie-breaks depend on the
    order edges arrive in.
    """
    edges = _canonical(edges)
    comp = components(edges)
    edges = edges.assign(component=edges["src"].map(comp))
    spark_group = dict(zip(assignment["id"], assignment["group"]))
    times, removed, mismatch, largest = [], [], 0, 0
    original = gralmatch_mod.Graph
    gralmatch_mod.Graph = _RecordingGraph
    try:
        for _, part in edges.groupby("component", sort=True):
            _RecordingGraph.removed = []
            edge_list = list(part[["src", "dst"]].itertuples(index=False,
                                                            name=None))
            t0 = time.perf_counter()
            groups = gralmatch_mod.cleanup_component(edge_list, gamma, mu)
            times.append(time.perf_counter() - t0)
            removed.extend(_RecordingGraph.removed)
            largest = max(largest, len(groups))
            mismatch += any(spark_group[r] != g for r, g in groups.items())
    finally:
        gralmatch_mod.Graph = original
    removed_true = _true_matches(pd.DataFrame(removed, columns=["src", "dst"]),
                                 gt) if removed else 0
    return {
        "alg1.py_s": sum(times),
        "alg1.py_max_s": max(times, default=0.0),
        "alg1.components": len(times),
        "alg1.largest_input": largest,
        "alg1.edges_removed": len(removed),
        # Share of removed edges that were not true matches; 1 when
        # nothing was removed, since then no true match was cut.
        "alg1.cut_precision": (1 - removed_true / len(removed)
                               if removed else 1.0),
        "alg1.replay_mismatch": mismatch,
    }


def layer_metrics(tracer: Tracer, run_id: str, out: dict, gt: dict,
                  n_gt_pairs: int) -> dict:
    """Per-layer metrics of one traced match from its spans and outputs."""
    layers = tracer.layers(run_id)
    cands = _canonical(out["cands"].select("src", "dst").toPandas())
    pred = out["pred"].toPandas()
    true_cands = _true_matches(cands, gt)
    sizes = pd.Series(components(_canonical(pred))).value_counts()
    m = {}
    for layer in ("blocking", "scoring", "cc", "cleanup", "metrics"):
        m[f"{layer}.s"] = layers[layer]["s"]
        m[f"{layer}.jobs"] = layers[layer]["jobs"]
    m["blocking.candidates"] = len(cands)
    m["blocking.match_share"] = true_cands / len(cands) if len(cands) else 0.0
    m["blocking.pair_completeness"] = (true_cands / n_gt_pairs
                                       if n_gt_pairs else 0.0)
    m["scoring.pairs_per_s"] = (out["n_candidates"] / layers["scoring"]["s"]
                                if layers["scoring"]["s"] else 0.0)
    m["scoring.positive_share"] = (len(pred) / out["n_candidates"]
                                   if out["n_candidates"] else 0.0)
    m["cc.calls"] = layers["cc"]["calls"]
    m["cc.largest_component"] = int(sizes.max()) if len(sizes) else 0
    m["cc.closure_precision"] = out["pre"]["precision"]
    m.update(replay_alg1(pred, out["assignment"], gt, GAMMA, MU))
    return m
