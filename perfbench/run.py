"""End-to-end benchmark of ``repro.core.pipeline.run_group_matching``.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload companies_ditto128_nopre --seed 1 \\
        --seconds 1 --trace 0

One run starts its own Spark session, pinned as ``jobs/_session.get_spark``
pins it (``local[4]``, 64 shuffle partitions, Arrow on, broadcast joins
off) with a fixed 2 GiB driver. It generates the workload's inputs from
``--seed`` and trains the workload's model (the set-up). It then calls
``run_group_matching`` back to back, one call at a time, until ``--seconds``
have passed; at least one call always runs. Every call's collected final
assignment is checked with DuckDB, and the call must reproduce the
digest, job count and scores recorded for the workload in
``perfbench/reference.json`` (``perfbench/check.py``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` replaces the
timed calls with one traced call sequence (``perfbench/tracing.py``),
checked the same way, and reports the per-layer metrics; its spans are
written to ``.bench_build/traces/``. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--record`` stores the run's digest, job count and scores as the
workload's reference values, for a change that alters them on purpose.

Seed 20250325 is held out: use it only to confirm a claim made on others.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

#: Session settings, as ``jobs/_session.get_spark`` sets them.
SETTINGS = {
    "master": "local[4]",
    "driver_memory": "2g",
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}

#: A new call starts only if it is expected to end within this many
#: seconds of the process start, so a run exits well inside 180 s.
DEADLINE_S = 150.0

END_TO_END = {
    "match_s": "s", "records_per_s": "records/s", "setup_s": "s",
    "spark_jobs": "count", "pairwise_f1": "fraction",
    "post_precision": "fraction",
    "post_f1": "fraction", "post_purity": "fraction",
}

PER_LAYER = {
    "session.start_s": "s", "entitygen.s": "s", "train.s": "s",
    "train.jobs": "count",
    "blocking.s": "s", "blocking.jobs": "count",
    "blocking.candidates": "count", "blocking.match_share": "fraction",
    "blocking.pair_completeness": "fraction",
    "scoring.s": "s", "scoring.jobs": "count", "scoring.pairs_per_s": "1/s",
    "scoring.positive_share": "fraction",
    "cc.s": "s", "cc.calls": "count", "cc.jobs": "count",
    "cc.largest_component": "count", "cc.closure_precision": "fraction",
    "cleanup.s": "s", "cleanup.jobs": "count",
    "alg1.py_s": "s", "alg1.py_max_s": "s", "alg1.components": "count",
    "alg1.largest_input": "count", "alg1.edges_removed": "count",
    "alg1.cut_precision": "fraction", "alg1.replay_mismatch": "count",
    "metrics.s": "s", "metrics.jobs": "count",
    "process.peak_rss_mb": "MB", "trace.match_s": "s",
    "trace.coverage": "fraction",
}


def parse_args(argv: list) -> argparse.Namespace:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--groups", type=int, default=None,
                    help="override the workload's group count (smoke tests)")
    ap.add_argument("--record", action="store_true",
                    help="store this run's digest, job count and quality "
                         "scores as the workload's reference values")
    return ap.parse_args(argv)


def configure_environment() -> None:
    """Keep every file the run writes inside the checkout, and put ``src``
    on the path of the Python workers Spark launches."""
    tmp, local = BUILD / "tmp", BUILD / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    tempfile.tempdir = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", SETTINGS["master"],
        "--driver-memory", SETTINGS["driver_memory"],
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp}"),
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "pyspark-shell",
    ])


def start_spark():
    from pyspark.sql import SparkSession
    b = SparkSession.builder.appName("perfbench").master(SETTINGS["master"])
    for k, v in SETTINGS.items():
        if k.startswith("spark."):
            b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def peak_rss_mb(spark) -> float:
    """Peak resident memory of this process plus the Spark JVM."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pid = spark.sparkContext._gateway.proc.pid
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return own + int(line.split()[1]) / 1024
    return own


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM, which stops its workers."""
    from pyspark import SparkContext
    gateway = SparkContext._gateway
    spark.stop()
    proc = gateway.proc
    gateway.shutdown()
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def set_up(spark, w, seed: int, groups: int | None, tracer=None):
    """Generate, split and train; ``(inputs, model, seconds)``."""
    import workloads as W
    span = tracer.span if tracer else (lambda name: nullcontext())
    if tracer:
        tracer.open("setup")
    t0 = time.perf_counter()
    with span("entitygen"):
        inputs = W.generate(spark, w, seed, groups)
    with span("train"):
        model = W.train(w, inputs)
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.close()
    return inputs, model, seconds


def observed(pairwise: dict, pre: dict, post: dict, assignment_digest: str,
             jobs: int | None = None) -> dict:
    """The values of a call that must repeat exactly on every seed."""
    out = {"digest": assignment_digest, "pairwise_f1": pairwise["f1"],
           "pre_precision": pre["precision"],
           "post_precision": post["precision"], "post_f1": post["f1"],
           "post_purity": post["purity"]}
    if jobs is not None:
        out["spark_jobs"] = jobs
    return out


def check_call(w, inputs, out: dict, use_reference: bool) -> list:
    """Output check of a call; with ``use_reference`` the call must also
    reproduce the workload's recorded values."""
    from check import problems, reference_problems
    found = problems(out["assignment"], inputs.records_pdf, out["pre"],
                     out["post"])
    if use_reference:
        found += reference_problems(w.name, out["observed"])
    return found


def match_once(clock, w, inputs, model, run_id: str,
               use_reference: bool) -> dict:
    """One timed ``run_group_matching`` call, its job count and its check."""
    from check import digest
    from repro.core.pipeline import run_group_matching
    from workloads import GAMMA, MU
    out = {}
    with clock.count(run_id, out):
        t0 = time.perf_counter()
        scores = run_group_matching(
            inputs.records, w.kind, model, GAMMA, MU,
            securities=inputs.securities,
            company_groups=inputs.company_groups,
            apply_pre_cleanup=False)
        assignment = scores.assignment.toPandas()
        out["match_s"] = time.perf_counter() - t0
    out.update(pairwise=scores.pairwise, pre=scores.pre_cleanup,
               post=scores.post_cleanup, assignment=assignment)
    out["observed"] = observed(out["pairwise"], out["pre"], out["post"],
                               digest(assignment), out["jobs"])
    out["problems"] = check_call(w, inputs, out, use_reference)
    return out


class Calls:
    """Attempted calls and the reasons any of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def attempt(self, label: str, fn, first=None):
        """Run ``fn``; the call fails if it raises, if its output check
        fails, or if its digest, job count or scores differ from those of
        ``first``, an earlier call of the same run."""
        self.attempted += 1
        try:
            r = fn()
        except Exception:
            traceback.print_exc()
            r, problems = None, ["raised"]
        else:
            problems = list(r["problems"])
            if first is not None:
                problems += [
                    f"{k} {v!r} differs from the first call's "
                    f"{first['observed'][k]!r}"
                    for k, v in r["observed"].items()
                    if v != first["observed"][k]]
        if problems:
            self.failed += 1
            self.reasons += [f"{label}: {p}" for p in problems]
            return None
        return r


def end_to_end(runs: list, setup_s: float, n_records: int) -> dict:
    match_s = statistics.median(r["match_s"] for r in runs)
    o = runs[0]["observed"]
    return {
        "match_s": match_s,
        "records_per_s": n_records / match_s,
        "setup_s": setup_s,
        "spark_jobs": o["spark_jobs"],
        "pairwise_f1": o["pairwise_f1"],
        "post_precision": o["post_precision"],
        "post_f1": o["post_f1"],
        "post_purity": o["post_purity"],
    }


def traced_metrics(spark, tracer, w, inputs, model, calls: Calls,
                   session_s: float, seed: int,
                   use_reference: bool) -> dict:
    """The traced call sequence and the per-layer metrics it yields.

    The traced call is checked like an untraced one: its assignment and
    scores must equal the workload's recorded ones, which come from
    untraced runs. Its job count is not compared, since forcing each
    layer's output adds jobs.
    """
    from check import digest
    from tracing import layer_metrics, traced_match

    def call():
        tracer.open("match")
        t0 = time.perf_counter()
        out = traced_match(tracer, w, inputs, model)
        out["seconds"] = time.perf_counter() - t0
        tracer.close()
        out["observed"] = observed(out["pairwise"], out["pre"], out["post"],
                                   digest(out["assignment"]))
        out["problems"] = check_call(w, inputs, out, use_reference)
        return out

    traced = calls.attempt("traced call", call)
    if traced is None:
        return {}
    pdf = inputs.records_pdf
    gt = dict(zip(pdf["record_id"], pdf["gt_group"]))
    sizes = pdf.groupby("gt_group").size()
    metrics = layer_metrics(tracer, "match", traced, gt,
                            int((sizes * (sizes - 1) // 2).sum()))
    setup = tracer.layers("setup")
    metrics.update({
        "session.start_s": session_s,
        "entitygen.s": setup["entitygen"]["s"],
        "train.s": setup["train"]["s"],
        "train.jobs": setup["train"]["jobs"],
        "trace.match_s": traced["seconds"],
        "trace.coverage": tracer.top_level_s("match") / traced["seconds"],
        "process.peak_rss_mb": peak_rss_mb(spark),
    })
    trace_dir = BUILD / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / f"{w.name}-seed{seed}.json").write_text(json.dumps(
        {"settings": SETTINGS, "workload": w.name, "seed": seed,
         "spans": tracer.to_json()}))
    return metrics


def run(args) -> tuple[Calls, dict]:
    """One benchmark run: ``(calls, metric values)``."""
    import workloads as W
    from tracing import JobClock, Tracer

    w = W.WORKLOADS[args.workload]
    start = time.perf_counter()
    spark = start_spark()
    session_s = time.perf_counter() - start
    calls = Calls()
    try:
        clock = JobClock(spark.sparkContext)
        tracer = Tracer(clock) if args.trace else None
        inputs, model, setup_s = set_up(spark, w, args.seed, args.groups,
                                        tracer)
        n_records = len(inputs.records_pdf)
        print(f"workload {w.name}: {n_records} records, seed {args.seed}, "
              f"settings {json.dumps(SETTINGS)}", flush=True)
        # The recorded values hold for the workload's own size only.
        use_reference = not args.record and args.groups is None
        if args.trace:
            return calls, traced_metrics(spark, tracer, w, inputs, model,
                                         calls, session_s, args.seed,
                                         use_reference)
        runs: list = []
        loop_start = time.perf_counter()
        while True:
            i = calls.attempted
            r = calls.attempt(
                f"call {i}",
                lambda: match_once(clock, w, inputs, model, f"call-{i}",
                                   use_reference),
                first=runs[0] if runs else None)
            if r:
                runs.append(r)
                print(f"call {i}: match_s {r['match_s']:.3f} jobs "
                      f"{r['jobs']} assignment {r['observed']['digest']}",
                      flush=True)
            now = time.perf_counter()
            per_call = (now - loop_start) / calls.attempted
            if (now - loop_start >= args.seconds
                    or now - start + per_call > DEADLINE_S):
                break
        if not runs:
            return calls, {}
        if args.record and calls.failed == 0:
            from check import record_reference
            record_reference(w.name, runs[0]["observed"])
        return calls, end_to_end(runs, session_s + setup_s, n_records)
    finally:
        stop_spark(spark)


def main(argv: list) -> int:
    if not (ROOT / "src" / "repro" / "core" / "pipeline.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    args = parse_args(argv)
    configure_environment()
    calls, values = run(args)
    for reason in calls.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": float(values.get(k, 0.0)), "unit": u}
               for k, u in units.items()}
    for k, m in metrics.items():
        print(f"{k:28s} {m['value']:>16.6f} {m['unit']}")
    print(f"{'failed_share':28s} {calls.failed / calls.attempted:>16.6f} "
          f"fraction ({calls.failed} of {calls.attempted} calls)")
    print(json.dumps({"correct": calls.failed == 0 and bool(values),
                      "attempted": calls.attempted, "failed": calls.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
