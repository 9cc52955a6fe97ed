"""``repro.parallel.concurrently``: results, failures, threads and the Spark
local properties each thunk runs with."""
import threading
import time

import pytest

from repro.parallel import concurrently

_GROUP = "spark.jobGroup.id"


class Boom(Exception):
    pass


def test_results_in_argument_order(spark):
    def slow():
        time.sleep(0.2)
        return "slow"

    assert concurrently(slow, lambda: "fast", lambda: 3) == ["slow", "fast",
                                                              3]


def test_thunks_overlap(spark):
    """Both thunks must be running at the same time to pass the barrier."""
    barrier = threading.Barrier(2, timeout=10)
    assert concurrently(barrier.wait, barrier.wait) in ([0, 1], [1, 0])


def test_reraises_and_leaves_no_thread(spark):
    baseline = threading.active_count()
    finished = threading.Event()

    def slow_ok():
        time.sleep(0.3)
        finished.set()
        return 1

    def fail():
        raise Boom("first")

    def fail_later():
        time.sleep(0.1)
        raise ValueError("second")

    with pytest.raises(Boom, match="first"):
        concurrently(slow_ok, fail, fail_later)
    # Every thread ran to its end before the exception reached the caller.
    assert finished.is_set()
    assert threading.active_count() == baseline


def test_no_thread_left_after_success(spark):
    baseline = threading.active_count()
    concurrently(lambda: spark.range(10).count(), lambda: 1)
    assert threading.active_count() == baseline


def test_jobs_run_in_callers_job_group(spark):
    sc = spark.sparkContext
    outer = sc.getLocalProperty(_GROUP)
    sc.setLocalProperty(_GROUP, "test-parallel-group")
    try:
        seen = concurrently(lambda: sc.getLocalProperty(_GROUP),
                            lambda: spark.range(5).count())
    finally:
        sc.setLocalProperty(_GROUP, outer)
    assert seen[0] == "test-parallel-group"
    ids = sc.statusTracker().getJobIdsForGroup("test-parallel-group")
    assert len(ids) >= 1


def test_each_thunk_has_its_own_properties(spark):
    """A property one thunk sets is not seen by another, nor by the
    caller: each thread runs on its own copy."""
    sc = spark.sparkContext
    set_done = threading.Event()

    def setter():
        sc.setLocalProperty("repro.test.key", "mine")
        set_done.set()
        return sc.getLocalProperty("repro.test.key")

    def reader():
        assert set_done.wait(10)
        return sc.getLocalProperty("repro.test.key")

    assert concurrently(setter, reader) == ["mine", None]
    assert sc.getLocalProperty("repro.test.key") is None
