"""``concurrently``: run independent Spark queries of one call at once.

A pipeline call is a chain of small Spark jobs, most of them one task after
adaptive coalescing, so one query at a time leaves most cores idle while
the driver plans and schedules the next job. Queries that do not read each
other's results are issued from threads of their own and share the one
SparkContext; its default FIFO scheduler runs their tasks side by side.

PySpark's pinned-thread mode gives every Python thread its own JVM thread,
and Spark keeps local properties (job group, job description) per JVM
thread. A bare thread would therefore run its jobs outside the caller's job
group, so each thunk is wrapped with ``inheritable_thread_target``, which
copies the caller's properties into the thread that runs it.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from pyspark.sql import SparkSession
from pyspark.util import inheritable_thread_target


def concurrently(*thunks: Callable) -> list:
    """Run the thunks at once (the pool has a thread per thunk); their
    results, in argument order.

    Each thunk gets its own copy of the caller's Spark local properties,
    taken when it is submitted: a copy shared between threads would let
    one query's execution id leak into another's jobs. Every thread has
    finished when this returns or raises; if thunks raised, the exception
    of the first such thunk (in argument order) is re-raised.
    """
    spark = SparkSession.active()
    with ThreadPoolExecutor(max_workers=len(thunks)) as pool:
        futures = [pool.submit(inheritable_thread_target(spark)(t))
                   for t in thunks]
    return [f.result() for f in futures]
