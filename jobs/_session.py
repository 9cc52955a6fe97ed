"""Shared SparkSession builder for the job entrypoints and the test suite.

Jobs and tests use one config (shuffle partitions, Arrow, broadcast joins
disabled) so job runs and test runs exercise identical plans. Broadcast
joins are disabled so the blocking joins exercise the shuffle path; a
query that wants a broadcast join sets the threshold back itself.
"""
import os


def _driver_mem() -> str:
    """~75% of the memory this process may use, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > 75% of the
    smaller of the cgroup v2/v1 limit and ``MemTotal`` in /proc/meminfo >
    2g when neither is readable.

    The cgroup read is best-effort: a sandbox's sysfs emulation may not
    pass the host limit through, and an unlimited cgroup (v2 "max",
    v1's ~9.2e18 sentinel) is larger than ``MemTotal``, so the JVM is
    never handed more heap than the machine has.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    limits = {}
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    limits["meminfo:MemTotal"] = int(line.split()[1]) << 10
    except (OSError, ValueError):
        pass
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            with open(p) as f:
                limits[f"cgroup:{p}"] = int(f.read())
        except (OSError, ValueError):  # absent, or v2 "max"
            continue
    if not limits:
        os.environ["_SPARK_DRIVER_MEM_SRC"] = "default"
        return "2g"
    src = min(limits, key=limits.get)
    os.environ["_SPARK_DRIVER_MEM_SRC"] = f"{src}={limits[src]}"
    return f"{max(1, int(limits[src] * 0.75) >> 30)}g"


# spark.driver.memory is read at JVM launch, not from SparkConf, so it must
# be in PYSPARK_SUBMIT_ARGS before the first pyspark import; harmless under
# spark-submit, which sets its own.
os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402


def get_spark(app: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
