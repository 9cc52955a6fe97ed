"""Tests for the shared session builder: driver-memory derivation and
which launcher settings win."""
import os
import subprocess
import sys
from pathlib import Path

import pyspark

from _session import _driver_mem

JOBS = Path(__file__).resolve().parent.parent / "jobs"

#: A job in miniature: builds the session through ``get_spark`` and prints
#: the master it got.
PROBE = f"""
import sys
sys.path.insert(0, {str(JOBS)!r})
from _session import get_spark
print("master=" + get_spark("probe").sparkContext.master)
"""


def _mem_total_bytes() -> int:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) << 10
    raise AssertionError("no MemTotal in /proc/meminfo")


def test_driver_mem_fits_in_physical_memory(monkeypatch):
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.delenv("_SPARK_DRIVER_MEM_SRC", raising=False)
    mem = _driver_mem()
    assert mem.endswith("g")
    assert int(mem[:-1]) << 30 <= _mem_total_bytes()


def test_plain_python_session_settings(spark):
    """Without spark-submit the launcher settings come from
    ``PYSPARK_SUBMIT_ARGS``: ``SPARK_MASTER`` or ``local[*]``, a loopback
    driver host, no UI and no console progress bars; the builder adds the
    SQL settings."""
    conf = spark.sparkContext.getConf()
    assert spark.sparkContext.master == os.environ.get("SPARK_MASTER",
                                                       "local[*]")
    assert conf.get("spark.driver.host") == "127.0.0.1"
    assert conf.get("spark.ui.enabled") == "false"
    assert conf.get("spark.ui.showConsoleProgress") == "false"
    assert spark.conf.get("spark.sql.shuffle.partitions") == "64"


def test_spark_submit_master_wins(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(PROBE)
    submit = Path(pyspark.__file__).parent / "bin" / "spark-submit"
    env = {**os.environ, "PYSPARK_PYTHON": sys.executable,
           "PYSPARK_DRIVER_PYTHON": sys.executable}
    out = subprocess.run(
        [str(submit), "--master", "local[2]", "--driver-memory", "512m",
         "--conf", "spark.ui.enabled=false", str(probe)],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert "master=local[2]" in out.stdout.splitlines()
