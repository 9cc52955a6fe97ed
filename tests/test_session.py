"""Tests for the shared session builder's driver-memory derivation."""
from _session import _driver_mem


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
