"""Benchmark for mechcat: three workloads, end-to-end and per-layer metrics.

Run ``python3 mcbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0``
from the repository root; see ``mcbench/README.md``.
"""
