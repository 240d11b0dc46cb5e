"""Benchmark for the protoreplay engine; run it with ``python3 perfbench/run.py``."""
