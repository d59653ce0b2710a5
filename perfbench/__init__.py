"""Benchmark for the active_ht package; run ``python3 perfbench/run.py --help``."""
