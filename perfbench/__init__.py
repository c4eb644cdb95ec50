"""Benchmark of batch and live crowd evaluation; run ``perfbench/run.py``."""
