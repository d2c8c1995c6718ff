"""Benchmark of the betheforge workbench (run perfbench/run.py)."""
