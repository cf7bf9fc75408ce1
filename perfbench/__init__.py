"""Workload benchmark for the entrange library (run ``python3 perfbench/run.py --help``)."""
