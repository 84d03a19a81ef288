"""xbench: the repository benchmark (workloads, clock, per-layer ledger).

``run.py`` is the command; see ``README.md`` for the metrics, the
workloads and how to read a comparison.
"""
