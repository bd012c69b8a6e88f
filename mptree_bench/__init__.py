"""End-to-end and per-layer benchmark of the mptree library.

Run it from the root of a checkout::

    python3 mptree_bench/run.py --workload calibrate --seed 1 --seconds 20 --trace 0

See ``mptree_bench/README.md`` for the workloads and metrics.
"""
