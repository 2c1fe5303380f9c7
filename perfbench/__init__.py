"""The repository's benchmark: live-cluster and offline workloads.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see
``perfbench/README.md`` for the workloads, the metrics and how the
numbers are gated.
"""
