"""Repository benchmark: the paper's evaluation pipeline under load.

Run one workload with ``python3 perfbench/run.py --workload <name>``; see
``perfbench/README.md`` for the workloads, metrics and tracing.
"""
