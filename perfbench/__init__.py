"""Benchmark for vcbent: seeded workloads, end-to-end metrics and a traced run.

Run it from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 18 --trace 0

See perfbench/run.py for the workloads, metrics and output format.
"""
