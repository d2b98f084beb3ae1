"""The repository's benchmark: four measured workloads and per-layer attribution.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload; ``python -m perfbench {run,trace,compare}`` drives the
suite.  See ``perfbench/README.md``.
"""
