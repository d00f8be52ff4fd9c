"""The repo's performance benchmark: four workloads, measured in equal
laps from outside the program through its public callables.

Entry points: ``python3 benchmarks/perf/run.py`` (one workload, one
JSON line — the form ``BENCHMARK.json`` names) and ``python -m
benchmarks.perf run|compare`` (every workload, a table). See
``README.md`` in this directory.
"""
