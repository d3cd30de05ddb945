"""The repository's benchmark: ``python3 perfbench/run.py --help``.

See ``perfbench/README.md`` for the workloads, the metric families and
how the traced wall-time ledger is built.
"""
