"""The layered benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 -m bench run [--workload NAME]... [--seed N] [--seconds S]
                         [--trace [0|1]] [--smoke] [--out FILE]
    python3 -m bench compare A.jsonl B.jsonl

``BENCHMARK.json`` at the repository root is the contract: it names the
workloads and every metric this package reports.  See ``bench/README.md``.
"""
