"""End-to-end and per-layer benchmark of the fault-injection pipeline.

``python -m bench run`` drives the public campaign CLI and the public
analysis functions on four workloads and checks their outputs; see
``bench/README.md`` and ``BENCHMARK.json`` at the repository root.
"""
