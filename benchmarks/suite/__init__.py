"""End-to-end benchmark suite: solve, serve and repair workloads.

Run it as ``python -m benchmarks.suite`` (see ``__main__.py`` and
``README.md``).  Importing this package imports nothing from ``repro``.
"""
