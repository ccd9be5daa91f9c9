"""Benchmark of the oddhom package: three exact searches and a query corpus.

See README.md in this directory; ``run.py`` is the entry point.
"""
