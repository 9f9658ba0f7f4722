"""Benchmark of the solve -> evaluate -> serve path; entry point ``run.py``."""
