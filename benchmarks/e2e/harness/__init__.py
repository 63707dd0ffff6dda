"""End-to-end benchmark harness (see ../README.md).

Nothing here imports ``repro`` at module import time: the self-tests
in ``../test_harness.py`` run without ``PYTHONPATH=src``, and the
orchestrator in ``../run.py`` must be able to fail cleanly when the
program's sources are missing.
"""
