"""Shared pytest setup: one deterministic hypothesis profile for the suite.

Property tests draw the same examples on every run, have no per-example
deadline (a slow shared runner must not turn a pass into a flake), and stop
after a bounded number of examples so the suite's run time stays fixed.
"""
from hypothesis import settings

settings.register_profile("hspsim", derandomize=True, deadline=None,
                          max_examples=200)
settings.load_profile("hspsim")
