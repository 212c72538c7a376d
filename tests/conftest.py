"""Shared pytest set-up: property tests draw the same examples on every run,
with no per-example deadline, so that a slow host cannot fail them."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")
