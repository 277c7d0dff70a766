"""Tier-1 runs every Hypothesis test derandomized and with no deadline, so
that a run neither depends on a random seed nor on the speed of the host."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
