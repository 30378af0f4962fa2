"""Test-session settings shared by every module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so the suite's verdict
# does not depend on the run; design examples take up to about a second, so
# no per-example deadline applies.
settings.register_profile("simo_energy", derandomize=True, deadline=None)
settings.load_profile("simo_energy")
