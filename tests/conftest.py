"""Hypothesis profiles. ``HYPOTHESIS_PROFILE=ci`` draws the same examples on
every run and prints a reproduction blob for each failure, so a failing CI
run can be repeated locally with the same variable set; without it the
default profile draws fresh examples."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
