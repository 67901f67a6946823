"""Hypothesis profiles, and a fixture that runs code in a fresh interpreter.

``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run and prints a
reproduction blob for each failure, so a failing CI run can be repeated
locally with the same variable set; without it the default profile draws
fresh examples."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import settings

import ssmfrac

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def fresh_interpreter():
    """Run code in a new Python process that imports this ssmfrac; returns
    the JSON-able value the code leaves in ``status`` (None by default)
    and the sorted names of the scipy modules loaded when it ends."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ssmfrac.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(code):
        script = ("import json, sys\nstatus = None\n" + code + "\n"
                  "print(json.dumps([status, sorted(\n"
                  "    m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        return json.loads(out.stdout.splitlines()[-1])
    return run
