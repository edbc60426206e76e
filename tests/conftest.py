import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# One policy for every property test: derandomized and without an example
# database, so every run sees the same examples, and with no deadline, so a
# slow example on a loaded machine is not a failure.  Each test module sets
# only its own max_examples on top of this profile.
settings.register_profile("flagiso", derandomize=True, database=None, deadline=None)
settings.load_profile("flagiso")
