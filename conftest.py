"""Every test, and every process a test starts, runs with BITORSOR_CHECK=full:
values the calculus builds by formula are validated as well, and a failure
raises AssertionError.  bitorsor_kit reads the variable once, at import, so
it is set here, before any test module imports the package.
tests/test_trust_boundary.py runs its commands with the variable unset."""

import os

os.environ["BITORSOR_CHECK"] = "full"
