"""Hypothesis profiles for the test suite.

`mutants` runs every phase but the explain phase, which only annotates a
failing example.  `tests/mutants.py` passes it as `--hypothesis-profile`:
a mutant's verdict reads pytest's exit code alone, so the profile leaves
every verdict as it was.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.explain])
