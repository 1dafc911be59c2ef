"""Test-suite defaults.

Property tests run derandomized and without an example database, so the
suite's verdict depends only on the code under test, never on a
``.hypothesis/`` directory left behind by earlier runs.  Hypothesis's
own ``--hypothesis-profile=default`` restores random, database-backed
search; a counterexample it finds belongs in the test as an
``@example``.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
