"""Hypothesis profiles for the suite.

``ci`` changes nothing but ``print_blob``: a failing property test prints its
``@reproduce_failure`` line, so a red CI run can be replayed locally. Select
it with ``pytest --hypothesis-profile=ci``.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
