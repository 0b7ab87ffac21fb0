"""Hypothesis profiles for the test suite.

Property tests that do not pin ``max_examples`` themselves take it from
the active profile: 100 by default (tier-1), 5 000 under
``pytest --hypothesis-profile nightly`` -- how the nightly lane
(.github/workflows/nightly.yml) runs the wire-codec fuzz.
"""

from hypothesis import settings

settings.register_profile("nightly", max_examples=5_000, deadline=None)
