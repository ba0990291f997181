"""The ``deep`` Hypothesis profile, registered and never loaded here.

Tier-1 runs every property at Hypothesis's defaults.  CI's
``codec-deep`` job runs the codec properties with
``--hypothesis-profile=deep``: more examples, and no deadline, since a
deep run is judged on what it finds, not on how fast each example is.
A test's own ``@settings`` still win over the profile.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=1000, deadline=None)
