"""One Hypothesis profile for every property test: a fixed seed and no
example database, so each run of the suite draws the same examples, and no
deadline, as a draw's time depends on the machine."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
    settings.load_profile("repeatable")
