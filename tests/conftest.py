"""One hypothesis profile for the whole suite: examples are drawn from a
fixed seed and never timed out, so every run checks the same cases."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("nilorbit", derandomize=True, deadline=None)
    settings.load_profile("nilorbit")
