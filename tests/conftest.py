"""One hypothesis profile for the whole suite: every property test draws
the same examples on every run, with no deadline and no example database."""

from hypothesis import settings

settings.register_profile("corrgeo", derandomize=True, deadline=None, database=None)
settings.load_profile("corrgeo")
