"""Property tests draw the same examples on every run: hypothesis is
derandomized and keeps no example database, so a failure found once is
found again by the next run, here or on another machine."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
