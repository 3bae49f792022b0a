"""Hypothesis profiles for the whole suite.

``nightly`` is the scheduled CI job's: the spec differentials
(``test_runners.TestRandomBatches``, ``test_cut_channels``) draw 2,000
programs each from the run's seed instead of their fixed tier-1 draws,
and the process-capture resume legs restore every epoch they cut
instead of a fixed sample (:func:`nightly`).
Select it with ``pytest --hypothesis-profile=nightly
--hypothesis-seed=<seed>``; the same seed replays a failure.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "nightly",
    max_examples=2000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def nightly() -> bool:
    """Is the ``nightly`` profile the one loaded?"""
    return settings.default is settings.get_profile("nightly")
