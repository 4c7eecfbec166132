import random
import signal

import pytest
from hypothesis import HealthCheck, settings

from plink.fixtures import random_complex

settings.register_profile(
    "default", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def deadline():
    """deadline(seconds) fails the test once that much wall time has passed,
    so a call that never ends fails instead of hanging the suite."""
    def expire(signum, frame):
        pytest.fail("deadline exceeded")

    previous = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def small_complexes(seed, count, **kw):
    """Deterministic stream of random complexes for oracle-style sweeps."""
    r = random.Random(seed)
    for _ in range(count):
        yield random_complex(r, **kw)
