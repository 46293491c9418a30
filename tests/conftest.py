import contextlib
import signal

import pytest
from hypothesis import settings

# exhaustive GF(2) searches have high per-example variance (cache warmup,
# machine load); correctness is what the properties check, not latency
settings.register_profile("homprod", deadline=None)
settings.load_profile("homprod")


@pytest.fixture()
def deadline():
    """Context manager that turns a call running past `seconds` into a
    TimeoutError, so a regressed loop fails instead of hanging the suite."""

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
