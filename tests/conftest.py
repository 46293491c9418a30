import contextlib
import signal

import pytest
from hypothesis import settings

from homprod import css, product

# codes.py holds shared assertion helpers: rewrite them as in a test module
pytest.register_assert_rewrite("codes")

from codes import CYC3, REP2, REP3, double, single  # noqa: E402

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


# the products and codes several modules test, built once per module


@pytest.fixture(scope="module")
def tilde_rep2():
    return single(REP2)


@pytest.fixture(scope="module")
def breve_rep2(tilde_rep2):
    return product.double_product(tilde_rep2)


@pytest.fixture(scope="module")
def tilde_rep3():
    return single(REP3)


@pytest.fixture(scope="module")
def breve_rep3(tilde_rep3):
    return product.double_product(tilde_rep3)


@pytest.fixture(scope="module")
def code33(breve_rep2):
    return css.from_complex(breve_rep2)


@pytest.fixture(scope="module")
def code241(breve_rep3):
    return css.from_complex(breve_rep3)


@pytest.fixture(scope="module")
def code486():
    return css.from_complex(double(CYC3))
