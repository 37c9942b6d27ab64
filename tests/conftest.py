"""Shared fixtures and the acceptance verdict reporter."""

import re
import signal
from fractions import Fraction

import pytest
from hypothesis import settings

from krallhahn.hahn import HahnParams

_CRITERION = re.compile(r"::test_criterion_(\d+)\b")

# Every property test draws the same examples on every run (derandomize), keeps
# no example database, and has no per-example deadline; each test sets only
# its max_examples.
settings.register_profile("krallhahn", derandomize=True, database=None, deadline=None)
settings.load_profile("krallhahn")

# far above the slowest test (under a second): a test that runs this long is hung
_TIME_LIMIT_S = 60


def pytest_runtest_logreport(report):
    # one printed verdict line per acceptance criterion
    if report.when != "call":
        return
    matched = _CRITERION.search(report.nodeid)
    if matched is None:
        return
    verdict = "PASS" if report.passed else "FAIL"
    print(f"\nACCEPTANCE criterion-{matched.group(1)}: {verdict}", flush=True)


@pytest.fixture
def desk_params():
    """The small parameter triple used throughout: a=1/2, b=1/3, N=8."""
    return HahnParams(Fraction(1, 2), Fraction(1, 3), 8)


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs past the time limit with a ``TimeoutError`` and its
    traceback, so that a hang fails one test and the suite goes on."""

    def expire(signum, frame):
        raise TimeoutError(f"test ran past {_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, _TIME_LIMIT_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
