import signal

import pytest

# Each test's wall-clock limit in seconds, about ten times the slowest test,
# so a solver that stops terminating fails its test instead of stalling the
# suite.
TEST_TIME_LIMIT = 60


class TimeLimitExceeded(BaseException):
    """A test ran past `TEST_TIME_LIMIT`.

    Not an `Exception`, for the reason `fixtures.EvaluationCapExceeded` gives:
    Hypothesis then fails the property at once instead of shrinking a runaway
    example for another limit per step.
    """


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(number, label, budget): acceptance criterion metadata")


@pytest.fixture(autouse=True)
def time_limit():
    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    setattr(item, f"rep_{report.when}", report)
