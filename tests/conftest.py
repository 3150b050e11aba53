import pytest
from hypothesis import HealthCheck, settings

from tracelab.trace import TraceEngine

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def engine():
    return TraceEngine()
