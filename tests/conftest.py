import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "pwlab",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pwlab")


@pytest.fixture(scope="session")
def grid1():
    from pwlab.pwspace import default_grid
    return default_grid(1.0)
