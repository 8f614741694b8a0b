import pytest

from rlnd import external, load_bundled_instance
from rlnd.scenarios import builtin_scenarios, materialize


@pytest.fixture(scope="session")
def bundled():
    return load_bundled_instance()


@pytest.fixture(scope="session")
def tight40(bundled):
    return materialize(builtin_scenarios()["capacity-40"], bundled)


@pytest.fixture
def two_cpus(monkeypatch):
    """The HiGHS adapter's background worker runs on a one-CPU machine too."""
    monkeypatch.setattr(external, "_usable_cpus", lambda: 2)
