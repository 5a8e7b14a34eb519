import numpy as np
import pytest

import paramix as pm
from paramix import acceptance


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def reference():
    return pm.reference_device()


@pytest.fixture(scope="session")
def battery():
    """One run of the acceptance battery, by criterion number, shared by the session."""
    out = {r.number: r for r in acceptance.run_all()}
    assert sorted(out) == list(range(1, 13))
    return out
