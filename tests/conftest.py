# pachner33 pins BLAS to one thread only if it is imported before numpy:
# numpy fixes its thread count when it loads.
import pachner33  # noqa: F401  (must precede numpy)
import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
