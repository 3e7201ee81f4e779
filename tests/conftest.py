import numpy as np
import pytest

from quiltlab._verify import fixture_subtemplate as build_subtemplate
from quiltlab._verify import fixture_template as build_template

MASTER_SEED = 2


@pytest.fixture
def rng():
    return np.random.default_rng(MASTER_SEED)
