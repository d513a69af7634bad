import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from metricweights import MetricMeasureSpace, build_grid_space

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def s2():
    return build_grid_space(1, 2, 1.0)


@pytest.fixture
def s3():
    return build_grid_space(1, 3, 1.0)


@pytest.fixture
def line11():
    # 0..10 unit line, the standard cover fixture
    return build_grid_space(1, 11, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def cube_path():
    """300 uniform points of the unit cube (seed 5) joined by path edges in x
    order, and the domain mask 0.2 < x < 0.8. The chain report samples only
    pairs one chain step apart on it."""
    coords = np.random.default_rng(5).uniform(size=(300, 3))
    order = np.argsort(coords[:, 0])
    us, vs = order[:-1], order[1:]
    lengths = MetricMeasureSpace(mu=np.ones(300), coords=coords).pair_dists(us, vs)
    space = MetricMeasureSpace(mu=np.ones(300), coords=coords,
                               edges=np.column_stack([us, vs, lengths]))
    return space, (coords[:, 0] > 0.2) & (coords[:, 0] < 0.8)
