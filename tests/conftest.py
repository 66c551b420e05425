import numpy as np
import pytest


def _uniform_stream(seed: int, stream: int, count: int) -> np.ndarray:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(count)


@pytest.fixture(scope="session")
def uniform_stream():
    """uniform_stream(seed, stream, count): the first ``count`` uniforms of the
    Philox stream keyed by (seed, stream), independent of the sampler's draws."""
    return _uniform_stream
