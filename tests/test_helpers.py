import numpy as np

from helpers import random_costs


def test_random_costs_strictly_increasing():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5):
        c = random_costs(n, rng)
        assert c.size == n and c[0] >= 0.0
        assert np.all(np.diff(c) > 0)
