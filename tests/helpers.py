"""Shared test helpers."""

import numpy as np


def random_costs(n: int, rng) -> np.ndarray:
    """Strictly increasing weights drawn uniformly from [0, 10]."""
    while True:
        c = np.sort(rng.uniform(0.0, 10.0, size=n))
        if n == 1 or np.all(np.diff(c) > 0):
            return c
