"""The in-package Brent root finder against the SciPy routine it ports."""

import math

import numpy as np
import pytest
from scipy import optimize

from b92sim._brent import brent_root
from b92sim.errors import ConsistencyError, DomainError


def seeded_brackets(seed=5, size=12):
    """(f, a, b): cubics, a transcendental and a flat-ended root, each with
    a seeded bracket around its one root."""
    rng = np.random.default_rng(seed)
    for _ in range(size):
        c, s = rng.uniform(-3.0, 3.0), rng.uniform(0.2, 5.0)
        a, b = -4.0 - rng.uniform(0.0, 2.0), 4.0 + rng.uniform(0.0, 2.0)
        yield (lambda x, c=c: x ** 3 - c), a, b
        yield (lambda x, s=s: math.cos(x) - s * x), -math.pi / 2, math.pi / 2 + s
        yield (lambda x, c=c: math.tanh(x - c) - 1e-3 * (x - c)), c - s, c + 2.0 * s


class TestBrentRoot:
    @pytest.mark.parametrize("xtol", [2e-12, 1e-15, 1e-6])
    def test_equals_brentq(self, xtol):
        for f, a, b in seeded_brackets():
            assert brent_root(f, a, b, xtol) == optimize.brentq(f, a, b, xtol=xtol)
            assert brent_root(f, b, a, xtol) == optimize.brentq(f, b, a, xtol=xtol)

    def test_root_at_an_end_is_returned(self):
        assert brent_root(lambda x: x - 1.0, 1.0, 3.0, 1e-15) == 1.0
        assert brent_root(lambda x: x - 3.0, 1.0, 3.0, 1e-15) == 3.0

    def test_no_sign_change_raises(self):
        with pytest.raises(DomainError, match="different signs"):
            brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-15)
        with pytest.raises(ValueError):
            optimize.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-15)

    def test_nan_value_raises(self):
        with pytest.raises(DomainError, match="nan"):
            brent_root(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0, 1e-15)

    def test_no_convergence_raises(self):
        f = lambda x: x ** 3 - 2.0  # noqa: E731
        with pytest.raises(ConsistencyError):
            brent_root(f, 0.0, 5.0, 1e-15, maxiter=3)
        with pytest.raises(RuntimeError):
            optimize.brentq(f, 0.0, 5.0, xtol=1e-15, maxiter=3)

