from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from eqbundle import builtin

# Shared by the property tests: the same examples on every run, no example
# database, and no deadline or too-slow check on the slower systems.
# Apply with @settings(settings.get_profile("derandomized"), ...).
settings.register_profile(
    "derandomized",
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture
def planar():
    return builtin("planar")


@pytest.fixture
def example2():
    return builtin("example2")


@pytest.fixture
def rfmr3():
    return builtin("rfmr", n=3)


def strip_jacobians(sys):
    """Copy of a system with all analytic derivative blocks removed."""
    return dataclasses.replace(
        sys, jac_x_fn=None, jac_lambda_fn=None, jac_h_fn=None, hess_h_fn=None
    )


def rfmr_circulant_eigenvalues(lam_value: float, c: float, n: int) -> np.ndarray:
    """Independent oracle: eigenvalues of the rfmr Jacobian at the symmetric
    point x = (c, ..., c) with equal rates, via the circulant formula.

    The Jacobian there is circulant with first row
    (-lam, lam*c, 0, ..., 0, lam*(1-c)), so its eigenvalues are
    -lam + lam*c*w^j + lam*(1-c)*w^{(n-1)j} for w = exp(2 pi i / n).
    """
    w = np.exp(2j * np.pi / n)
    j = np.arange(n)
    return -lam_value + lam_value * c * w**j + lam_value * (1 - c) * w ** ((n - 1) * j)
