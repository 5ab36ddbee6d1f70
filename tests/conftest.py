from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from eqbundle import builtin
from eqbundle.systems import Domain, SystemSpec

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


def circle_fiber_system():
    # f vanishes exactly on the circle x^2 + y^2 = 1/4 (and at the origin,
    # which is a separate component); h = x^2 + y^2
    def f(lam, x):
        g = x[0] ** 2 + x[1] ** 2 - 0.25
        return np.array([-lam[0] * g * x[1], lam[0] * g * x[0]])

    def h(x):
        return np.array([x[0] ** 2 + x[1] ** 2])

    return SystemSpec(
        name="circle-fiber", n=2, m=1, k=1, f=f, h=h,
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.25, 4.0]]),
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


def count_calls(monkeypatch, name: str, *owners) -> list:
    """Wrap the function `name` of each module or object in owners so that
    every call appends `name` to the returned list, then calls through."""
    calls = []
    for owner in owners:
        real = getattr(owner, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def sample_box(domain, rng: np.random.Generator, count: int) -> np.ndarray:
    """count points drawn uniformly from the domain's box."""
    lo, hi = domain.box[:, 0], domain.box[:, 1]
    return lo + (hi - lo) * rng.random((count, domain.dim))
