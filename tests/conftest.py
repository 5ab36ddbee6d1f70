from __future__ import annotations

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

# the variables OpenBLAS reads its thread count from, in this order
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture
def planar():
    return builtin("planar")


@pytest.fixture
def example2():
    return builtin("example2")


@pytest.fixture
def rfmr3():
    return builtin("rfmr", n=3)


def central_jacobian(fn, z: np.ndarray) -> np.ndarray:
    """Central differences of the vector function fn at the point z, with
    steps cbrt(eps) max(1, |z_j|): (len(fn(z)), len(z))."""
    steps = np.cbrt(np.finfo(float).eps) * np.fmax(1.0, np.abs(z))
    columns = []
    for j, step in enumerate(steps):
        up, down = z.copy(), z.copy()
        up[j], down[j] = z[j] + step, z[j] - step
        columns.append((np.asarray(fn(up)) - np.asarray(fn(down))) / (2 * step))
    return np.array(columns).T


def central_hessians(fn, z: np.ndarray) -> np.ndarray:
    """Central 4-point cross differences of every component of fn at the
    point z, with steps eps^(1/4) max(1, |z_j|): (len(fn(z)), n, n)."""
    n = len(z)
    steps = [np.finfo(float).eps ** 0.25 * max(1.0, abs(v)) for v in z]

    def at(*moves):
        y = z.copy()
        for i, sign in moves:
            y[i] = z[i] + sign * steps[i]
        return np.asarray(fn(y))

    f0 = at()
    H = np.empty((len(f0), n, n))
    for i in range(n):
        H[:, i, i] = (at((i, 1)) - 2 * f0 + at((i, -1))) / steps[i] ** 2
        for j in range(i + 1, n):
            H[:, i, j] = H[:, j, i] = (
                at((i, 1), (j, 1)) - at((i, 1), (j, -1))
                - at((i, -1), (j, 1)) + at((i, -1), (j, -1))
            ) / (4 * steps[i] * steps[j])
    return H


def central_blocks(sys, lam, x) -> tuple:
    """(df/dx, df/dlambda, dh/dx, Hessians of h) of sys at the point (lam,
    x) by central differences of its f and h."""
    lam, x = np.asarray(lam, dtype=float), np.asarray(x, dtype=float)
    return (
        central_jacobian(lambda y: sys.f(lam, y), x),
        central_jacobian(lambda mu: sys.f(mu, x), lam),
        central_jacobian(sys.h, x),
        central_hessians(sys.h, x),
    )


def ring_declaration(n: int) -> dict:
    """The rfmr(n) ring written as expressions."""
    f = [
        f"l{(i - 1) % n + 1}*x{(i - 1) % n + 1}*(1-x{i + 1})"
        f" - l{i + 1}*x{i + 1}*(1-x{(i + 1) % n + 1})"
        for i in range(n)
    ]
    return {
        "n": n, "m": n, "k": 1, "f": f,
        "h": ["+".join(f"x{i + 1}" for i in range(n))],
        "domain_box": [[0.0, 1.0]] * n,
    }


def circle_fiber_system():
    # f vanishes exactly on the circle x^2 + y^2 = 1/4 (and at the origin,
    # which is a separate component); h = x^2 + y^2
    def f(lam, x):
        g = x[0] ** 2 + x[1] ** 2 - 0.25
        return np.array([-lam[0] * g * x[1], lam[0] * g * x[0]])

    def jac_x(lam, x):
        g = x[0] ** 2 + x[1] ** 2 - 0.25
        return lam[0] * np.array([
            [-2.0 * x[0] * x[1], -(2.0 * x[1] * x[1] + g)],
            [2.0 * x[0] * x[0] + g, 2.0 * x[1] * x[0]],
        ])

    def jac_lambda(lam, x):
        g = x[0] ** 2 + x[1] ** 2 - 0.25
        return np.array([[-g * x[1]], [g * x[0]]])

    def h(x):
        return np.array([x[0] ** 2 + x[1] ** 2])

    return SystemSpec(
        name="circle-fiber", n=2, m=1, k=1, f=f, h=h,
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.25, 4.0]]),
        jac_x_fn=jac_x, jac_lambda_fn=jac_lambda,
        jac_h_fn=lambda x: np.array([2.0 * x]), hess_h_fn=lambda x: 2.0 * np.eye(2)[None],
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
