"""Invariants of the horizontal lift on rfmr(3), the work one lift step
costs, and the rank cutoff of partly analytic systems."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eqbundle import builtin
from eqbundle.audit import audit_point
from eqbundle.finder import newton_on_level_set
from eqbundle.systems import PointState
from eqbundle.transport import check_cocycle, lift_curve

RFMR3 = builtin("rfmr", n=3)
RATES = st.lists(st.floats(0.5, 3.0), min_size=3, max_size=3)
LEVELS = st.floats(0.6, 2.4)


def equilibrium(lam, level):
    """The equilibrium of rfmr(3) on sum(x) = level, from the diagonal."""
    return newton_on_level_set(RFMR3, lam, [level], np.full(3, level / 3.0)).state.x


@settings(settings.get_profile("derandomized"), max_examples=30)
@given(lam1=RATES, lam2=RATES, level=LEVELS)
def test_out_and_back_lift_returns_to_start(lam1, lam2, level):
    x0 = equilibrium(lam1, level)
    result = lift_curve(RFMR3, [lam1, lam2, lam1], x0)
    assert np.linalg.norm(result.gamma[-1] - x0) <= 1e-8


@settings(settings.get_profile("derandomized"), max_examples=20)
@given(lam1=RATES, lam2=RATES, lam3=RATES, level=LEVELS)
def test_cocycle_residual_on_random_triangles(lam1, lam2, lam3, level):
    x0 = equilibrium(lam1, level)
    assert check_cocycle(RFMR3, lam1, lam2, lam3, x0) <= 1e-8


def test_lift_step_evaluates_h_once(planar):
    # h is read once for the level and once per accepted step, inside the
    # corrector; the step's drift comes from the corrector's residual
    calls = []

    def h(x):
        calls.append(1)
        return planar.h(x)

    counted = dataclasses.replace(planar, h=h)
    result = lift_curve(counted, [[0.2], [0.9]], [-0.15, 0.5])
    assert len(calls) == 1 + result.steps_taken == 2


def test_rank_cutoff_ignores_unused_fd_blocks(rfmr3):
    # no rank decision of the audit reads the Hessian of h
    u = PointState([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
    partly = dataclasses.replace(rfmr3, hess_h_fn=None)
    assert audit_point(partly, u).tolerances == audit_point(rfmr3, u).tolerances
