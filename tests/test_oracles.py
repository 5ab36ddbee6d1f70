"""The in-repo assignment solver against scipy.

scipy is a test dependency only: scipy.optimize.linear_sum_assignment is
the reference implementation that monodromy.assignment reproduces bit for
bit, ties included, so that eigenvalue tracking gives the same envelopes
whatever scipy version is installed, or none.
"""

import pytest

# the oracle pins how scipy 1.17's solver breaks ties; an older scipy (the
# newest one that installs on Python 3.10) is no reference
pytest.importorskip("scipy", minversion="1.17")

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from eqbundle.monodromy import assignment


def _conjugate_track_costs(draw, p):
    """|prediction - candidate| of real predictions against a spectrum with
    conjugate pairs: real tracks meeting a pair tie exactly."""
    pairs = draw(st.integers(0, p // 2))
    coords = st.floats(-3, 3, allow_subnormal=False)
    re = np.array(draw(st.lists(coords, min_size=p, max_size=p)))
    im = np.array(draw(st.lists(st.floats(0.01, 3), min_size=pairs, max_size=pairs)))
    candidates = re.astype(complex)
    candidates[:pairs] += 1j * im
    candidates[pairs : 2 * pairs] = np.conj(candidates[:pairs])
    # predictions: the real parts, some nudged, in a drawn order
    nudge = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1e-3]), min_size=p, max_size=p)))
    order = draw(st.permutations(range(p)))
    predicted = (candidates.real + nudge)[list(order)]
    return np.abs(predicted[:, None] - candidates[None, :])


@st.composite
def cost_matrices(draw):
    p = draw(st.integers(1, 20))
    kind = draw(st.sampled_from(["random", "small-integer", "constant", "conjugate"]))
    if kind == "random":
        values = st.floats(0, 10, allow_subnormal=False)
        return np.array(draw(st.lists(values, min_size=p * p, max_size=p * p))).reshape(p, p)
    if kind == "small-integer":
        values = st.integers(0, 2)
        return np.array(draw(st.lists(values, min_size=p * p, max_size=p * p)), float).reshape(p, p)
    if kind == "constant":
        return np.full((p, p), draw(st.sampled_from([0.0, 1.0, 2.5])))
    return _conjugate_track_costs(draw, p)


@settings(settings.get_profile("derandomized"), max_examples=300)
@given(cost=cost_matrices())
def test_assignment_equals_linear_sum_assignment(cost):
    rows, cols = linear_sum_assignment(cost)
    assert np.array_equal(rows, np.arange(cost.shape[0]))
    assert np.array_equal(assignment(cost), cols)
