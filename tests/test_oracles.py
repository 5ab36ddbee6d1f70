"""The in-repo Halton starts and assignment solver against scipy.

scipy is a test dependency only: scipy.stats.qmc and
scipy.optimize.linear_sum_assignment are the reference implementations
that finder.level_starts and monodromy.assignment reproduce bit for bit,
so that find and eigenvalue tracking give the same envelopes whatever
scipy version is installed, or none.
"""

from types import SimpleNamespace

import pytest

# the oracles pin scipy 1.17's Halton layout bit for bit; an older scipy
# (the newest one that installs on Python 3.10) is no reference
pytest.importorskip("scipy", minversion="1.17")

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.stats import qmc

from eqbundle.finder import level_starts
from eqbundle.monodromy import assignment


def _box_system(box):
    # level_starts reads only n and the domain box
    return SimpleNamespace(n=box.shape[0], domain=SimpleNamespace(box=box))


@st.composite
def boxes(draw):
    d = draw(st.integers(1, 30))
    lo = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)))
    width = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d)))
    return np.column_stack([lo, lo + width])


@settings(settings.get_profile("derandomized"), max_examples=150)
@given(
    box=boxes(),
    budget=st.one_of(st.integers(1, 40), st.integers(1, 600)),
    seed=st.integers(0, 2**63 - 1),
)
def test_level_starts_equal_scrambled_halton(box, budget, seed):
    reference = qmc.scale(
        qmc.Halton(d=box.shape[0], scramble=True, seed=seed).random(budget),
        box[:, 0],
        box[:, 1],
    )
    starts = level_starts(_box_system(box), budget, seed)
    assert starts.shape == reference.shape
    assert np.array_equal(starts, reference)


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
