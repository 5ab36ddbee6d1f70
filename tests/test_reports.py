"""canonical_json against the stdlib encoder it stands in for, and the
atomic report writer."""

import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqbundle import reports
from eqbundle.reports import canonical_json, write_text_atomic


def stdlib(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), FLOATS,
    st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€😀 '), max_size=6),
)
KEYS = st.text(alphabet=st.sampled_from('ab"\\\n\x01é😀 '), max_size=5)


def payloads(leaves, max_leaves=12):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.lists(FLOATS, max_size=5),
            st.dictionaries(KEYS, inner, max_size=4),
        ),
        max_leaves=max_leaves,
    )


@settings(settings.get_profile("derandomized"), max_examples=60)
@given(payload=payloads(SCALARS))
def test_canonical_json_is_the_stdlib_text(payload):
    assert canonical_json(payload) == stdlib(payload)


@settings(settings.get_profile("derandomized"), max_examples=40)
@given(
    payload=payloads(SCALARS, max_leaves=3),
    bad=st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")]),
    where=st.sampled_from(["key", "list", "floats", "top"]),
)
def test_canonical_json_raises_where_a_nan_or_inf_sits(payload, bad, where):
    if where == "key":
        payload = {"a": payload, "b": {"c": bad}}
    elif where == "list":
        payload = [payload, "s", [1, bad]]
    elif where == "floats":
        payload = {"a": [0.5, 1.5, bad, 2.5], "b": payload}
    else:
        payload = bad
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        stdlib(payload)
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        canonical_json(payload)


@pytest.mark.parametrize("payload", [
    {}, [], (), {"a": []}, {"a": {}}, [1.5, 2], [0.5, True], [1.5, None, "s"],
    {"b": 1, "a": [0.25, -0.0, 1e308]}, {"é": "😀", "": [()]},
    {"t": True, "f": False, "n": None, "x": 0.5},
])
def test_canonical_json_edge_payloads(monkeypatch, payload):
    expected = stdlib(payload)
    # the walker writes each of these itself: it never falls back to json
    monkeypatch.setattr(reports, "json", None)
    assert canonical_json(payload) == expected


@pytest.mark.parametrize("payload, error", [
    ({1: "a"}, None), ({1: "a", "b": 2}, TypeError), ({"a": np.float32(1.0)}, TypeError),
    ({"a": {1, 2}}, TypeError), ({"a": np.int64(3)}, TypeError),
])
def test_what_the_walker_leaves_goes_to_the_stdlib(payload, error):
    if error is None:
        assert canonical_json(payload) == stdlib(payload)
        return
    with pytest.raises(error):
        stdlib(payload)
    with pytest.raises(error):
        canonical_json(payload)


def test_a_cycle_is_the_stdlib_error():
    payload: dict = {"a": [1.0]}
    payload["a"].append(payload)
    with pytest.raises(ValueError, match="Circular reference detected"):
        canonical_json(payload)


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o002, 0o664), (0o077, 0o600)], ids=["022", "002", "077"]
)
def test_a_report_gets_the_mode_of_a_plain_open(tmp_path, umask, mode):
    # a new report gets 0o666 less the umask, and a replaced one keeps its
    # mode, as open(path, "w") gives them; both were the temp file's 0600
    new, kept = tmp_path / "new.json", tmp_path / "kept.json"
    kept.write_text("old")
    kept.chmod(0o640)
    old = os.umask(umask)
    try:
        write_text_atomic(str(new), "{}")
        write_text_atomic(str(kept), "{}")
    finally:
        os.umask(old)
    assert stat.S_IMODE(new.stat().st_mode) == mode
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert new.read_text() == kept.read_text() == "{}"
