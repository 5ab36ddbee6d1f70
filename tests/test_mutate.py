"""The mutation runner of tests/mutate.py, on a two-function fixture."""

import os

import mutate

FIXTURE = '''\
def clamp(x, hi):
    return hi if x > hi else x


def is_negative(x):
    return x < 0
'''

# pins is_negative at 0, so its `<` -> `<=` is killed; clamp's `>` -> `>=`
# changes nothing (hi is returned where x equals it), so it survives
FIXTURE_TESTS = '''\
from fixpkg.fixmod import clamp, is_negative


def test_fixmod():
    assert clamp(5, 3) == 3 and clamp(1, 3) == 1
    assert is_negative(-1) and not is_negative(0)
'''


def test_the_runner_reports_one_mutant_killed_and_one_survived(tmp_path, capsys):
    root = tmp_path / "tree"
    for path, text in [("src/fixpkg/__init__.py", ""), ("src/fixpkg/fixmod.py", FIXTURE),
                       ("tests/test_fixmod.py", FIXTURE_TESTS)]:
        os.makedirs((root / path).parent, exist_ok=True)
        (root / path).write_text(text)
    status = mutate.main(["--root", str(root), "--package", "src/fixpkg",
                          "--scratch", str(tmp_path), "fixmod"])
    out = capsys.readouterr().out
    assert status == 0
    assert "fixmod.py:2:20 > -> >= survived" in out
    assert "fixmod.py:6:14 < -> <= killed FAILED tests/test_fixmod.py::test_fixmod" in out
    assert "fixmod: 2 mutants, 1 killed, 0 timeout, 1 survived; kill rate 50.0 %" in out
    # the fixture itself is left as it was, and the scratch copies are gone
    assert (root / "src/fixpkg/fixmod.py").read_text() == FIXTURE
    assert sorted(os.listdir(tmp_path)) == ["tree"]
