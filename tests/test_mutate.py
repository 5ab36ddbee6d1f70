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


def _write(root, files):
    for path, text in files:
        os.makedirs((root / path).parent, exist_ok=True)
        (root / path).write_text(text)


def test_the_runner_reports_one_mutant_killed_and_one_survived(tmp_path, capsys):
    root = tmp_path / "tree"
    _write(root, [("src/fixpkg/__init__.py", ""), ("src/fixpkg/fixmod.py", FIXTURE),
                  ("tests/test_fixmod.py", FIXTURE_TESTS)])
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


# a guard at import: its `<` -> `<=` raises there, in the conftest that
# imports the module, so pytest stops before any test and prints no
# FAILED or ERROR line; its `raise` -> pass changes nothing at LIMIT = 2
GUARDED = '''\
LIMIT = 2
if LIMIT < 2:
    raise ValueError("the limit is below 2")
'''


def test_a_mutant_that_breaks_the_import_is_named_by_its_conftest(tmp_path, capsys):
    root = tmp_path / "tree"
    _write(root, [("src/fixpkg/__init__.py", ""), ("src/fixpkg/guarded.py", GUARDED),
                  ("tests/conftest.py", "import fixpkg.guarded\n"),
                  ("tests/test_guarded.py", "def test_guarded():\n    pass\n")])
    status = mutate.main(["--root", str(root), "--package", "src/fixpkg",
                          "--scratch", str(tmp_path), "guarded"])
    out = capsys.readouterr().out
    assert status == 0
    assert ("guarded.py:2:10 < -> <= killed ImportError while loading conftest "
            "'tests/conftest.py': ValueError: the limit is below 2") in out
    assert "guarded.py:3:5 raise -> pass survived" in out
