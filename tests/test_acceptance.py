"""Acceptance suite: one test per criterion, each printing its pass/fail
line (run pytest with -s to see them inline) and holding it to its line in
tests/golden/selftest.txt, which `lcalim selftest` prints byte for byte."""

import os

import pytest

from lcalim.acceptance import CRITERIA

SELFTEST = os.path.join(os.path.dirname(__file__), "golden", "selftest.txt")
with open(SELFTEST, encoding="utf-8") as fh:
    GOLDEN = dict(zip((name for name, _ in CRITERIA), fh.read().splitlines()))


@pytest.mark.parametrize("name,criterion", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_criterion(name, criterion):
    passed, detail = criterion()
    line = f"{'PASS' if passed else 'FAIL'}  {name}: {detail}"
    print(line)
    assert passed, f"{name}: {detail}"
    assert line == GOLDEN[name]
