"""Byte-for-byte regression of the reports and of the Monte Carlo stream.

tests/golden/<example>/<command>/ holds the files that `verify`,
`conditions` and `sample` wrote for every bundled example before the
array model was refactored (`sample` before the second array class was
folded into the first).  Rerunning them must reproduce every byte,
including the sign of printed zeros (for example the `-0` imaginary parts
in padic_haar/verify/ft_table.csv) and every Monte Carlo estimate in
mc_table.csv.

The bundled examples reach four theorem branches.  The other branches are
pinned by small configs stored beside their reports as
tests/golden/<name>/config.json: symmetric_clt and symmetric_haar
(iid_symmetric rows), padic_gaiser (a padic general array, which adds the
cylinder conditions), solenoid_gaiser (a solenoid general array) and
padic_rademacher_clt.  Their `sample` reports were captured before each
character came to be evaluated once per distinct draw.
"""

import os

import pytest

from lcalim import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
BRANCH_CONFIGS = sorted(
    name
    for name in os.listdir(GOLDEN)
    if os.path.isfile(os.path.join(GOLDEN, name, "config.json"))
)


def _assert_matches(tmp_path, expected_dir, label):
    expected = sorted(os.listdir(expected_dir))
    assert sorted(os.listdir(tmp_path)) == expected
    for name in expected:
        with open(os.path.join(expected_dir, name), "rb") as fh:
            want = fh.read()
        assert (tmp_path / name).read_bytes() == want, f"{label}/{name}"


@pytest.mark.parametrize("command", ["verify", "conditions", "sample"])
@pytest.mark.parametrize("example", cli.bundled_example_names())
def test_reports_match_golden_files(tmp_path, example, command):
    cli.main([command, "--config", example, "--out", str(tmp_path)])
    _assert_matches(tmp_path, os.path.join(GOLDEN, example, command), f"{example}/{command}")


@pytest.mark.parametrize("command", ["verify", "conditions", "sample"])
@pytest.mark.parametrize("name", BRANCH_CONFIGS)
def test_branch_reports_match_golden_files(tmp_path, name, command):
    config = os.path.join(GOLDEN, name, "config.json")
    cli.main([command, "--config", config, "--out", str(tmp_path)])
    _assert_matches(tmp_path, os.path.join(GOLDEN, name, command), f"{name}/{command}")
