"""Byte-for-byte regression of the reports and of the Monte Carlo stream.

tests/golden/<example>/<command>/ holds the files that `verify`,
`conditions` and `sample` wrote for every bundled example before the
array model was refactored (`sample` before the second array class was
folded into the first).  Rerunning them must reproduce every byte,
including the sign of printed zeros (for example the `-0` imaginary parts
in padic_haar/verify/ft_table.csv) and every Monte Carlo estimate in
mc_table.csv.
"""

import os

import pytest

from lcalim import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("command", ["verify", "conditions", "sample"])
@pytest.mark.parametrize("example", cli.bundled_example_names())
def test_reports_match_golden_files(tmp_path, example, command):
    expected_dir = os.path.join(GOLDEN, example, command)
    cli.main([command, "--config", example, "--out", str(tmp_path)])
    expected = sorted(os.listdir(expected_dir))
    assert sorted(os.listdir(tmp_path)) == expected
    for name in expected:
        with open(os.path.join(expected_dir, name), "rb") as fh:
            want = fh.read()
        assert (tmp_path / name).read_bytes() == want, f"{example}/{command}/{name}"
