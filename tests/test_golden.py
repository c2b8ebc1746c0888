"""Byte-for-byte regression of the reports and of the Monte Carlo stream.

tests/golden/<example>/<command>/ holds the files that `verify`,
`conditions` and `sample` wrote for every bundled example before the
array model was refactored (`sample` before the second array class was
folded into the first).  Rerunning them must reproduce every byte,
including the sign of printed zeros (for example the `-0` imaginary parts
in padic_haar/verify/ft_table.csv) and every Monte Carlo estimate in
mc_table.csv, return the exit code that summary.json records, and print
nothing to stderr.

The bundled examples reach four theorem branches.  The other branches are
pinned by small configs stored beside their reports as
tests/golden/<name>/config.json: symmetric_clt and symmetric_haar
(iid_symmetric rows), padic_gaiser (a padic general array, which adds the
cylinder conditions), solenoid_gaiser (a solenoid general array) and
padic_rademacher_clt.  Their `sample` reports were captured before each
character came to be evaluated once per distinct draw.
"""

import json
import os

import pytest

from lcalim import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
BRANCH_CONFIGS = sorted(
    name
    for name in os.listdir(GOLDEN)
    if os.path.isfile(os.path.join(GOLDEN, name, "config.json"))
)


def _assert_matches(tmp_path, capsys, argv, expected_dir, label):
    """cli.main(argv + --out tmp_path) writes exactly the golden files,
    returns the golden summary's exit code and prints nothing to stderr."""
    code = cli.main(argv + ["--out", str(tmp_path)])
    with open(os.path.join(expected_dir, "summary.json"), encoding="utf-8") as fh:
        assert code == json.load(fh)["exit_code"], label
    assert capsys.readouterr().err == "", label
    expected = sorted(os.listdir(expected_dir))
    assert sorted(os.listdir(tmp_path)) == expected
    for name in expected:
        with open(os.path.join(expected_dir, name), "rb") as fh:
            want = fh.read()
        assert (tmp_path / name).read_bytes() == want, f"{label}/{name}"


@pytest.mark.parametrize("command", ["verify", "conditions", "sample"])
@pytest.mark.parametrize("example", cli.bundled_example_names())
def test_reports_match_golden_files(tmp_path, capsys, example, command):
    argv = [command, "--config", example]
    _assert_matches(tmp_path, capsys, argv, os.path.join(GOLDEN, example, command),
                    f"{example}/{command}")


@pytest.mark.parametrize("command", ["verify", "conditions", "sample"])
@pytest.mark.parametrize("name", BRANCH_CONFIGS)
def test_branch_reports_match_golden_files(tmp_path, capsys, name, command):
    argv = [command, "--config", os.path.join(GOLDEN, name, "config.json")]
    _assert_matches(tmp_path, capsys, argv, os.path.join(GOLDEN, name, command),
                    f"{name}/{command}")


def test_golden_trend_values_are_left_to_right_means():
    # every converging condition's value is its evidence added left to right
    # from 0.0 over the window: the same bits on every Python (builtin sum()
    # compensates from 3.12 on), checked with json alone
    checked = 0
    for folder, _, files in sorted(os.walk(GOLDEN)):
        if "summary.json" not in files:
            continue
        with open(os.path.join(folder, "summary.json"), encoding="utf-8") as fh:
            conditions = json.load(fh).get("conditions", [])
        for c in conditions:
            if c.get("evidence") is None or c.get("value") is None:
                continue
            total = 0.0
            for v in c["evidence"]:
                total += v
            assert total / len(c["evidence"]) == c["value"], (folder, c["name"])
            checked += 1
    assert checked == 274
