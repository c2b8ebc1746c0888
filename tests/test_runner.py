"""The report writers: each CSV table is built as text, one %-format string
per line, and must match what csv.writer writes from f"{x:.17g}" fields,
byte for byte, on inputs the goldens never hold."""

import csv
import importlib.util
import io
import math
import os
import pathlib
import tempfile
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from lcalim import runner
from lcalim.sampling import EmpiricalFT
from lcalim.verify import ConditionVerdict, ConvergenceReport

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _reference(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _fmt(x) -> str:
    return f"{x:.17g}"


def _written(header, lines) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        runner._write_csv(path, header, lines)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()


# finite floats stay below 1e300, so that abs(z - w) of two of them never
# overflows, in the reference as in the writers
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
           0.1, 1.0 / 3.0]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e300, 1e300))
COMPLEX = st.builds(complex, FLOATS, FLOATS)
LABELS = st.text(alphabet=st.one_of(st.sampled_from(list(',"\r\n :l=d')), st.characters()))
GRID = st.lists(st.integers(min_value=1, max_value=10**30), min_size=1, max_size=4)


@st.composite
def reports(draw):
    labels = draw(st.lists(LABELS, min_size=1, max_size=4))
    grid = draw(GRID)
    conditions = tuple(
        ConditionVerdict(name, "0", tuple((n, draw(FLOATS)) for n in grid), None, True)
        for name in draw(st.lists(LABELS, max_size=3))
    )
    return ConvergenceReport(
        theorem="t",
        group=None,
        grid=tuple(grid),
        characters=tuple(SimpleNamespace(char_id=label) for label in labels),
        ft_exact=tuple(tuple(draw(COMPLEX) for _ in labels) for _ in grid),
        ft_limits=tuple(draw(COMPLEX) for _ in labels),
        ft_sup=tuple((n, draw(FLOATS)) for n in grid),
        ft_passed=True,
        conditions=conditions,
        overall="pass",
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(report=reports())
def test_ft_lines_match_csv_writer(report):
    rows = [
        (str(n), chi.char_id, *map(_fmt, (z.real, z.imag, w.real, w.imag, abs(z - w))))
        for n, exact in zip(report.grid, report.ft_exact)
        for chi, z, w in zip(report.characters, exact, report.ft_limits)
    ]
    header = runner._FT_HEADER
    assert _written(header, runner._ft_lines(report)) == _reference(header, rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(report=reports())
def test_condition_lines_match_csv_writer(report):
    rows = [(c.name, str(n), _fmt(v)) for c in report.conditions for n, v in c.sequence]
    rows += [("ft_sup_distance", str(n), _fmt(v)) for n, v in report.ft_sup]
    header = runner._CONDITIONS_HEADER
    assert _written(header, runner._condition_lines(report)) == _reference(header, rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    labels=st.lists(LABELS, min_size=1, max_size=4),
    data=st.data(),
    grid=GRID,
    replicates=st.integers(min_value=1, max_value=10**9),
)
def test_mc_lines_match_csv_writer(labels, data, grid, replicates):
    # the law's n is "": a bare empty field, never ""
    chars = tuple(SimpleNamespace(char_id=label) for label in labels)
    blocks = [
        (kind, n, EmpiricalFT(chars, tuple(data.draw(COMPLEX) for _ in chars), replicates),
         [data.draw(COMPLEX) for _ in chars])
        for kind, n in [("array", n) for n in grid] + [("law", "")]
    ]
    rows = [
        (kind, str(n), chi.char_id, *map(_fmt, (e.real, e.imag, z.real, z.imag, abs(e - z))),
         str(replicates), _fmt(est.stderr))
        for kind, n, est, exact in blocks
        for chi, e, z in zip(chars, est.estimates, exact)
    ]
    lines = runner._mc_lines(chars, blocks)
    assert _written(runner._MC_HEADER, lines) == _reference(runner._MC_HEADER, rows)


def test_empty_label_stays_bare():
    assert runner._quoted(["", "d:0,l:1", 'a"b']) == ["", '"d:0,l:1"', '"a""b"']


def test_runner_write_trace_targets_resolve():
    # perfbench times report writing by wrapping these runner names; a
    # rename would turn its runner.write metrics into "not found"
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.TARGETS["runner.write"]
    assert targets
    for module, attr in targets:
        assert module == "lcalim.runner"
        assert callable(getattr(runner, attr, None)), attr
