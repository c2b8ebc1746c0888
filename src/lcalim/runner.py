"""Experiment execution: runs the exact verification engine (run_check,
for the verify and conditions commands) or the Monte Carlo cross-check
(run_sample) for a parsed config, and writes machine-readable reports
through one writer, _write_reports: CSV tables plus a one-object JSON
verdict summary.

Exit status convention: 0 all checks passed, 1 a convergence or sampling
check failed, 2 invalid configuration, 3 I/O failure.
"""

from __future__ import annotations

import csv
import json
import os
from types import SimpleNamespace

from . import acceptance
from .arrays import row_ft_exact
from .config import ExperimentConfig
from .measures import limit_law_ft
from .sampling import SeededStream, empirical_ft, empirical_law_ft
from .verify import ConvergenceReport, check_theorem

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_IO_ERROR = 3

MC_ERROR_FACTOR = 4.0  # allowed deviation, in units of 1/sqrt(M)


def _quoted(labels) -> list[str]:
    """Each label as one CSV field, quoted as csv.writer quotes it among
    other fields (alone, an empty field is written as "").  writerow
    returns what its file's write returns, here the line itself.  The
    writer holds a 128 kB buffer, so each table makes its own."""
    writerow = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    return [writerow((label, ""))[:-2] for label in labels]


def _write_csv(path: str, header, lines) -> None:
    """The header line and then lines, in one write."""
    text = "".join((",".join(_quoted(header)), "\n", *lines))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


_FT_HEADER = ("n", "char_id", "re_exact", "im_exact", "re_limit", "im_limit", "abs_err")
_CONDITIONS_HEADER = ("condition", "n", "value")


def _ft_lines(report: ConvergenceReport):
    """ft_table lines: one per grid point and character.  Floats are
    written with %.17g, which is f"{x:.17g}"."""
    labels = _quoted(chi.char_id for chi in report.characters)
    chars = [(label, w, "%.17g,%.17g" % (w.real, w.imag))
             for label, w in zip(labels, report.ft_limits)]
    for n, exact in zip(report.grid, report.ft_exact):
        for (label, w, limit), z in zip(chars, exact):
            yield "%s,%s,%.17g,%.17g,%s,%.17g\n" % (n, label, z.real, z.imag, limit, abs(z - w))


def _condition_lines(report: ConvergenceReport):
    """conditions lines: every hypothesis sequence, then the FT sup gaps."""
    for cond, name in zip(report.conditions, _quoted(c.name for c in report.conditions)):
        for n, value in cond.sequence:
            yield "%s,%s,%.17g\n" % (name, n, value)
    for n, value in report.ft_sup:
        yield "ft_sup_distance,%s,%.17g\n" % (n, value)


def _condition_summary(cond) -> dict:
    out = {
        "name": cond.name,
        "target": cond.target,
        "passed": cond.passed,
    }
    if cond.verdict is not None:
        out["verdict"] = cond.verdict.kind
        if cond.verdict.value is not None:
            out["value"] = cond.verdict.value
        out["evidence"] = list(cond.verdict.evidence)
    return out


def write_summary(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_reports(out_dir: str, tables, summary: dict) -> int:
    """Write each (file name, header, lines) table and summary.json into
    out_dir; returns summary["exit_code"], or EXIT_IO_ERROR when a write
    fails."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, header, lines in tables:
            _write_csv(os.path.join(out_dir, name), header, lines)
        write_summary(os.path.join(out_dir, "summary.json"), summary)
    except OSError:
        return EXIT_IO_ERROR
    return summary["exit_code"]


def run_check(cfg: ExperimentConfig, out_dir: str, mode: str) -> int:
    """The exact engine's reports.  mode "verify" judges the FT comparison
    and the hypotheses and writes ft_table.csv; mode "conditions" judges
    the hypotheses alone and writes no FT table."""
    if mode not in ("verify", "conditions"):
        raise ValueError(f"unknown check mode {mode!r}")
    report = check_theorem(cfg.array, cfg.law, cfg.settings)
    tables = [("conditions.csv", _CONDITIONS_HEADER, _condition_lines(report))]
    if mode == "verify":
        overall = report.overall
        tables.insert(0, ("ft_table.csv", _FT_HEADER, _ft_lines(report)))
    else:
        overall = "pass" if all(c.passed for c in report.conditions) else "fail"
    summary = {
        "mode": mode,
        "group": cfg.group.describe(),
        "theorem": report.theorem,
        "overall": overall,
        "exit_code": EXIT_PASS if overall == "pass" else EXIT_CHECK_FAILED,
        "ft_passed": report.ft_passed,
        "ft_sup": [[n, v] for n, v in report.ft_sup],
        "conditions": [_condition_summary(c) for c in report.conditions],
        "grid": list(report.grid),
        "tolerances": {
            "trend": cfg.settings.trend_tol,
            "window": cfg.settings.window,
            "divergence": cfg.settings.divergence_threshold,
            "ft": cfg.settings.ft_tol,
        },
    }
    return _write_reports(out_dir, tables, summary)


_MC_HEADER = ("kind", "n", "char_id", "re_emp", "im_emp", "re_exact", "im_exact", "abs_err",
              "replicates", "stderr")


def _mc_lines(chars, blocks):
    """mc_table lines: for each (kind, n, estimate, exact FTs) block, one
    per character.  The law's n is "", which %s leaves bare."""
    labels = _quoted(chi.char_id for chi in chars)
    for kind, n, est, exact_fts in blocks:
        tail = "%s,%.17g\n" % (est.replicates, est.stderr)
        for label, emp, z in zip(labels, est.estimates, exact_fts):
            yield "%s,%s,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%s" % (
                kind, n, label, emp.real, emp.imag, z.real, z.imag, abs(emp - z), tail)


def run_sample(cfg: ExperimentConfig, out_dir: str, seed_override: int | None = None) -> int:
    seed = cfg.mc.seed if seed_override is None else seed_override
    M = cfg.mc.replicates
    chars = cfg.settings.characters
    bound = MC_ERROR_FACTOR / M**0.5
    ests = [
        empirical_ft(cfg.array, n, chars, M, SeededStream(seed).child(0, n))
        for n in cfg.mc.n_points
    ]
    # the exact FTs after the draws, which allocate the most: computed
    # first, they raised the peak RSS of a general-array sample by 1.2 MB
    exact = row_ft_exact(cfg.array, cfg.mc.n_points, chars)
    blocks = [("array", n, est, fts) for n, est, fts in zip(cfg.mc.n_points, ests, exact)]
    est = empirical_law_ft(cfg.law, chars, M, SeededStream(seed).child(1))
    blocks.append(("law", "", est, limit_law_ft(cfg.law, chars)))
    all_ok = all(abs(e - z) <= bound for *_, est, fts in blocks for e, z in zip(est.estimates, fts))
    summary = {
        "mode": "sample",
        "group": cfg.group.describe(),
        "replicates": M,
        "seed": seed,
        "error_bound": bound,
        "overall": "pass" if all_ok else "fail",
        "exit_code": EXIT_PASS if all_ok else EXIT_CHECK_FAILED,
    }
    tables = [("mc_table.csv", _MC_HEADER, _mc_lines(chars, blocks))]
    return _write_reports(out_dir, tables, summary)


def run_selftest() -> int:
    """Run the acceptance suite, printing one pass/fail line per
    criterion."""
    ok = True
    for name, passed, detail in acceptance.run_all():
        tag = "PASS" if passed else "FAIL"
        print(f"{tag}  {name}: {detail}")
        ok = ok and passed
    return EXIT_PASS if ok else EXIT_CHECK_FAILED
