"""lcalim benchmark: closed-loop `lcalim.cli.main` calls on one seeded
workload, with every output checked.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics from a traced run.  Report lines come first; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread per workload process: pin the BLAS pools before numpy loads,
# and leave the sampler's own thread setting at its default.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LCALIM_THREADS", None)

import argparse
import collections
import csv
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

# numpy (through tracing) is imported only after lcalim, so that the set-up
# probes time numpy's import as part of lcalim's.
import workloads  # noqa: E402

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
MIN_ROUNDS = 2  # the second round is the first rerun check
FAILURE_REASONS = ("exit", "verdict", "csv_shape", "rerun", "exception")
# csv_shape counts in `failed`; the others also make the run incorrect.
RESULT_REASONS = ("exit", "verdict", "rerun", "exception")


def import_lcalim():
    """Import lcalim from this checkout's src/, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import lcalim
    import lcalim.cli

    elapsed = time.perf_counter() - t0
    if not os.path.abspath(lcalim.__file__).startswith(SRC + os.sep):
        raise ImportError(f"lcalim imported from {lcalim.__file__}, not from {SRC}")
    return lcalim, elapsed


def generate_and_parse(lcalim, workload: str, seed: int, config_dir: str):
    """Write the workload's configs and parse each once."""
    calls = workloads.generate(workload, seed, SRC, config_dir)
    for call in calls:
        with open(call.config, encoding="utf-8") as fh:
            lcalim.config.parse_config(fh.read())
    return calls


def probe(workload: str, seed: int, config_dir: str) -> None:
    """Set-up as a fresh interpreter does it: import, generate, parse once."""
    lcalim, import_s = import_lcalim()
    generate_and_parse(lcalim, workload, seed, config_dir)
    print(json.dumps({"import_s": import_s}))


def measure_setup(workload: str, seed: int, tmp: str) -> tuple[list[float], list[float]]:
    """Median-ready set-up and import times from fresh interpreters."""
    setup, imports = [], []
    for i in range(SETUP_PROBES):
        config_dir = os.path.join(tmp, f"probe{i}")
        os.makedirs(config_dir)
        argv = [sys.executable, os.path.abspath(__file__), "--probe", config_dir]
        argv += ["--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        setup.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        imports.append(json.loads(done.stdout.splitlines()[-1])["import_s"])
    return setup, imports


def check_outputs(call, code, out_dir: str, reference: dict | None):
    """Failure reasons of one call, its output digests and bytes written."""
    reasons = []
    if code != call.expected_exit:
        reasons.append("exit")
    digests, size = {}, 0
    names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    shape_ok = "summary.json" in names
    for name in names:
        path = os.path.join(out_dir, name)
        with open(path, "rb") as fh:
            data = fh.read()
        size += len(data)
        digests[name] = hashlib.sha256(data).hexdigest()
        text = data.decode("utf-8", errors="replace")
        if name.endswith(".csv"):
            rows = list(csv.reader(text.splitlines()))
            shape_ok = shape_ok and bool(rows) and all(len(r) == len(rows[0]) for r in rows)
        elif name == "summary.json":
            try:
                overall = json.loads(text).get("overall")
            except ValueError:
                shape_ok = False
            else:
                if overall != call.expected_overall:
                    reasons.append("verdict")
    if not shape_ok:
        reasons.append("csv_shape")
    if reference is not None and digests != reference:
        reasons.append("rerun")
    return reasons, digests, size


class Loop:
    """Runs rounds of a workload's calls and keeps every observation."""

    def __init__(self, main, calls, tmp: str) -> None:
        self.main = main
        self.calls = calls
        self.tmp = tmp
        self.reference: dict[str, dict] = {}
        self.reasons = collections.Counter()
        self.attempted = 0
        self.failed = 0
        self.call_s: list[tuple[str, float]] = []  # (command, seconds)
        self.round_s: list[float] = []
        self.round_bytes: list[int] = []
        # With a tracer, each round records its span index range and the
        # root span of each call.
        self.tracer = None
        self.bounds: list[tuple[int, int]] = []
        self.roots: list[tuple[str, int]] = []  # (command, root span index)

    def round(self) -> float:
        total, written = 0.0, 0
        first_span = self.tracer.mark() if self.tracer is not None else 0
        for call in self.calls:
            out_dir = os.path.join(self.tmp, "out", call.key)
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = call.argv(out_dir)
            if self.tracer is not None:
                self.roots.append((call.command, self.tracer.mark()))
            t0 = time.perf_counter()
            try:
                code = self.main(argv)
            except (Exception, SystemExit) as exc:
                print(f"exception in {call.key}: {exc!r}", file=sys.stderr)
                code = None
            elapsed = time.perf_counter() - t0
            if code is None:
                reasons, size = ["exception"], 0
            else:
                reasons, digests, size = check_outputs(
                    call, code, out_dir, self.reference.get(call.key)
                )
                self.reference.setdefault(call.key, digests)
            self.attempted += 1
            self.failed += bool(reasons)
            self.reasons.update(reasons)
            self.call_s.append((call.command, elapsed))
            total += elapsed
            written += size
        self.round_s.append(total)
        self.round_bytes.append(written)
        if self.tracer is not None:
            self.bounds.append((first_span, self.tracer.mark()))
        return total

    def run_for(self, seconds: float, min_rounds: int) -> list[float]:
        """Closed loop: whole rounds until `seconds` have passed."""
        times = []
        t0 = time.perf_counter()
        while len(times) < min_rounds or time.perf_counter() - t0 < seconds:
            times.append(self.round())
        return times


def percentile(values, q: int):
    """The q-th percentile and how many samples lie above it, or None when
    fewer than ten would."""
    if len(values) < 2:
        return None
    cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    beyond = sum(v > cut for v in values)
    return (cut, beyond) if beyond >= 10 else None


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "unknown",
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "LCALIM_THREADS": os.environ.get("LCALIM_THREADS", "unset"),
    }


def report(loop: Loop, untraced_calls: int) -> dict[str, tuple[float, str, str]]:
    """Failures over every call, and the workload-specific figures over the
    first `untraced_calls` calls: name -> (value, unit, sample note)."""
    out = {"failed_frac": (loop.failed / loop.attempted, "1", f"n={loop.attempted}")}
    for reason in FAILURE_REASONS:
        out[f"failed_frac[{reason}]"] = (loop.reasons[reason] / loop.attempted, "1", "")
    call_s = loop.call_s[:untraced_calls]
    rounds = len(call_s) // len(loop.calls)
    verify_s = [s for cmd, s in call_s if cmd == "verify"]
    sample_s = [s for cmd, s in call_s if cmd == "sample"]
    if verify_s:
        n = f"n={len(verify_s)}"
        out["verify_per_s"] = (len(verify_s) / sum(verify_s), "1/s", n)
        out["verify_ms_p50"] = (1e3 * statistics.median(verify_s), "ms", n)
        p90 = percentile(verify_s, 90)
        if p90:
            out["verify_ms_p90"] = (1e3 * p90[0], "ms", f"{n}, {p90[1]} beyond")
        entries = sum(c.entries for c in loop.calls if c.command == "verify") * rounds
        if entries:
            out["verify_entries_per_s"] = (entries / sum(verify_s), "1/s", n)
    if sample_s:
        n = f"n={len(sample_s)}"
        draws = sum(c.draws for c in loop.calls) * rounds
        out["mc_draws_per_s"] = (draws / sum(sample_s), "1/s", n)
        entries = sum(c.entries for c in loop.calls if c.command == "sample") * rounds
        if entries:
            out["draw_entries_per_s"] = (entries / sum(sample_s), "1/s", n)
    return out


def end_to_end(loop: Loop, setup: list[float]) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(loop.round_s), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(loop: Loop, untraced, traced, imports) -> dict:
    import tracing

    tracer, bounds = loop.tracer, loop.bounds
    counts, seconds = tracing.per_round(tracer, bounds)
    for name, per in counts.items():
        if len(set(per)) > 1:
            print(f"note: {name} calls differ between rounds: {per}", file=sys.stderr)

    def calls(name):
        return statistics.median(counts.get(name, [0]))

    def self_s(name):
        return statistics.median(seconds.get(name, [0.0]))

    out = {}
    for name in tracing.TARGETS:
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.s"] = (self_s(name), "s")
    draws = calls("sampling.sample_row_sum") + calls("sampling.sample_limit_law")
    row_fts = calls("arrays.row_ft_exact")
    verifies = sum(c.command == "verify" for c in loop.calls)
    out["sampling.generators_per_draw"] = (
        calls("sampling.generator") / draws if draws else 0.0,
        "ratio",
    )
    out["arrays.dist_builds_per_row_ft"] = (
        calls("arrays.dist_build") / row_fts if row_fts else 0.0,
        "ratio",
    )
    verify_roots = {i for command, i in loop.roots if command == "verify"}
    under_verify = tracing.count_under_roots(tracer, "arrays.check_null_rule", verify_roots)
    out["arrays.check_null_rule.per_verify"] = (
        under_verify / (verifies * len(bounds)) if verifies else 0.0,
        "ratio",
    )
    out["import.lcalim.s"] = (statistics.median(imports), "s")
    out["runner.bytes_written"] = (statistics.median(loop.round_bytes), "B")
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return out


def run(args) -> int:
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        setup, imports = measure_setup(args.workload, args.seed, tmp)
        lcalim, _ = import_lcalim()
        config_dir = os.path.join(tmp, "configs")
        os.makedirs(config_dir)
        calls = generate_and_parse(lcalim, args.workload, args.seed, config_dir)
        env = environment()
        print("environment " + json.dumps(env, sort_keys=True))

        loop = Loop(lcalim.cli.main, calls, tmp)
        if not args.trace:
            loop.run_for(args.seconds, MIN_ROUNDS)
            untraced_calls = len(loop.call_s)
            metrics = end_to_end(loop, setup)
        else:
            import tracing

            untraced = loop.run_for(args.seconds / 2, 1)
            untraced_calls = len(loop.call_s)
            tracer = tracing.Tracer()
            for missing in tracer.install():
                print(f"note: trace target {missing} not found", file=sys.stderr)
            loop.main = tracer.span(tracing.ROOT, lcalim.cli.main)
            loop.tracer = tracer
            try:
                traced = loop.run_for(args.seconds / 2, 1)
            finally:
                tracer.uninstall()
            tracer.save(os.path.join(WORK, f"trace-{args.workload}.npz"))
            metrics = per_layer(loop, untraced, traced, imports)

        figures = report(loop, untraced_calls)
        print(f"{loop.attempted} calls in {len(loop.round_s)} rounds, {loop.failed} failed")
        for name, (value, unit, note) in figures.items():
            print(f"{name} {value:.6g} {unit} {note}".rstrip())
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": env,
            "rounds": len(loop.round_s),
            "report": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in figures.items()},
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        results = os.path.join(WORK, "results")
        os.makedirs(results, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = not any(loop.reasons[r] for r in RESULT_REASONS)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.workload, args.seed, args.probe)
        return 0
    try:
        return run(args)
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
