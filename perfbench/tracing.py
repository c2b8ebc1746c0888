"""In-memory span tracing around the calls into lcalim's layers.

The tracer wraps each traced function under the name the calling module
binds it to (for example `lcalim.sampling.char_eval`, which is what the
sampler calls), so no file of the package changes.  Every call of a wrapped
function records one span: name, parent span, start and end.  Spans are kept
in flat arrays and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

_COND_SEQ = (
    "symmetric_stat",
    "sum_var_g",
    "sum_tail",
    "sum_cylinder",
    "infinitesimality_stat",
    "sum_local_means",
    "bernoulli_rate",
)

# layer metric name -> (module, attribute path) pairs to wrap.  Each pair
# is the binding a caller actually looks up; a dotted attribute is a method
# on a class of that module.
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.load_config_text": (("lcalim.cli", "load_config_text"),),
    "config.parse_config": (("lcalim.cli", "parse_config"),),
    "verify.check_theorem": (("lcalim.runner", "check_theorem"),),
    "verify.trend_classify": (("lcalim.verify", "trend_classify"),),
    "runner.write": (("lcalim.runner", "_write_csv"), ("lcalim.runner", "write_summary")),
    "arrays.check_null_rule": (
        ("lcalim.config", "check_null_rule"),
        ("lcalim.verify", "check_null_rule"),
    ),
    "arrays.row_ft_exact": (
        ("lcalim.runner", "row_ft_exact"),
        ("lcalim.verify", "row_ft_exact"),
    ),
    "arrays.cond_seq": tuple(("lcalim.verify", name) for name in _COND_SEQ),
    "arrays.dist_build": (
        ("lcalim.arrays", "RademacherArray.iid_dist"),
        ("lcalim.arrays", "BernoulliArray.iid_dist"),
        ("lcalim.arrays", "IIDSymmetricArray.iid_dist"),
        ("lcalim.arrays", "GeneralArray.rows"),
    ),
    "measures.limit_law_ft": (
        ("lcalim.runner", "limit_law_ft"),
        ("lcalim.verify", "limit_law_ft"),
    ),
    "measures.measure_ft": (("lcalim.arrays", "measure_ft"),),
    "measures.tail_mass_measure": (
        ("lcalim.arrays", "tail_mass_measure"),
        ("lcalim.verify", "tail_mass_measure"),
    ),
    "sampling.empirical_ft": (("lcalim.runner", "empirical_ft"),),
    "sampling.empirical_law_ft": (("lcalim.runner", "empirical_law_ft"),),
    "sampling.sample_row_sum": (("lcalim.sampling", "sample_row_sum"),),
    "sampling.sample_limit_law": (("lcalim.sampling", "sample_limit_law"),),
    "sampling.generator": (("lcalim.sampling", "SeededStream.generator"),),
    "groups.char_eval": (
        ("lcalim.sampling", "char_eval"),
        ("lcalim.measures", "char_eval"),
    ),
    "groups.add_scale": tuple(
        (module, name)
        for module, names in (
            ("lcalim.sampling", ("add", "scale", "neg")),
            ("lcalim.arrays", ("add", "scale", "neg")),
            ("lcalim.measures", ("add",)),
        )
        for name in names
    ),
}

ROOT = "cli.main"


class Tracer:
    """Records spans while installed; `install` and `uninstall` swap the
    wrapped bindings in and out."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records a span named `name`."""
        nid = self._id(name)
        ids, parent, start, end, stack = (
            self.name_id,
            self.parent,
            self.start,
            self.end,
            self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns the targets that were not found."""
        missing = []
        for name, targets in TARGETS.items():
            for module_name, attr in targets:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None) if owner is not None else None
                if fn is None:
                    missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((owner, leaf, fn))
                setattr(owner, leaf, self.span(name, fn))
        return missing

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved.clear()

    def mark(self) -> int:
        """Index of the next span, for slicing spans by round."""
        return len(self.name_id)

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns as numpy arrays."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def per_round(tracer: Tracer, bounds: list[tuple[int, int]]):
    """Per-round span counts and self times by layer name.

    Returns ({name: [count per round]}, {name: [self seconds per round]})."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    own = self_times(a["parent"], dur)
    k = len(tracer.names)
    counts = {name: [] for name in tracer.names}
    seconds = {name: [] for name in tracer.names}
    for lo, hi in bounds:
        ids = a["name_id"][lo:hi]
        c = np.bincount(ids, minlength=k)
        s = np.bincount(ids, weights=own[lo:hi], minlength=k)
        for i, name in enumerate(tracer.names):
            counts[name].append(int(c[i]))
            seconds[name].append(float(s[i]))
    return counts, seconds


def count_under_roots(tracer: Tracer, name: str, roots: set[int]) -> int:
    """Number of `name` spans that descend from one of the `roots` spans."""
    if name not in tracer.names:
        return 0
    a = tracer.arrays()
    parent = a["parent"]
    total = 0
    for i in np.flatnonzero(a["name_id"] == tracer.names.index(name)):
        while parent[i] >= 0:
            i = parent[i]
        total += int(i) in roots
    return total
