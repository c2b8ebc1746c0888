"""Triangular arrays and the exact per-row statistics that appear in the
limit-theorem hypotheses: character-moment products, local-mean sums,
variance sums and tail sums.

Row-count and parameter rules are closed-form schedules of the row index n
(constant / linear / power / explicit table), so every reported number is
reproducible from the experiment description alone.

A TriangularArray is a rule from n to row n, and row n is one PackedRow
table of distinct entries, each taken `copies` times; the table is the
only view of a row.  An i.i.d. row is its one entry taken K_n times, so no
loop of length K_n is run and K_n up to 1e15 is cheap, and a general row
is its K_n entries taken once each.  Every statistic is one PackedRow
per-entry body over such a table (the body that the law statistics run on
a measure) and takes a sequence of grid points with all their characters
(or neighborhoods, or cylinders) at once, returning one result per point.
Consecutive grid rows with equally many entries are joined into one table,
a grid block, while its atoms times the items stay within MAX_TEMP // 4
values; a larger row is a block of its own and takes its items in chunks
of at most that many atom x item values.  Each block is one vector pass,
whose per-entry values are then folded row by row on one reshape, so that
each row keeps the reduction order of a pass over it alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .groups import (
    PADIC,
    TORUS,
    GroupElement,
    GroupId,
    GroupMismatchError,
    base_turns,
    block_dtype,
    cyclic_subgroup,
    digits_of,
    element_block,
    elements_close,
    from_turns,
    full_subgroup,
    identity,
    lambda_subgroup,
    neg,
    neg_block,
    reduce_turns_block,
    same_block,
    tower_gauge_block,
    trivial_subgroup,
)
from .measures import (
    DiscreteMeasure,
    PackedRow,
    cylinder_modulus,
    discrete_measure,
)

MAX_TEMP = 65_536  # values in any temporary array of a pass over a row or a block


@dataclass(frozen=True)
class Schedule:
    """A closed-form rule n -> value: c (constant), c*n (linear), c*n^e
    (power), or an explicit table keyed by n."""

    kind: str
    coef: float = 0.0
    exp: float = 0.0
    table: tuple[tuple[int, float], ...] = ()

    def __call__(self, n: int) -> float:
        if self.kind == "constant":
            return self.coef
        if self.kind == "linear":
            return self.coef * n
        if self.kind == "power":
            return self.coef * float(n) ** self.exp
        values = dict(self.table)
        if n not in values:
            raise KeyError(f"schedule table has no entry for n={n}")
        return values[n]


def constant(value: float) -> Schedule:
    return Schedule("constant", coef=value)


def linear(coef: float) -> Schedule:
    return Schedule("linear", coef=coef)


def power(coef: float, exponent: float) -> Schedule:
    return Schedule("power", coef=coef, exp=exponent)


def table(values: dict[int, float]) -> Schedule:
    return Schedule("table", table=tuple(sorted(values.items())))


def row_distribution(group: GroupId, atoms) -> DiscreteMeasure:
    """The law of one entry of an array: a discrete probability measure."""
    mu = discrete_measure(group, atoms)
    if not mu.is_probability():
        raise ValueError(f"row distribution has total mass {mu.total_mass()!r}, expected 1")
    return mu


def _row_laws(row: PackedRow, n: int, entries: bool = False) -> PackedRow:
    """The table, once each entry is a law by row_distribution's rule: at
    least one atom, positive weights, and a total mass within 1e-12 of 1.
    The error names n, and the entry's index when entries is set."""
    counts, masses = row.counts, row.masses()
    entry = np.repeat(np.arange(len(counts)), counts)
    unweighted = np.bincount(entry, weights=~(row.weights > 0.0), minlength=len(counts))
    bad = (counts == 0) | (unweighted > 0) | ~(np.abs(masses - 1.0) <= 1e-12)
    if not bad.any():
        return row
    k = int(np.argmax(bad))
    if not counts[k]:
        fault = "has no atom"
    elif unweighted[k]:
        fault = "has a weight that is not positive"
    else:
        fault = f"has total mass {masses[k].item()!r}, expected 1"
    where = f"of entry {k} at n={n}" if entries else f"at n={n}"
    raise ValueError(f"row distribution {where} {fault}")


def _positive_k(value: float, n: int) -> int:
    k = round(value) if math.isfinite(value) else 0
    if k < 1 or abs(value - k) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"row count K_n must be a positive integer; got {value} at n={n}")
    return int(k)


def pack_rows(group: GroupId, tables, copies: int = 1) -> PackedRow:
    """One PackedRow of the entries of the tables (row laws, or rows whose
    own copies are left to the caller), one after the other, each taken
    `copies` times, checked to lie on the group."""
    tables = tuple(tables)
    if any(t.group != group for t in tables):
        raise GroupMismatchError("row rule produced a distribution on another group")
    if len(tables) == 1:  # an i.i.d. row: its one law's table, shared
        return PackedRow(group, tables[0].values, tables[0].weights, tables[0].starts, copies)
    offsets = np.cumsum([0] + [len(t.values) for t in tables[:-1]]).tolist()
    starts = [np.empty(0, dtype=np.intp)] + [t.starts + o for t, o in zip(tables, offsets)]
    return PackedRow(
        group,
        np.concatenate([np.empty(0, dtype=block_dtype(group))] + [t.values for t in tables]),
        np.concatenate([np.empty(0)] + [t.weights for t in tables]),
        np.concatenate(starts),
        copies,
    )


@dataclass(frozen=True)
class TriangularArray:
    """A triangular array: rule(n) is row n as one PackedRow table.

    kind is "rademacher" (mass 1/2 on x(n) and 1/2 on -x(n)), "bernoulli"
    (mass p(n) on the fixed atom x(n), 1 - p(n) on the identity),
    "symmetric" (a symmetric law produced by a rule), all three with K_n
    i.i.d. entries, or "general" (rowwise-independent entries with laws of
    their own); build them with rademacher_array, bernoulli_array,
    iid_symmetric_array and general_array.
    """

    group: GroupId
    kind: str
    rule: Callable[[int], PackedRow] = field(repr=False)
    x: Callable[[int], GroupElement] | None = None
    p: Callable[[int], float] | None = None
    _packed: dict = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

    def row_count(self, n: int) -> int:
        row = self.packed(n)
        return row.copies * len(row.starts)

    def packed(self, n: int) -> PackedRow:
        """Row n as one table, built, checked and kept the first time row n
        is used."""
        row = self._packed.get(n)
        if row is None:
            row = self.rule(n)
            if row.group != self.group:
                raise GroupMismatchError("row rule produced a row on another group")
            if not len(row.starts):
                raise ValueError(f"row count K_n must be a positive integer; got 0 at n={n}")
            self._packed[n] = row
        return row


def _iid_array(group: GroupId, kind: str, dist, K: Schedule, **rules) -> TriangularArray:
    """Row n is the entry dist(n) taken K_n times."""
    return TriangularArray(
        group, kind, lambda n: pack_rows(group, (dist(n),), _positive_k(K(n), n)), **rules
    )


def rademacher_array(
    group: GroupId,
    K: Schedule,
    angle: Schedule | None = None,
    elements: tuple[tuple[int, GroupElement], ...] = (),
) -> TriangularArray:
    """Rows put mass 1/2 on x_n and 1/2 on -x_n.

    On the torus and solenoid x_n is given by an angle schedule (for the
    solenoid the schedule drives arg of the base coordinate y_0, on the
    branch-0 tower); on padic groups x_n comes from an explicit element
    table.
    """
    if group.kind == PADIC:
        if angle is not None or not elements:
            raise ValueError("padic Rademacher arrays need an element table")

        def x(n: int) -> GroupElement:
            for m, xm in elements:
                if m == n:
                    return xm
            raise KeyError(f"no Rademacher element for n={n}")

    elif angle is None:
        raise ValueError("angle schedule required on torus/solenoid")
    else:
        def x(n: int) -> GroupElement:
            return from_turns(group, base_turns(group, angle(n)))

    def dist(n: int) -> DiscreteMeasure:
        xn = x(n)
        return row_distribution(group, [(xn, 0.5), (neg(xn), 0.5)])

    return _iid_array(group, "rademacher", dist, K, x=x)


def bernoulli_array(group: GroupId, x: GroupElement, p: Schedule, K: Schedule) -> TriangularArray:
    """Rows put mass p_n on a fixed x != e and 1 - p_n on the identity."""
    if x.group != group:
        raise GroupMismatchError("Bernoulli atom on a different group")
    if elements_close(x, identity(group)):
        raise ValueError("Bernoulli atom must differ from the identity")

    def rate(n: int) -> float:
        pn = p(n)
        if not 0.0 <= pn <= 1.0:
            raise ValueError(f"Bernoulli rate p_n={pn} outside [0, 1] at n={n}")
        return pn

    def dist(n: int) -> DiscreteMeasure:
        pn = rate(n)
        return row_distribution(group, [(x, pn), (identity(group), 1.0 - pn)])

    return _iid_array(group, "bernoulli", dist, K, x=lambda n: x, p=rate)


def _is_symmetric(mu: DiscreteMeasure) -> bool:
    """Invariance under x -> -x: every atom's negation is the same element
    (groups.same_block) as an atom whose weight is within 1e-12 of its own.
    Atom pairs are compared in chunks of at most MAX_TEMP."""
    g, v, w = mu.group, mu.values, mu.weights
    step = max(1, MAX_TEMP // max(1, len(v)))
    for i in range(0, len(v), step):
        close = same_block(g, neg_block(g, v[i : i + step, None]), v)
        if not (close & (np.abs(w[i : i + step, None] - w) <= 1e-12)).any(axis=1).all():
            return False
    return True


def iid_symmetric_array(
    group: GroupId, dist_rule: Callable[[int], DiscreteMeasure], K: Schedule
) -> TriangularArray:
    """Rows are i.i.d. with a symmetric distribution produced by a rule,
    a law by row_distribution's rule."""

    def dist(n: int) -> DiscreteMeasure:
        d = _row_laws(dist_rule(n), n)
        if not _is_symmetric(d):
            raise ValueError(f"row distribution at n={n} is not symmetric")
        return d

    return _iid_array(group, "symmetric", dist, K)


def plain_entries(row: PackedRow) -> np.ndarray:
    """For each entry of a table of atoms, whether row_distribution keeps
    its atoms exactly as given and accepts them: every weight finite and
    positive, the total mass within 1e-12 of 1 with room for rounding, and
    no two atoms one element (groups.same_block).  An entry marked False
    may still be valid; only row_distribution can tell."""
    values, weights, counts = row.values, row.weights, row.counts
    entry = np.repeat(np.arange(len(counts)), counts)
    bad = ~(np.isfinite(weights) & (weights > 0.0))
    plain = np.bincount(entry, weights=bad, minlength=len(counts)) == 0
    # any two sums of count positive weights near 1, in any order, differ
    # by less than count * eps; an entry inside that margin of the bound is
    # left to row_distribution, whose total_mass decides it
    mass = np.bincount(entry, weights=np.where(bad, 0.0, weights), minlength=len(counts))
    plain &= np.abs(mass - 1.0) <= 1e-12 - 2 * counts * np.finfo(float).eps
    # rounding is monotone, so when any two atoms of a sorted entry are one
    # element, so are two neighbours or the first and the last (across the
    # wrap); the entries of each atom count m are sorted in one call
    for entries, at, m in row.by_width:
        v = np.sort(values.reshape(len(counts), m) if at is None else values[at], axis=-1)
        close = same_block(row.group, v[:, 1:], v[:, :-1]).any(axis=-1)
        if m > 1:
            close |= same_block(row.group, v[:, 0], v[:, -1])
        plain[entries] &= ~close
    return plain


def general_array(
    group: GroupId, laws: Callable[[int], tuple[DiscreteMeasure, ...]]
) -> TriangularArray:
    """Rowwise-independent rows: row n has one entry per law of laws(n),
    each a law by row_distribution's rule."""
    return TriangularArray(
        group, "general", lambda n: _row_laws(pack_rows(group, laws(n)), n, entries=True)
    )


def is_symmetric_array(array: TriangularArray) -> bool:
    return array.kind in ("rademacher", "symmetric")


def _power(z: complex, K: int) -> complex:
    """z**K through the principal logarithm: real z takes a sign-exact
    real path, z = 0 gives exactly 0, and K = 1 returns z as is."""
    if K == 1:
        return z
    if z == 0:
        return complex(0.0)
    if z.imag == 0.0:
        mag = math.exp(K * math.log(abs(z.real)))
        return complex(-mag if z.real < 0.0 and K % 2 == 1 else mag)
    return cmath.exp(K * cmath.log(z))


def _blocks(rows, items: int):
    """(start, stop) of each run of consecutive rows with equally many
    entries whose atoms times the items fit in MAX_TEMP // 4 values; a row
    larger than that is a run of its own, and its items are taken in
    chunks."""
    start, atoms = 0, 0
    for k, row in enumerate(rows):
        fits = (atoms + len(row.values)) * items <= MAX_TEMP // 4
        if k > start and not (fits and len(row.starts) == len(rows[start].starts)):
            yield start, k
            start, atoms = k, 0
        atoms += len(row.values)
    if rows:
        yield start, len(rows)


def _grid_pass(array: TriangularArray, ns, items, per_entry, reduce) -> list:
    """(row, values) at every grid point of ns: per_entry(block, chunk) is
    the chunk x entries array of a chunk of the items on a block of joined
    rows (see _blocks), and reduce folds it over each row's entries on a
    reshape, so every row keeps the order of a pass over it alone."""
    rows = [array.packed(n) for n in ns]
    if not items:
        return [(row, []) for row in rows]
    out = []
    for a, b in _blocks(rows, len(items)):
        block = rows[a] if b == a + 1 else pack_rows(array.group, rows[a:b])
        step = max(1, MAX_TEMP // 4 // max(1, len(block.values)))
        values = [[] for _ in range(a, b)]
        for i in range(0, len(items), step):
            x = per_entry(block, items[i : i + step])
            for acc, v in zip(values, reduce(x.reshape(len(x), b - a, -1)).T.tolist()):
                acc += v
        out += zip(rows[a:b], values)
    return out


def _row_sums(array: TriangularArray, ns, items, per_entry) -> tuple[tuple[float, ...], ...]:
    """copies times the sum of per_entry over each row's entries, for every
    item and every grid point of ns (see _grid_pass)."""
    sums = _grid_pass(array, ns, items, per_entry, lambda x: x.sum(axis=-1))
    return tuple(tuple(row.copies * v for v in values) for row, values in sums)


def row_ft_exact(array: TriangularArray, ns, chars) -> tuple[tuple[complex, ...], ...]:
    """FT of the row sum at every character, for every grid point of ns:
    the product of the entries' character moments, raised to the power
    `copies` (see _power).

    The product starts from the first factor, not from 1, so the signed
    zeros of a single factor survive.
    """
    z = _grid_pass(array, ns, chars, PackedRow.moments, lambda m: np.multiply.reduce(m, axis=-1))
    return tuple(tuple(_power(v, row.copies) for v in values) for row, values in z)


def sum_local_means(array: TriangularArray, ns) -> tuple[GroupElement, ...]:
    """Group sum of the local means of row n, for every grid point n of ns."""
    g = array.group
    if g.kind == PADIC:
        return (identity(g),) * len(ns)

    def turns(row, _):  # local_mean of each entry, in turns, reduced
        return reduce_turns_block(row.mean_turns())[None]

    # the one item is the row's mean
    return tuple(from_turns(g, v) for (v,) in _row_sums(array, ns, (None,), turns))


def sum_var_g(array: TriangularArray, ns, chars) -> tuple[tuple[float, ...], ...]:
    """Sum over row n of the variances of g(X, chi), for every character and
    every grid point n of ns."""

    def variances(row, c):
        m1, m2 = row.g_moments(c)
        return m2 - m1 * m1

    return _row_sums(array, ns, chars, variances)


def sum_tail(array: TriangularArray, ns, nbhds) -> tuple[tuple[float, ...], ...]:
    """Sum over row n of the probabilities of landing outside U, per U, for
    every grid point n of ns."""
    return _row_sums(array, ns, nbhds, PackedRow.tail_masses)


def sum_cylinder(array: TriangularArray, ns, cylinders) -> tuple[tuple[float, ...], ...]:
    """Sum over row n of the probabilities of the padic cylinder
    x0 + lambda(r), for every (x0, r) of cylinders and every grid point n
    of ns."""
    moduli = [(x0.residue, cylinder_modulus(array.group, x0, r)) for x0, r in cylinders]
    return _row_sums(array, ns, moduli, PackedRow.cylinder_masses)


def infinitesimality_stat(array: TriangularArray, ns, nbhds) -> tuple[tuple[float, ...], ...]:
    """Largest tail probability in row n, for every neighborhood U and every
    grid point n of ns; the array is infinitesimal when this tends to 0 for
    every U."""
    tails = _grid_pass(
        array, ns, nbhds, PackedRow.tail_masses, lambda t: t.max(axis=-1, initial=0.0)
    )
    return tuple(tuple(values) for _, values in tails)


def symmetric_stat(array: TriangularArray, ns, chars) -> tuple[tuple[float, ...], ...]:
    """K_n * (1 - Re E chi(X_n1)) for i.i.d. rows, for every character and
    every grid point n of ns: the quantity whose limit decides between
    Gauss and Haar behaviour of symmetric arrays."""
    if array.kind == "general":
        raise ValueError("symmetric_stat needs i.i.d. rows")
    return _row_sums(array, ns, chars, lambda row, c: 1.0 - row.moments(c).real)


def bernoulli_rate(array: TriangularArray, n: int) -> float:
    """K_n * p_n of a Bernoulli array."""
    if array.kind != "bernoulli":
        raise ValueError("bernoulli_rate needs a Bernoulli array")
    return array.row_count(n) * array.p(n)


def generating_subgroup(x: GroupElement):
    """Smallest closed subgroup containing x, where determinable.

    padic: lambda(r) with r the index of the first nonzero digit; torus:
    the cyclic group of order r when the turn count is (numerically) a
    reduced fraction j/r, the full torus otherwise.  Returns None on the
    solenoid (not determinable in this representation).
    """
    g = x.group
    if g.kind == PADIC:
        if x.residue == 0:
            return trivial_subgroup(g)
        return lambda_subgroup(g, next(j for j, d in enumerate(digits_of(x)) if d))
    if g.kind == TORUS:
        if x.turns == 0.0:
            return trivial_subgroup(g)
        frac = Fraction(x.turns).limit_denominator(10**6)
        if frac != 0 and abs(x.turns - float(frac)) <= 1e-12:
            return cyclic_subgroup(g, frac.denominator)
        return full_subgroup(g)
    return None


def check_null_rule(array: TriangularArray, grid) -> None:
    """Reject Rademacher rules whose elements do not tend to the identity
    and Bernoulli rules whose rate does not tend to 0 along the grid.

    The gauge sequence (groups.tower_gauge_block of x_n from the identity,
    or p_n) must end at its minimum and strictly below its start, or be null
    already; slow decay is fine, flat or rising rules are not.
    """
    grid = tuple(grid)
    if array.kind == "rademacher":
        xs = element_block(*map(array.x, grid))
        values = tower_gauge_block(array.group, xs, 0).tolist()  # 0 is the identity's entry
    elif array.kind == "bernoulli":
        values = [array.p(n) for n in grid]
    else:
        return
    if values[-1] <= 1e-9:
        return
    if values[-1] < values[0] and values[-1] == min(values):
        return
    kind = "x_n" if array.kind == "rademacher" else "p_n"
    raise ValueError(
        f"array rule is not null along the grid: {kind} ends at {values[-1]:.6g} "
        f"(started at {values[0]:.6g})"
    )
