"""Triangular-array specifications and the exact per-row statistics that
appear in the limit-theorem hypotheses: character-moment products,
local-mean sums, variance sums and tail sums.

Row-count and parameter rules are closed-form schedules of the row index n
(constant / linear / power / explicit table), so every reported number is
reproducible from the experiment description alone.

For i.i.d. rows the K_n-fold quantities are evaluated in closed form, so
no loop of length K_n is run and K_n up to 1e9 is cheap.  General rows have
no closed form: each row is packed once into a PackedRow table, and every
statistic is one numpy pass over that table per character or
neighborhood.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable

import numpy as np

from .groups import (
    PADIC,
    TORUS,
    TWO_PI,
    Character,
    GroupElement,
    GroupId,
    GroupMismatchError,
    Neighborhood,
    add,
    block_dtype,
    block_element,
    char_eval_block,
    cyclic_subgroup,
    element_value,
    elements_close,
    from_angle,
    from_base_angle,
    from_turns,
    full_subgroup,
    h_arg_block,
    identity,
    in_nbhd_block,
    lambda_subgroup,
    local_inner,
    local_inner_block,
    neg,
    padic_metric,
    reduce_turns_block,
    scale,
    trivial_subgroup,
)
from .measures import (
    ATOM_TOL_TURNS,
    DiscreteMeasure,
    cylinder_mass,
    cylinder_modulus,
    discrete_measure,
    local_mean,
    measure_ft,
    tail_mass_measure,
)


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

    def describe(self) -> str:
        if self.kind == "constant":
            return f"{self.coef:g}"
        if self.kind == "linear":
            return f"{self.coef:g}*n"
        if self.kind == "power":
            return f"{self.coef:g}*n^{self.exp:g}"
        return f"table({len(self.table)} entries)"


def constant(value: float) -> Schedule:
    return Schedule("constant", coef=value)


def linear(coef: float) -> Schedule:
    return Schedule("linear", coef=coef)


def power(coef: float, exponent: float) -> Schedule:
    return Schedule("power", coef=coef, exp=exponent)


def table(values: dict[int, float]) -> Schedule:
    return Schedule("table", table=tuple(sorted(values.items())))


@dataclass(frozen=True)
class RowDistribution:
    """Distribution of one entry of the array: a discrete probability
    measure."""

    measure: DiscreteMeasure

    def __post_init__(self) -> None:
        if not self.measure.is_probability():
            raise ValueError(
                f"row distribution has total mass {self.measure.total_mass()!r}, expected 1"
            )

    @property
    def group(self) -> GroupId:
        return self.measure.group

    @property
    def atoms(self):
        return self.measure.atoms

    def is_symmetric(self, tol_turns: float = 1e-12) -> bool:
        """Invariance under x -> -x, atom by atom."""
        for x, w in self.atoms:
            matched = False
            for y, v in self.atoms:
                if elements_close(neg(x), y, tol_turns) and abs(w - v) <= 1e-12:
                    matched = True
                    break
            if not matched:
                return False
        return True


def row_distribution(group: GroupId, atoms) -> RowDistribution:
    return RowDistribution(discrete_measure(group, atoms))


def _positive_k(value: float, n: int) -> int:
    k = round(value) if math.isfinite(value) else 0
    if k < 1 or abs(value - k) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"row count K_n must be a positive integer; got {value} at n={n}")
    return int(k)


@dataclass(frozen=True)
class IIDArray:
    """Rows of K_n i.i.d. entries with the row law dist(n).

    kind is "rademacher" (mass 1/2 on x(n) and 1/2 on -x(n)), "bernoulli"
    (mass p(n) on the fixed atom x(n), 1 - p(n) on the identity) or
    "symmetric" (a symmetric law produced by a rule); build them with
    rademacher_array, bernoulli_array and iid_symmetric_array.
    """

    group: GroupId
    K: Schedule
    kind: str
    dist: Callable[[int], RowDistribution]
    x: Callable[[int], GroupElement] | None = None
    p: Callable[[int], float] | None = None
    _dists: dict = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

    def row_count(self, n: int) -> int:
        return _positive_k(self.K(n), n)

    def iid_dist(self, n: int) -> RowDistribution:
        """The row law of row n, built and checked once per n."""
        dist = self._dists.get(n)
        if dist is None:
            dist = self._dists[n] = self.dist(n)
        return dist


def rademacher_array(
    group: GroupId,
    K: Schedule,
    angle: Schedule | None = None,
    elements: tuple[tuple[int, GroupElement], ...] = (),
) -> IIDArray:
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
        to_element = from_angle if group.kind == TORUS else from_base_angle

        def x(n: int) -> GroupElement:
            return to_element(group, angle(n))

    def dist(n: int) -> RowDistribution:
        xn = x(n)
        return row_distribution(group, [(xn, 0.5), (neg(xn), 0.5)])

    return IIDArray(group, K, "rademacher", dist, x=x)


def bernoulli_array(group: GroupId, x: GroupElement, p: Schedule, K: Schedule) -> IIDArray:
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

    def dist(n: int) -> RowDistribution:
        pn = rate(n)
        return row_distribution(group, [(x, pn), (identity(group), 1.0 - pn)])

    return IIDArray(group, K, "bernoulli", dist, x=lambda n: x, p=rate)


def iid_symmetric_array(
    group: GroupId, dist_rule: Callable[[int], RowDistribution], K: Schedule
) -> IIDArray:
    """Rows are i.i.d. with a symmetric distribution produced by a rule."""

    def dist(n: int) -> RowDistribution:
        d = dist_rule(n)
        if d.group != group:
            raise GroupMismatchError("row rule produced a distribution on another group")
        if not d.is_symmetric():
            raise ValueError(f"row distribution at n={n} is not symmetric")
        return d

    return IIDArray(group, K, "symmetric", dist)


@dataclass(frozen=True)
class PackedRow:
    """The entries of one row in one table: entry k has the atoms
    values[starts[k]:starts[k + 1]] (a block of the group's block_dtype)
    with the weights at the same positions."""

    group: GroupId
    values: np.ndarray
    weights: np.ndarray
    starts: np.ndarray

    @cached_property
    def laws(self) -> tuple[RowDistribution, ...]:
        """One row law per entry, built from the table on first use."""
        xs = [block_element(self.group, v) for v in self.values.tolist()]
        atoms = list(zip(xs, self.weights.tolist()))
        bounds = self.starts.tolist() + [len(atoms)]
        return tuple(
            RowDistribution(DiscreteMeasure(self.group, tuple(atoms[a:b])))
            for a, b in zip(bounds, bounds[1:])
        )

    def entry_sums(self, x: np.ndarray) -> np.ndarray:
        """The sum over each entry's atoms of weight * x, for x given at
        every atom (x may have trailing axes)."""
        w = self.weights.reshape((-1,) + (1,) * (x.ndim - 1))
        return np.add.reduceat(w * x, self.starts)


def pack_rows(group: GroupId, laws) -> PackedRow:
    """One PackedRow of the row laws, checked to lie on the group; its
    laws are these very objects."""
    laws = tuple(laws)
    if any(dist.group != group for dist in laws):
        raise GroupMismatchError("row rule produced a distribution on another group")
    atoms = [atom for dist in laws for atom in dist.atoms]
    counts = np.array([len(dist.atoms) for dist in laws], dtype=np.intp)
    row = PackedRow(
        group,
        np.array([element_value(x) for x, _ in atoms], dtype=block_dtype(group)),
        np.array([w for _, w in atoms], dtype=float),
        np.cumsum(counts) - counts,
    )
    row.__dict__["laws"] = laws  # fills the cached property
    return row


def plain_entries(group: GroupId, values: np.ndarray, weights: np.ndarray, counts) -> np.ndarray:
    """For each entry of a table of atoms (entry k holds the next counts[k]
    atoms), whether row_distribution surely keeps its atoms exactly as
    given and accepts them: every weight finite and positive, the total
    mass within 1e-12 of 1 with room for rounding, and no two atoms equal
    (padic) or within twice ATOM_TOL_TURNS of each other.  An entry marked
    False may still be valid; only row_distribution can tell."""
    counts = np.asarray(counts, dtype=np.intp)
    entry = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    bad = ~(np.isfinite(weights) & (weights > 0.0))
    plain = np.bincount(entry, weights=bad, minlength=len(counts)) == 0
    # any two sums of count positive weights near 1, in any order (or
    # compensated, as sum() is from Python 3.12), differ by less than
    # count * eps; an entry inside that margin of the bound is left to
    # row_distribution, whose total_mass decides it
    mass = np.bincount(entry, weights=np.where(bad, 0.0, weights), minlength=len(counts))
    plain &= np.abs(mass - 1.0) <= 1e-12 - 2 * counts * np.finfo(float).eps
    # close atoms are neighbours once each entry is sorted, circularly on
    # angle groups; stable argsorts, since lexsort rejects object residues
    order = np.argsort(values, kind="stable")
    order = order[np.argsort(entry[order], kind="stable")]
    v, e = values[order], entry[order]
    same = e[1:] == e[:-1]
    if group.kind == PADIC:
        close = same & (v[1:] == v[:-1]).astype(bool)
    else:
        close = same & (v[1:] - v[:-1] <= 2 * ATOM_TOL_TURNS)
        ends = np.flatnonzero(counts > 1)
        wrap = v[starts[ends]] + 1.0 - v[starts[ends] + counts[ends] - 1] <= 2 * ATOM_TOL_TURNS
        plain[ends[wrap]] = False
    plain[e[1:][close]] = False
    return plain


@dataclass(frozen=True)
class GeneralArray:
    """Arbitrary rowwise-independent rows from a rule n -> list of row
    distributions (one per k), or from a table_rule n -> PackedRow given
    by keyword instead; the row laws of a table are built only when
    rows(n) asks."""

    group: GroupId
    rows_rule: Callable[[int], tuple[RowDistribution, ...]] | None = None
    table_rule: Callable[[int], PackedRow] | None = field(default=None, repr=False)
    _packed: dict = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)
    kind = "general"

    def __post_init__(self) -> None:
        if (self.rows_rule is None) == (self.table_rule is None):
            raise TypeError("GeneralArray needs exactly one of rows_rule and table_rule")

    def row_count(self, n: int) -> int:
        return len(self.packed(n).starts)

    def packed(self, n: int) -> PackedRow:
        """Row n as one table, built or fetched the first time row n is
        used."""
        row = self._packed.get(n)
        if row is None:
            if self.rows_rule is not None:
                row = pack_rows(self.group, self.rows_rule(n))
            else:
                row = self.table_rule(n)
                if row.group != self.group:
                    raise GroupMismatchError("table rule produced a row on another group")
            self._packed[n] = row
        return row

    def rows(self, n: int) -> tuple[RowDistribution, ...]:
        return self.packed(n).laws


TriangularArraySpec = IIDArray | GeneralArray


def is_symmetric_array(array: TriangularArraySpec) -> bool:
    return array.kind in ("rademacher", "symmetric")


def row_dist(array: TriangularArraySpec, n: int, k: int) -> RowDistribution:
    """Distribution of the k-th entry of row n, 1 <= k <= K_n."""
    K = array.row_count(n)
    if not 1 <= k <= K:
        raise IndexError(f"row index k={k} outside 1..{K}")
    if array.kind == "general":
        return array.rows(n)[k - 1]
    return array.iid_dist(n)


def char_moment(dist: RowDistribution, chi: Character) -> complex:
    """Expected character value under one row distribution."""
    return measure_ft(dist.measure, chi)


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


def row_ft_exact(array: TriangularArraySpec, n: int, chi: Character) -> complex:
    """FT of the row sum: the product of the per-entry character moments,
    a K_n-th power for i.i.d. rows (see _power).

    The product starts from the first factor, not from 1, so the signed
    zeros of a single factor survive.
    """
    if array.kind != "general":
        return _power(char_moment(array.iid_dist(n), chi), array.row_count(n))
    row = array.packed(n)
    c = char_eval_block(array.group, (chi,), row.values)
    # each moment, like measure_ft, is a sum from +0.0, so no part is -0.0
    moments = (row.entry_sums(c.view(np.float64)) + 0.0).view(complex)[:, 0]
    return complex(np.multiply.reduce(moments))


def sum_local_means(array: TriangularArraySpec, n: int) -> GroupElement:
    """Group sum of the local means of row n."""
    g = array.group
    if array.kind != "general":
        m = local_mean(array.iid_dist(n).measure)
        return add(identity(g), scale(array.row_count(n), m))
    if g.kind == PADIC:
        return identity(g)
    row = array.packed(n)
    # local_mean of each entry, in turns
    turns = row.entry_sums(h_arg_block(g, row.values)) / TWO_PI
    if g.kind != TORUS:
        turns /= g.p**g.depth
    return from_turns(g, float(reduce_turns_block(turns).sum()))


def _var_local_inner(dist: RowDistribution, chi: Character) -> float:
    m1 = sum(w * local_inner(x, chi) for x, w in dist.atoms)
    m2 = sum(w * local_inner(x, chi) ** 2 for x, w in dist.atoms)
    return m2 - m1 * m1


def sum_var_g(array: TriangularArraySpec, n: int, chi: Character) -> float:
    """Sum over row n of the variances of g(X, chi)."""
    if array.kind != "general":
        return array.row_count(n) * _var_local_inner(array.iid_dist(n), chi)
    row = array.packed(n)
    inner = local_inner_block(array.group, chi, row.values)
    m1, m2 = row.entry_sums(inner), row.entry_sums(inner * inner)
    return float(np.sum(m2 - m1 * m1))


def _tail_masses(array: GeneralArray, n: int, U: Neighborhood) -> np.ndarray:
    """The probability of each entry of row n to land outside U."""
    row = array.packed(n)
    return row.entry_sums(~in_nbhd_block(array.group, U, row.values))


def sum_tail(array: TriangularArraySpec, n: int, U: Neighborhood) -> float:
    """Sum over row n of the probabilities of landing outside U."""
    if array.kind != "general":
        return array.row_count(n) * tail_mass_measure(array.iid_dist(n).measure, U)
    return float(_tail_masses(array, n, U).sum())


def sum_cylinder(array: TriangularArraySpec, n: int, x0: GroupElement, r: int) -> float:
    """Sum over row n of the probabilities of the padic cylinder
    x0 + lambda(r)."""
    if array.kind != "general":
        return array.row_count(n) * cylinder_mass(array.iid_dist(n).measure, x0, r)
    q = cylinder_modulus(array.group, x0, r)
    row = array.packed(n)
    return float(row.entry_sums((row.values - x0.residue) % q == 0).sum())


def infinitesimality_stat(array: TriangularArraySpec, n: int, U: Neighborhood) -> float:
    """Largest tail probability in row n; the array is infinitesimal when
    this tends to 0 for every U."""
    if array.kind != "general":
        return tail_mass_measure(array.iid_dist(n).measure, U)
    return float(_tail_masses(array, n, U).max(initial=0.0))


def symmetric_stat(array: TriangularArraySpec, n: int, chi: Character) -> float:
    """K_n * (1 - Re E chi(X_n1)) for i.i.d. rows: the quantity whose limit
    decides between Gauss and Haar behaviour of symmetric arrays."""
    if array.kind == "general":
        raise ValueError("symmetric_stat needs i.i.d. rows")
    z = char_moment(array.iid_dist(n), chi)
    return array.row_count(n) * (1.0 - z.real)


def bernoulli_rate(array: TriangularArraySpec, n: int) -> float:
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
        return lambda_subgroup(g, _first_nonzero_digit(x))
    if g.kind == TORUS:
        if x.turns == 0.0:
            return trivial_subgroup(g)
        frac = Fraction(x.turns).limit_denominator(10**6)
        if frac != 0 and abs(x.turns - float(frac)) <= 1e-12:
            return cyclic_subgroup(g, frac.denominator)
        return full_subgroup(g)
    return None


def check_null_rule(array: TriangularArraySpec, grid) -> None:
    """Reject Rademacher rules whose elements do not tend to the identity
    and Bernoulli rules whose rate does not tend to 0 along the grid.

    The gauge sequence (distance of x_n to the identity, or p_n) must end
    at its minimum and strictly below its start, or be null already; slow
    decay is fine, flat or rising rules are not.
    """
    grid = tuple(grid)
    if array.kind == "rademacher":
        e = identity(array.group)
        values = []
        for n in grid:
            x = array.x(n)
            if array.group.kind == PADIC:
                values.append(padic_metric(x, e))
            else:
                values.append(abs(x.turns - e.turns))
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


def _first_nonzero_digit(x: GroupElement) -> int:
    r, v = 0, x.residue
    while v % x.group.p == 0:
        v //= x.group.p
        r += 1
    return r
