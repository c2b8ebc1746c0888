"""Triangular-array specifications and the exact per-row statistics that
appear in the limit-theorem hypotheses: character-moment products,
local-mean sums, variance sums and tail sums.

Row-count and parameter rules are closed-form schedules of the row index n
(constant / linear / power / explicit table), so every reported number is
reproducible from the experiment description alone.  For i.i.d. rows the
K_n-fold quantities are evaluated in closed form; no loop of length K_n is
ever run, which keeps K_n up to 1e9 cheap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable

from .groups import (
    PADIC,
    TORUS,
    Character,
    GroupElement,
    GroupId,
    GroupMismatchError,
    Neighborhood,
    add,
    cyclic_subgroup,
    elements_close,
    from_angle,
    from_base_angle,
    full_subgroup,
    identity,
    lambda_subgroup,
    local_inner,
    neg,
    padic_metric,
    scale,
    trivial_subgroup,
)
from .measures import (
    DiscreteMeasure,
    cylinder_mass,
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

    def row_count(self, n: int) -> int:
        return _positive_k(self.K(n), n)

    def iid_dist(self, n: int) -> RowDistribution:
        return self.dist(n)

    def row_laws(self, n: int) -> Iterable[tuple[RowDistribution, int]]:
        """(law, multiplicity) pairs of row n: one law K_n times."""
        return ((self.iid_dist(n), self.row_count(n)),)


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
class GeneralArray:
    """Arbitrary rowwise-independent rows from a rule n -> list of row
    distributions (one per k)."""

    group: GroupId
    rows_rule: Callable[[int], tuple[RowDistribution, ...]]
    kind = "general"

    def row_count(self, n: int) -> int:
        return len(self.rows_rule(n))

    def rows(self, n: int) -> tuple[RowDistribution, ...]:
        rows = tuple(self.rows_rule(n))
        for dist in rows:
            if dist.group != self.group:
                raise GroupMismatchError(
                    "row rule produced a distribution on another group"
                )
        return rows

    def row_laws(self, n: int) -> Iterable[tuple[RowDistribution, int]]:
        """(law, multiplicity) pairs of row n: each entry once, as a lazy
        iterator, so a loop over a long row allocates no pair per entry
        (and sets off no garbage collections over a large config)."""
        return zip(self.rows(n), repeat(1))


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
    out = None
    for dist, m in array.row_laws(n):
        z = _power(char_moment(dist, chi), m)
        out = z if out is None else out * z
    return complex(1.0) if out is None else out


def sum_local_means(array: TriangularArraySpec, n: int) -> GroupElement:
    """Group sum of the local means of row n."""
    s = identity(array.group)
    for dist, m in array.row_laws(n):
        s = add(s, scale(m, local_mean(dist.measure)))
    return s


def _var_local_inner(dist: RowDistribution, chi: Character) -> float:
    m1 = sum(w * local_inner(x, chi) for x, w in dist.atoms)
    m2 = sum(w * local_inner(x, chi) ** 2 for x, w in dist.atoms)
    return m2 - m1 * m1


def sum_var_g(array: TriangularArraySpec, n: int, chi: Character) -> float:
    """Sum over row n of the variances of g(X, chi)."""
    return sum(m * _var_local_inner(dist, chi) for dist, m in array.row_laws(n))


def sum_tail(array: TriangularArraySpec, n: int, U: Neighborhood) -> float:
    """Sum over row n of the probabilities of landing outside U."""
    return sum(m * tail_mass_measure(dist.measure, U) for dist, m in array.row_laws(n))


def sum_cylinder(array: TriangularArraySpec, n: int, x0: GroupElement, r: int) -> float:
    """Sum over row n of the probabilities of the padic cylinder
    x0 + lambda(r)."""
    return sum(m * cylinder_mass(dist.measure, x0, r) for dist, m in array.row_laws(n))


def infinitesimality_stat(array: TriangularArraySpec, n: int, U: Neighborhood) -> float:
    """Largest tail probability in row n; the array is infinitesimal when
    this tends to 0 for every U."""
    return max(
        (tail_mass_measure(dist.measure, U) for dist, _ in array.row_laws(n)), default=0.0
    )


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
