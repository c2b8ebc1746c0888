"""Executable forms of the limit theorems: hypothesis sequences evaluated
on an n-grid, deterministic trend verdicts, and the sup distance between
exact row-sum FTs and a candidate limit law's FT.

The theorems are asymptotic; this module only ever reports finite-grid
evidence.  All verdict rules are deterministic functions of the computed
sequences and the configured tolerances, so identical configurations give
bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat

from .groups import (
    PADIC,
    TWO_PI,
    Character,
    GroupElement,
    GroupId,
    Neighborhood,
    character,
    canonical_character,
    element_block,
    element_value,
    elements_close,
    identity,
    tower_gauge_block,
)
from .arrays import (
    TriangularArray,
    bernoulli_rate,
    generating_subgroup,
    infinitesimality_stat,
    is_symmetric_array,
    row_ft_exact,
    sum_cylinder,
    sum_local_means,
    sum_tail,
    sum_var_g,
    symmetric_stat,
)
from .measures import (
    LimitLaw,
    cylinder_mass,
    limit_law_ft,
    qform_eval,
    tail_mass_measure,
)

DEFAULT_GRID = (100, 1_000, 10_000, 100_000, 1_000_000)
DEFAULT_WINDOW = 3
DEFAULT_TREND_TOL = 1e-3
DEFAULT_DIVERGENCE_THRESHOLD = 1e3
DEFAULT_FT_TOL = 1e-3
# largest padic default character set enumerated; p = 11 at depth >= 3
# (16,104 characters) fits, p = 17 at depth >= 3 does not
MAX_DEFAULT_CHARACTERS = 65_536

CONVERGES = "converges"
DIVERGES = "diverges"
INCONCLUSIVE = "inconclusive"


class ConfigError(ValueError):
    """An experiment description is internally inconsistent."""


@dataclass(frozen=True)
class TrendVerdict:
    """Finite-grid judgment of a sequence's limit behaviour."""

    kind: str
    value: float | None
    evidence: tuple[float, ...]


def trend_classify(
    seq,
    tol: float = DEFAULT_TREND_TOL,
    window: int = DEFAULT_WINDOW,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> TrendVerdict:
    """Classify a sequence of (n, value) pairs sorted by n.

    Converged: the last ``window`` values have range below tol (relative to
    their magnitude: range <= tol * max(1, |mean|)); the verdict carries
    their mean.  Diverging: the window is strictly increasing and the last
    value exceeds the divergence threshold.  Anything else is inconclusive.
    """
    seq = list(seq)
    if len(seq) < window:
        raise ValueError(f"sequence of length {len(seq)} shorter than window {window}")
    if window < 2:
        raise ValueError("window must be at least 2")
    ns = [n for n, _ in seq]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("sequence must be sorted by strictly increasing n")
    tail = [v for _, v in seq[-window:]]
    total = 0.0
    for v in tail:  # left to right: builtin sum() compensates from Python 3.12
        total += v
    mean = total / window
    if max(tail) - min(tail) <= tol * max(1.0, abs(mean)):
        return TrendVerdict(CONVERGES, mean, tuple(tail))
    if all(b > a for a, b in zip(tail, tail[1:])) and tail[-1] > divergence_threshold:
        return TrendVerdict(DIVERGES, None, tuple(tail))
    return TrendVerdict(INCONCLUSIVE, None, tuple(tail))


def compound_growth(alpha: float, n: int) -> float:
    """(1 + alpha/n)^n evaluated stably through n * log1p(alpha/n);
    exactly 0 at alpha = -n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if alpha < -n:
        raise ValueError(f"alpha={alpha} below -n={-n}")
    if alpha == -n:
        return 0.0
    return math.exp(n * math.log1p(alpha / n))


def default_characters(group: GroupId) -> tuple[Character, ...]:
    """Deterministic finite stand-in for "all characters": torus indices
    |l| <= 8; padic all indices for d <= 3, refused with a ConfigError
    beyond MAX_DEFAULT_CHARACTERS; solenoid |l| <= 8 for d <= 3
    (duplicates under depth refinement removed)."""
    depth = min(3, group.depth)
    if group.kind == PADIC:
        count = sum(group.p ** (d + 1) for d in range(depth + 1))
        if count > MAX_DEFAULT_CHARACTERS:
            raise ConfigError(
                f"the default padic character set would enumerate {count} characters "
                f"(more than {MAX_DEFAULT_CHARACTERS}); list `characters` explicitly"
            )
        pairs = ((l, d) for d in range(depth + 1) for l in range(group.p ** (d + 1)))
    else:  # the torus is the tower of depth 0
        pairs = ((l, d) for d in range(depth + 1) for l in range(-8, 9))
    # dict keys keep the first-seen order
    return tuple(dict.fromkeys(canonical_character(character(group, l, d)) for l, d in pairs))


def default_neighborhoods(group: GroupId) -> tuple[Neighborhood, ...]:
    """Identity-neighborhood basis sample: shrinking arcs on the torus,
    lambda ranks 1..3 on padic, (depth, arc) grid on the solenoid."""
    if group.kind == PADIC:
        ranks = [r for r in (1, 2, 3) if r <= group.depth + 1]
        return tuple(Neighborhood(group, rank=r) for r in ranks)
    depths = range(min(2, group.depth) + 1)
    return tuple(Neighborhood(group, eps=math.pi / 2**k, d=d) for d in depths for k in (1, 2, 3))


@dataclass(frozen=True)
class VerifySettings:
    """Grid, finite character/neighborhood sets and tolerances for a
    verification run."""

    grid: tuple[int, ...] = DEFAULT_GRID
    characters: tuple[Character, ...] = ()
    neighborhoods: tuple[Neighborhood, ...] = ()
    trend_tol: float = DEFAULT_TREND_TOL
    window: int = DEFAULT_WINDOW
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD
    ft_tol: float = DEFAULT_FT_TOL

    def resolved(self, group: GroupId) -> "VerifySettings":
        """Fill empty character/neighborhood sets with the defaults of the
        group and validate the rest."""
        chars = self.characters or default_characters(group)
        nbhds = self.neighborhoods or default_neighborhoods(group)
        if self.window < 2:
            raise ConfigError("verdict window must be at least 2")
        for name, tol in (("trend", self.trend_tol), ("ft", self.ft_tol)):
            if tol < 0:
                raise ConfigError(f"tolerances.{name} must be non-negative")
        if len(self.grid) < self.window:
            raise ConfigError("n-grid shorter than the verdict window")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("n-grid must be strictly increasing")
        if any(n < 1 for n in self.grid):
            raise ConfigError("n-grid entries must be positive integers")
        for chi in chars:
            if chi.group != group:
                raise ConfigError("character set on a different group")
        for U in nbhds:
            if U.group != group:
                raise ConfigError("neighborhood set on a different group")
        return replace(
            self, grid=tuple(self.grid), characters=tuple(chars), neighborhoods=tuple(nbhds)
        )

    def judge(self, name: str, seq, target: float | None) -> ConditionVerdict:
        """The one rule every hypothesis is judged by: the (n, value)
        sequence seq passes when it converges to target within trend_tol
        (relative to max(1, |target|)), or, for a target of None, when it
        diverges to infinity."""
        seq = tuple(seq)
        verdict = trend_classify(seq, self.trend_tol, self.window, self.divergence_threshold)
        if target is None:
            return ConditionVerdict(name, "-> infinity", seq, verdict, verdict.kind == DIVERGES)
        bound = self.trend_tol * max(1.0, abs(target))
        passed = verdict.kind == CONVERGES and abs(verdict.value - target) <= bound
        return ConditionVerdict(name, f"-> {target:.6g}", seq, verdict, passed)

    def family(self, name: str, stat, array, items, labels, targets) -> list[ConditionVerdict]:
        """One judged condition name[label] per item, in item order: the
        item's column of one stat(array, grid, items) call as an (n, value)
        sequence, against its target (None: -> infinity)."""
        columns = zip(*stat(array, self.grid, items))
        return [
            self.judge(f"{name}[{label}]", list(zip(self.grid, column)), target)
            for column, label, target in zip(columns, labels, targets)
        ]


@dataclass(frozen=True)
class ConditionVerdict:
    """One hypothesis sequence with its target and verdict."""

    name: str
    target: str
    sequence: tuple[tuple[int, float], ...]
    verdict: TrendVerdict | None
    passed: bool


@dataclass(frozen=True)
class ConvergenceReport:
    """Everything check_theorem computed: the exact row-sum FT at each grid
    point and character (ft_exact, as row_ft_exact returns it), the law's
    FT at each character (ft_limits), the hypothesis sequences with
    verdicts, and the overall judgment."""

    theorem: str
    group: GroupId
    grid: tuple[int, ...]
    characters: tuple[Character, ...]
    ft_exact: tuple[tuple[complex, ...], ...]
    ft_limits: tuple[complex, ...]
    ft_sup: tuple[tuple[int, float], ...]
    ft_passed: bool
    conditions: tuple[ConditionVerdict, ...]
    overall: str  # "pass" | "fail" | "ft_pass_hypotheses_fail"

    def passed(self) -> bool:
        return self.overall == "pass"


def _ft_gaps(array: TriangularArray, law: LimitLaw, grid, chars):
    """The exact row-sum FTs on the grid, the law's FTs, and at each grid
    point the largest absolute gap between them over the character set."""
    limits = tuple(limit_law_ft(law, chars))
    exact = row_ft_exact(array, grid, chars)
    sup = [max([0.0] + [abs(z - w) for z, w in zip(values, limits)]) for values in exact]
    return exact, limits, sup


def ft_sup_distance(array: TriangularArray, law: LimitLaw, n: int, chars) -> float:
    """Largest absolute gap, over the character set, between the exact
    row-sum FT and the law's FT."""
    return _ft_gaps(array, law, (n,), chars)[2][0]


def _ft_converges_to_zero(values, settings: VerifySettings) -> bool:
    tail = values[-settings.window :]
    if tail[-1] > settings.ft_tol:
        return False
    non_increasing = all(b <= a for a, b in zip(tail, tail[1:]))
    return non_increasing or max(tail) <= settings.ft_tol


def _is_pure_haar(law: LimitLaw) -> bool:
    return (
        not law.H.is_trivial()
        and law.b.b == 0.0
        and not len(law.eta.values)
        and elements_close(law.a, identity(law.group))
    )


def _cylinder_set(law: LimitLaw, array, settings: VerifySettings):
    """Cylinders x0 + lambda(r) to track on a padic group: one per residue
    class (mod p^r) of the law's atoms and the array's atoms, for each
    configured rank, excluding classes containing the identity."""
    group = law.group
    ranks = sorted({U.rank for U in settings.neighborhoods if U.rank > 0})
    n = settings.grid[-1]
    residues = law.eta.values.tolist()
    if array.kind == "bernoulli":  # kept even when p_n = 0 drops it from the row law
        residues.append(array.x(n).residue)
    residues.extend(set(array.packed(n).values.tolist()))
    out = []
    for r in ranks:
        q = group.p**r
        for res in sorted({v % q for v in residues}):
            if res % q != 0:
                out.append((GroupElement(group, residue=res), r))
    return out


def check_theorem(
    array: TriangularArray, law: LimitLaw, settings: VerifySettings | None = None
) -> ConvergenceReport:
    """Evaluate every hypothesis sequence of the theorem matching the
    (array, law) pair on the n-grid, classify trends against the law's
    parameters, and compare exact row-sum FTs with the law's FT.

    The overall verdict is "pass" when all hypothesis verdicts match and
    the FT distance converges to zero; hypotheses failing while the FT
    distance still converges is reported as the distinct outcome
    "ft_pass_hypotheses_fail" rather than forced into pass/fail.

    The array's rules are not checked to be null along the grid here:
    parse_config does that once for every command, and a programmatic
    caller that builds its own array calls arrays.check_null_rule first.
    """
    if array.group != law.group:
        raise ConfigError("array and law on different groups")
    settings = (settings or VerifySettings()).resolved(law.group)
    grid, chars, nbhds = settings.grid, settings.characters, settings.neighborhoods
    ids, labels = [chi.char_id for chi in chars], [U.label for U in nbhds]
    rate = [(n, bernoulli_rate(array, n)) for n in grid] if array.kind == "bernoulli" else None

    # infinitesimality is a standing hypothesis of every theorem here
    conditions = settings.family(
        "infinitesimal", infinitesimality_stat, array, nbhds, labels, repeat(0.0)
    )
    if array.kind == "bernoulli" and _is_pure_haar(law):
        theorem = "bernoulli-haar"
        conditions.append(settings.judge("rate", rate, None))
        H = generating_subgroup(array.x(grid[-1]))
        target = f"closure of <x> = {law.H.describe()}"
        conditions.append(ConditionVerdict("subgroup", target, (), None, H == law.H))
    elif array.kind == "bernoulli" and law.H.is_trivial() and law.b.b == 0.0:
        theorem = "bernoulli-poisson"
        conditions.append(settings.judge("rate", rate, law.eta.total_mass()))
        conditions += _levy_tail_conditions(array, law, settings)
    elif is_symmetric_array(array) and _is_pure_haar(law) and law.H.is_full():
        theorem = "rademacher-haar" if array.kind == "rademacher" else "symmetric-haar"
        chis = [chi for chi in chars if not chi.is_trivial()]
        ids = [chi.char_id for chi in chis]
        conditions += settings.family("char_gap", symmetric_stat, array, chis, ids, repeat(None))
    elif is_symmetric_array(array) and law.H.is_trivial() and not len(law.eta.values):
        theorem = "rademacher-clt" if array.kind == "rademacher" else "symmetric-clt"
        # per character: moment gap -> Q(chi)/2, variance sum -> Q(chi); tails -> 0
        q = [qform_eval(law.b, chi) for chi in chars]
        gaps = settings.family("char_gap", symmetric_stat, array, chars, ids, [t / 2.0 for t in q])
        variances = settings.family("var_sum", sum_var_g, array, chars, ids, q)
        for pair in zip(gaps, variances):
            conditions.extend(pair)
        conditions += settings.family("tail_sum", sum_tail, array, nbhds, labels, repeat(0.0))
    elif law.H.is_trivial():
        theorem = "gaiser"
        # the gauge of each mean from law.a: its largest coordinate angle
        # (radians) on the torus and the solenoid, or the padic metric
        means = element_block(*sum_local_means(array, grid))
        gaps = tower_gauge_block(law.group, means, element_value(law.a), TWO_PI)
        seq = list(zip(grid, gaps.tolist()))
        conditions.append(settings.judge("mean_sum_gap", seq, 0.0))
        # the integral of g^2 under eta: its second g-moment
        second = law.eta.g_moments(chars)[1][:, 0].tolist()
        targets = [qform_eval(law.b, chi) + m2 for chi, m2 in zip(chars, second)]
        conditions += settings.family("var_sum", sum_var_g, array, chars, ids, targets)
        conditions += _levy_tail_conditions(array, law, settings)
    else:
        raise ConfigError(
            "no verifiable theorem matches this array/law pair: laws with a "
            "nondegenerate idempotent factor are only checked against the pure "
            "Haar limits of the Bernoulli and symmetric-array theorems"
        )

    exact, limits, sup = _ft_gaps(array, law, grid, chars)
    ft_passed = _ft_converges_to_zero(sup, settings)

    if not ft_passed:
        overall = "fail"
    elif all(c.passed for c in conditions):
        overall = "pass"
    else:
        overall = "ft_pass_hypotheses_fail"
    return ConvergenceReport(
        theorem,
        law.group,
        grid,
        chars,
        exact,
        limits,
        tuple(zip(grid, sup)),
        ft_passed,
        tuple(conditions),
        overall,
    )


def _levy_tail_conditions(array, law: LimitLaw, settings: VerifySettings):
    """Portmanteau conditions on the neighborhood basis: row tail sums
    against the Levy tail masses, plus cylinder masses on padic groups."""
    nbhds = settings.neighborhoods
    targets = tail_mass_measure(law.eta, nbhds)
    out = settings.family("tail_sum", sum_tail, array, nbhds, [U.label for U in nbhds], targets)
    if law.group.kind == PADIC:
        cylinders = _cylinder_set(law, array, settings)
        labels = [f"res:{x0.residue},r:{r}" for x0, r in cylinders]
        targets = cylinder_mass(law.eta, cylinders)
        out += settings.family("cylinder", sum_cylinder, array, cylinders, labels, targets)
    return out
