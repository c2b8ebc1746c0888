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
from dataclasses import dataclass

from .groups import (
    PADIC,
    TORUS,
    Character,
    GroupElement,
    GroupId,
    GroupMismatchError,
    Neighborhood,
    arg_of,
    character,
    canonical_character,
    coordinate_arg,
    elements_close,
    full_subgroup,
    identity,
    local_inner,
    padic_metric,
    reduce_turns,
)
from .arrays import (
    TriangularArraySpec,
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
    compound_poisson_law,
    cylinder_mass,
    dirac_law,
    gauss_law,
    haar_law,
    limit_law_ft,
    point_mass,
    qform_eval,
    scale_measure,
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

    def describe(self) -> str:
        if self.kind == CONVERGES:
            return f"converges to {self.value:.6g}"
        if self.kind == DIVERGES:
            return "diverges to infinity"
        return "inconclusive"


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
    mean = sum(tail) / window
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


def element_distance(x: GroupElement, a: GroupElement) -> float:
    """A metric gauge of x - a: angle of the difference (radians, via the
    deepest coordinate for the solenoid) or the padic metric."""
    if x.group != a.group:
        raise GroupMismatchError("elements on different groups")
    if x.group.kind == PADIC:
        return padic_metric(x, a)
    return abs(reduce_turns(x.turns - a.turns)) * 2.0 * math.pi


def default_characters(group: GroupId, max_ell: int = 8, max_d: int = 3) -> tuple[Character, ...]:
    """Deterministic finite stand-in for "all characters": torus indices
    |l| <= 8; padic all indices for d <= 3, refused with a ConfigError
    beyond MAX_DEFAULT_CHARACTERS; solenoid |l| <= 8 for d <= 3
    (duplicates under depth refinement removed)."""
    if group.kind == TORUS:
        return tuple(character(group, l) for l in range(-max_ell, max_ell + 1))
    depth = min(max_d, group.depth)
    if group.kind == PADIC:
        count = sum(group.p ** (d + 1) for d in range(depth + 1))
        if count > MAX_DEFAULT_CHARACTERS:
            raise ConfigError(
                f"the default padic character set would enumerate {count} characters "
                f"(more than {MAX_DEFAULT_CHARACTERS}); list `characters` explicitly"
            )
        pairs = ((l, d) for d in range(depth + 1) for l in range(group.p ** (d + 1)))
    else:
        pairs = ((l, d) for d in range(depth + 1) for l in range(-max_ell, max_ell + 1))
    # dict keys keep the first-seen order
    return tuple(dict.fromkeys(canonical_character(character(group, l, d)) for l, d in pairs))


def default_neighborhoods(group: GroupId) -> tuple[Neighborhood, ...]:
    """Identity-neighborhood basis sample: shrinking arcs on the torus,
    lambda ranks 1..3 on padic, (depth, arc) grid on the solenoid."""
    if group.kind == TORUS:
        return tuple(Neighborhood(group, eps=math.pi / 2**k) for k in (1, 2, 3))
    if group.kind == PADIC:
        ranks = [r for r in (1, 2, 3) if r <= group.depth + 1]
        return tuple(Neighborhood(group, rank=r) for r in ranks)
    out = []
    for d in range(min(2, group.depth) + 1):
        for k in (1, 2, 3):
            out.append(Neighborhood(group, eps=math.pi / 2**k, d=d))
    return tuple(out)


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
        return VerifySettings(
            tuple(self.grid),
            tuple(chars),
            tuple(nbhds),
            self.trend_tol,
            self.window,
            self.divergence_threshold,
            self.ft_tol,
        )


@dataclass(frozen=True)
class ConditionVerdict:
    """One hypothesis sequence with its target and verdict."""

    name: str
    target: str
    sequence: tuple[tuple[int, float], ...]
    verdict: TrendVerdict | None
    passed: bool


@dataclass(frozen=True)
class FtRow:
    n: int
    char_id: str
    exact: complex
    limit: complex

    @property
    def abs_err(self) -> float:
        return abs(self.exact - self.limit)


@dataclass(frozen=True)
class ConvergenceReport:
    """Everything check_theorem computed: the per-character FT table, the
    hypothesis sequences with verdicts, and the overall judgment."""

    theorem: str
    group: GroupId
    grid: tuple[int, ...]
    ft_rows: tuple[FtRow, ...]
    ft_sup: tuple[tuple[int, float], ...]
    ft_passed: bool
    conditions: tuple[ConditionVerdict, ...]
    overall: str  # "pass" | "fail" | "ft_pass_hypotheses_fail"

    def passed(self) -> bool:
        return self.overall == "pass"


def ft_sup_distance(array: TriangularArraySpec, law: LimitLaw, n: int, chars) -> float:
    """Largest absolute gap, over the character set, between the exact
    row-sum FT and the law's FT."""
    exact = row_ft_exact(array, n, chars)
    return max(abs(z - limit_law_ft(law, chi)) for chi, z in zip(chars, exact))


def _sequences(stat, array, grid, items) -> list[list[tuple[int, float]]]:
    """One (n, value) sequence per item, from one stat call per grid point."""
    values = [stat(array, n, items) for n in grid]
    return [list(zip(grid, column)) for column in zip(*values)]


def _ft_converges_to_zero(values, window: int, ft_tol: float) -> bool:
    tail = values[-window:]
    if tail[-1] > ft_tol:
        return False
    non_increasing = all(b <= a for a, b in zip(tail, tail[1:]))
    return non_increasing or max(tail) <= ft_tol


def _target_value(name, seq, verdict_of, target, tol) -> ConditionVerdict:
    verdict = verdict_of(seq)
    ok = verdict.kind == CONVERGES and abs(verdict.value - target) <= tol * max(
        1.0, abs(target)
    )
    return ConditionVerdict(name, f"-> {target:.6g}", tuple(seq), verdict, ok)


def _target_infinity(name, seq, verdict_of) -> ConditionVerdict:
    verdict = verdict_of(seq)
    return ConditionVerdict(name, "-> infinity", tuple(seq), verdict, verdict.kind == DIVERGES)


def _is_pure_haar(law: LimitLaw) -> bool:
    return (
        not law.H.is_trivial()
        and law.b.b == 0.0
        and not law.eta.atoms
        and elements_close(law.a, identity(law.group))
    )


def _cylinder_set(law: LimitLaw, array, settings: VerifySettings):
    """Cylinders x0 + lambda(r) to track on a padic group: one per residue
    class (mod p^r) of the law's atoms and the array's atoms, for each
    configured rank, excluding classes containing the identity."""
    group = law.group
    ranks = sorted({U.rank for U in settings.neighborhoods if U.rank > 0})
    n = settings.grid[-1]
    residues = [x.residue for x, _ in law.eta.atoms]
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
    array: TriangularArraySpec, law: LimitLaw, settings: VerifySettings | None = None
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
    grid = settings.grid
    tol = settings.trend_tol

    def classify(seq):
        return trend_classify(seq, tol, settings.window, settings.divergence_threshold)

    conditions: list[ConditionVerdict] = []
    chars, nbhds = settings.characters, settings.neighborhoods

    # infinitesimality is a standing hypothesis of every theorem here
    for U, seq in zip(nbhds, _sequences(infinitesimality_stat, array, grid, nbhds)):
        conditions.append(_target_value(f"infinitesimal[{U.label}]", seq, classify, 0.0, tol))

    if array.kind == "bernoulli" and _is_pure_haar(law):
        theorem = "bernoulli-haar"
        seq = [(n, bernoulli_rate(array, n)) for n in grid]
        conditions.append(_target_infinity("rate", seq, classify))
        H = generating_subgroup(array.x(grid[-1]))
        target = f"closure of <x> = {law.H.describe()}"
        conditions.append(ConditionVerdict("subgroup", target, (), None, H == law.H))
    elif array.kind == "bernoulli" and law.H.is_trivial() and law.b.b == 0.0:
        theorem = "bernoulli-poisson"
        lam = law.eta.total_mass()
        seq = [(n, bernoulli_rate(array, n)) for n in grid]
        conditions.append(_target_value("rate", seq, classify, lam, tol))
        conditions.extend(_levy_tail_conditions(array, law, settings, classify))
    elif is_symmetric_array(array) and _is_pure_haar(law) and law.H.is_full():
        theorem = "rademacher-haar" if array.kind == "rademacher" else "symmetric-haar"
        nontrivial = tuple(chi for chi in chars if not chi.is_trivial())
        for chi, seq in zip(nontrivial, _sequences(symmetric_stat, array, grid, nontrivial)):
            conditions.append(_target_infinity(f"char_gap[{chi.char_id}]", seq, classify))
    elif is_symmetric_array(array) and law.H.is_trivial() and not law.eta.atoms:
        theorem = "rademacher-clt" if array.kind == "rademacher" else "symmetric-clt"
        moment, variance, tails = _clt_conditions(array, law.b, settings, classify)
        for pair in zip(moment, variance):
            conditions.extend(pair)
        conditions.extend(tails)
    elif law.H.is_trivial():
        theorem = "gaiser"
        a = law.a
        seq = [(n, element_distance(sum_local_means(array, n), a)) for n in grid]
        conditions.append(_target_value("mean_sum_gap", seq, classify, 0.0, tol))
        for chi, seq in zip(chars, _sequences(sum_var_g, array, grid, chars)):
            target = qform_eval(law.b, chi) + sum(
                w * local_inner(x, chi) ** 2 for x, w in law.eta.atoms
            )
            conditions.append(
                _target_value(f"var_sum[{chi.char_id}]", seq, classify, target, tol)
            )
        conditions.extend(_levy_tail_conditions(array, law, settings, classify))
    else:
        raise ConfigError(
            "no verifiable theorem matches this array/law pair: laws with a "
            "nondegenerate idempotent factor are only checked against the pure "
            "Haar limits of the Bernoulli and symmetric-array theorems"
        )

    limits = [limit_law_ft(law, chi) for chi in chars]
    ft_rows, ft_sup = [], []
    for n in grid:
        exact = row_ft_exact(array, n, chars)
        rows = [FtRow(n, chi.char_id, z, w) for chi, z, w in zip(chars, exact, limits)]
        ft_rows += rows
        ft_sup.append((n, max([0.0] + [row.abs_err for row in rows])))
    ft_passed = _ft_converges_to_zero(
        [v for _, v in ft_sup], settings.window, settings.ft_tol
    )

    hypotheses_passed = all(c.passed for c in conditions)
    if hypotheses_passed and ft_passed:
        overall = "pass"
    elif ft_passed:
        overall = "ft_pass_hypotheses_fail"
    else:
        overall = "fail"
    return ConvergenceReport(
        theorem,
        law.group,
        grid,
        tuple(ft_rows),
        tuple(ft_sup),
        ft_passed,
        tuple(conditions),
        overall,
    )


def _levy_tail_conditions(array, law: LimitLaw, settings: VerifySettings, classify):
    """Portmanteau conditions on the neighborhood basis: row tail sums
    against the Levy tail masses, plus cylinder masses on padic groups."""
    out = []
    nbhds = settings.neighborhoods
    for U, seq in zip(nbhds, _sequences(sum_tail, array, settings.grid, nbhds)):
        target = tail_mass_measure(law.eta.measure, U)
        out.append(_target_value(f"tail_sum[{U.label}]", seq, classify, target, settings.trend_tol))
    if law.group.kind == PADIC:
        for x0, r in _cylinder_set(law, array, settings):
            target = cylinder_mass(law.eta.measure, x0, r)
            seq = [(n, sum_cylinder(array, n, x0, r)) for n in settings.grid]
            out.append(
                _target_value(
                    f"cylinder[res:{x0.residue},r:{r}]",
                    seq,
                    classify,
                    target,
                    settings.trend_tol,
                )
            )
    return out


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of running the three equivalent characterizations of a
    symmetric i.i.d. array converging to the Gauss law with parameter b."""

    b: float
    ft_passed: bool
    moment_conditions: tuple[ConditionVerdict, ...]
    variance_conditions: tuple[ConditionVerdict, ...]
    tail_conditions: tuple[ConditionVerdict, ...]

    @property
    def moment_passed(self) -> bool:
        return all(c.passed for c in self.moment_conditions)

    @property
    def levy_passed(self) -> bool:
        return all(c.passed for c in self.variance_conditions) and all(
            c.passed for c in self.tail_conditions
        )

    @property
    def consistent(self) -> bool:
        return self.ft_passed == self.moment_passed == self.levy_passed


def _clt_conditions(array, qform, settings: VerifySettings, classify):
    """The symmetric-CLT hypotheses for the Gauss parameter qform: moment
    gaps -> Q(chi)/2 and variance sums -> Q(chi) per character, and
    vanishing tail sums; returned as (moment, variance, tails)."""
    tol = settings.trend_tol
    grid, chars, nbhds = settings.grid, settings.characters, settings.neighborhoods
    moment, variance, tails = [], [], []
    gaps = _sequences(symmetric_stat, array, grid, chars)
    variances = _sequences(sum_var_g, array, grid, chars)
    for chi, gap, var in zip(chars, gaps, variances):
        target = qform_eval(qform, chi)
        moment.append(_target_value(f"char_gap[{chi.char_id}]", gap, classify, target / 2.0, tol))
        variance.append(_target_value(f"var_sum[{chi.char_id}]", var, classify, target, tol))
    for U, seq in zip(nbhds, _sequences(sum_tail, array, grid, nbhds)):
        tails.append(_target_value(f"tail_sum[{U.label}]", seq, classify, 0.0, tol))
    return moment, variance, tails


def crosscheck_gensym2(
    array: TriangularArraySpec, b: float, settings: VerifySettings | None = None
) -> EquivalenceReport:
    """Evaluate, on the same grid, the three equivalent statements for a
    symmetric i.i.d. array and the Gauss law with parameter b: FT distance
    to the law vanishes; the per-character moment gaps converge to half the
    quadratic form; the variance sums converge to the quadratic form while
    the tail sums vanish.  Reports whether the three verdicts agree."""
    if not is_symmetric_array(array):
        raise ConfigError("the equivalence crosscheck needs a symmetric i.i.d. array")
    settings = (settings or VerifySettings()).resolved(array.group)
    law = gauss_law(array.group, b)
    tol = settings.trend_tol

    def classify(seq):
        return trend_classify(seq, tol, settings.window, settings.divergence_threshold)

    chars = settings.characters
    limits = [limit_law_ft(law, chi) for chi in chars]
    ft_vals = [
        max(abs(z - w) for z, w in zip(row_ft_exact(array, n, chars), limits))
        for n in settings.grid
    ]
    ft_passed = _ft_converges_to_zero(ft_vals, settings.window, settings.ft_tol)
    moment, variance, tails = _clt_conditions(array, law.b, settings, classify)
    return EquivalenceReport(b, ft_passed, tuple(moment), tuple(variance), tuple(tails))


@dataclass(frozen=True)
class Prediction:
    """Outcome of trend-based limit classification."""

    law: LimitLaw | None
    theorem: str
    reason: str = ""

    def classified(self) -> bool:
        return self.law is not None


def predict_limit(
    array: TriangularArraySpec,
    grid,
    tol: float = DEFAULT_TREND_TOL,
    window: int = DEFAULT_WINDOW,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> Prediction:
    """Classify the driving sequence of a Rademacher or Bernoulli array on
    an n-grid and return the theorem-predicted limit law.

    Unclassifiable trends are reported as such, never guessed.
    """
    grid = tuple(grid)
    g = array.group
    if array.kind == "rademacher":
        if g.kind == PADIC:
            # the local inner product vanishes, so x_n -> e forces the
            # limit to be the point mass at e
            seq = [(n, padic_metric(array.x(n), identity(g))) for n in grid]
            verdict = trend_classify(seq, tol, window, divergence_threshold)
            if verdict.kind == CONVERGES and abs(verdict.value) <= tol:
                return Prediction(dirac_law(identity(g)), "rademacher-dirac")
            reason = "padic Rademacher elements do not tend to the identity"
            return Prediction(None, "unclassified", reason)
        seq = []
        for n in grid:
            x = array.x(n)
            a0 = arg_of(x) if g.kind == TORUS else coordinate_arg(x, 0)
            seq.append((n, array.row_count(n) * a0 * a0))
        verdict = trend_classify(seq, tol, window, divergence_threshold)
        if verdict.kind == CONVERGES:
            return Prediction(gauss_law(g, max(verdict.value, 0.0)), "rademacher-clt")
        if verdict.kind == DIVERGES:
            return Prediction(haar_law(full_subgroup(g)), "rademacher-haar")
        return Prediction(None, "unclassified", "driving sequence K_n*arg(x_n)^2 has no clear trend")
    if array.kind == "bernoulli":
        x = array.x(grid[-1])
        seq = [(n, bernoulli_rate(array, n)) for n in grid]
        verdict = trend_classify(seq, tol, window, divergence_threshold)
        if verdict.kind == CONVERGES:
            lam = max(verdict.value, 0.0)
            eta = scale_measure(point_mass(x), lam)
            return Prediction(compound_poisson_law(eta), "bernoulli-poisson")
        if verdict.kind == DIVERGES:
            H = generating_subgroup(x)
            if H is None:
                reason = "closure of the cyclic group of x is not determinable here"
                return Prediction(None, "unclassified", reason)
            return Prediction(haar_law(H), "bernoulli-haar")
        return Prediction(None, "unclassified", "rate sequence K_n*p_n has no clear trend")
    return Prediction(None, "unclassified", "only Rademacher/Bernoulli arrays are classified")
