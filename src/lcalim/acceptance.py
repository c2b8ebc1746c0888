"""The acceptance suite: eleven self-contained checks, each exercising one
headline behaviour of the package at a pinned tolerance.  Used both by the
``lcalim selftest`` subcommand and by the pytest acceptance tests.

Each criterion returns (passed, detail); nothing here depends on wall
clock, environment or external data, and the Monte Carlo check pins its
master seed, so the whole suite is deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .arrays import (
    TriangularArray,
    bernoulli_array,
    iid_symmetric_array,
    linear,
    power,
    rademacher_array,
    row_distribution,
    row_ft_exact,
    sum_cylinder,
    symmetric_stat,
)
from .groups import (
    PADIC,
    TORUS,
    TWO_PI,
    char_eval_block,
    character,
    element_block,
    from_angle,
    from_int,
    from_turns,
    full_subgroup,
    identity,
    local_inner_block,
    neg,
    padic_group,
    reduce_turns_block,
    solenoid_group,
    torus_group,
)
from .measures import (
    QuadraticFormParam,
    compound_poisson_law,
    convolve,
    cpoisson_ft,
    cylinder_mass,
    discrete_measure,
    gauss_law,
    genpoisson_ft,
    haar_law,
    limit_law_ft,
    local_mean,
    measure_ft,
    point_mass,
    qform_eval,
    scale_measure,
    validate_levy,
)
from .sampling import SeededStream, empirical_ft
from .verify import VerifySettings, check_theorem, compound_growth, trend_classify

WIDE_GRID = (100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000)


def _torus_clt_array() -> TriangularArray:
    return rademacher_array(torus_group(), K=linear(1.0), angle=power(1.0, -0.5))


def _padic_poisson_array() -> TriangularArray:
    g = padic_group(2)
    return bernoulli_array(g, from_int(g, 1), p=power(2.0, -1.0), K=linear(1.0))


def _padic_chars(g, max_d):
    return [
        character(g, l, d) for d in range(max_d + 1) for l in range(g.p ** (d + 1))
    ]


def criterion_1():
    """Torus Rademacher CLT: exact row FT against the Gauss law at n=1e6,
    and a passing theorem check."""
    g = torus_group()
    array = _torus_clt_array()
    chars = tuple(character(g, l) for l in (1, 2, 3))
    fts = row_ft_exact(array, (10**6,), chars)[0]
    worst = max(abs(got - math.exp(-(chi.ell**2) / 2.0)) for chi, got in zip(chars, fts))
    report = check_theorem(array, gauss_law(g, 1.0), VerifySettings(characters=chars))
    ok = worst <= 5e-4 and report.passed()
    return ok, f"max |FT - exp(-l^2/2)| = {worst:.3g} (<= 5e-4), verdict {report.overall}"


def criterion_2():
    """Torus Haar limit: row FT collapses at every nontrivial character and
    the moment-gap sequences diverge."""
    g = torus_group()
    array = rademacher_array(g, K=linear(1.0), angle=power(1.0, -0.25))
    chars = tuple(character(g, l) for l in range(1, 6))
    worst = max(abs(z) for z in row_ft_exact(array, (10**4,), chars)[0])
    gaps = zip(*symmetric_stat(array, WIDE_GRID, chars))  # per character
    diverged = all(trend_classify(zip(WIDE_GRID, seq)).kind == "diverges" for seq in gaps)
    ok = worst <= 1e-6 and diverged
    return ok, f"max |FT| at n=1e4 = {worst:.3g} (<= 1e-6), gaps diverge: {diverged}"


def criterion_3():
    """Bernoulli-Poisson limit on the 2-adic integers: exact row FT against
    the compound Poisson target for every character of depth <= 2."""
    array = _padic_poisson_array()
    g = array.group
    n = 10**5
    x = array.x(n)
    chars = tuple(_padic_chars(g, 2))
    fts = dict(zip(chars, row_ft_exact(array, (n,), chars)[0]))
    at_x = char_eval_block(g, chars, element_block(x))[0].tolist()
    worst = max(abs(fts[chi] - np.exp(2.0 * (z - 1.0))) for chi, z in zip(chars, at_x))
    # the character sending x to -1 pins the classical value exp(-4)
    spot = abs(fts[character(g, 1, 0)] - math.exp(-4.0))
    law = compound_poisson_law(scale_measure(point_mass(x), 2.0))
    report = check_theorem(array, law, VerifySettings(characters=chars))
    ok = worst <= 1e-3 and spot <= 1e-3 and report.passed()
    return ok, f"max |FT - e(2dx)^| = {worst:.3g} (<= 1e-3), verdict {report.overall}"


def criterion_4():
    """Bernoulli-Haar limit on the 2-adic integers: row FT vanishes at every
    nontrivial character and the Haar FT is its indicator."""
    g = padic_group(2)
    array = bernoulli_array(g, from_int(g, 1), p=power(1.0, -0.5), K=linear(1.0))
    law = haar_law(full_subgroup(g))
    n = 10**6
    chars = _padic_chars(g, 2)
    fts = row_ft_exact(array, (n,), chars)[0]
    worst = max(abs(z) for chi, z in zip(chars, fts) if chi.ell != 0)
    haar = zip(chars, limit_law_ft(law, chars))
    indicator_ok = all(z == (1.0 if chi.ell == 0 else 0.0) for chi, z in haar)
    ok = worst <= 1e-3 and indicator_ok
    return ok, f"max nontrivial |FT| = {worst:.3g} (<= 1e-3), Haar indicator exact: {indicator_ok}"


def criterion_5():
    """Solenoid Rademacher CLT: exact row FT against the Gauss law across
    depths 0..2."""
    g = solenoid_group(2)
    array = rademacher_array(g, K=linear(1.0), angle=power(1.0, -0.5))
    n = 10**6
    chars = tuple(character(g, ell, d) for d in (0, 1, 2) for ell in range(-3, 4))
    fts = dict(zip(chars, row_ft_exact(array, (n,), chars)[0]))
    worst = max(abs(fts[chi] - math.exp(-(chi.ell**2) / 2.0 ** (2 * chi.d + 1))) for chi in chars)
    spot = abs(fts[character(g, 1, 1)] - math.exp(-0.125))
    ok = worst <= 5e-4 and spot <= 5e-4
    return ok, f"max |FT - exp(-l^2/2^(2d+1))| = {worst:.3g} (<= 5e-4)"


def criterion_6():
    """Equivalence of the three characterizations on five symmetric torus
    instances: three convergent, two divergent, verdicts mutually
    consistent on each.  check_theorem's symmetric-CLT branch judges all
    three routes: the FT distance, the moment gaps (char_gap) and the Levy
    conditions (var_sum and tail_sum)."""
    g = torus_group()

    def three_point(n: int):
        x = from_angle(g, 1.0 / math.sqrt(n))
        return row_distribution(g, [(x, 0.25), (neg(x), 0.25), (identity(g), 0.5)])

    instances = [
        (rademacher_array(g, K=linear(1.0), angle=power(1.0, -0.5)), 1.0, True),
        (rademacher_array(g, K=linear(1.0), angle=power(0.5, -0.5)), 0.25, True),
        (iid_symmetric_array(g, three_point, K=linear(1.0)), 0.5, True),
        (rademacher_array(g, K=linear(1.0), angle=power(1.0, -0.25)), 1.0, False),
        (rademacher_array(g, K=linear(1.0), angle=power(1.0, -0.1)), 1.0, False),
    ]
    details = []
    ok = True
    for i, (array, b, should_pass) in enumerate(instances, start=1):
        report = check_theorem(array, gauss_law(g, b))

        def route(*families: str) -> bool:
            return all(c.passed for c in report.conditions if c.name.partition("[")[0] in families)

        verdicts = (report.ft_passed, route("char_gap"), route("var_sum", "tail_sum"))
        ok = ok and verdicts == (should_pass,) * 3
        details.append(f"#{i}:{'/'.join('P' if v else 'F' for v in verdicts)}")
    return ok, "routes (ft/moment/levy) " + " ".join(details)


def criterion_7():
    """Measure-factor identities on 1e3 random finite Levy measures per
    group: shift identity, convolution multiplicativity, parallelogram."""
    rng = np.random.default_rng(20240117)
    worst_shift = 0.0
    worst_conv = 0.0
    groups = (torus_group(), padic_group(2), solenoid_group(2, depth=6))
    for g in groups:
        chars = _spread_chars(g)
        for _ in range(1000):
            eta = validate_levy(_random_measure(g, rng, allow_identity=False))
            mu1 = _random_measure(g, rng, allow_identity=True)
            mu2 = _random_measure(g, rng, allow_identity=True)
            conv = convolve(mu1, mu2)
            at_m = char_eval_block(g, chars, element_block(local_mean(eta)))[0].tolist()
            for lhs, gp, z in zip(cpoisson_ft(eta, chars), genpoisson_ft(eta, chars), at_m):
                worst_shift = max(worst_shift, abs(lhs - gp * z))
            fts = zip(measure_ft(conv, chars), measure_ft(mu1, chars), measure_ft(mu2, chars))
            for z, z1, z2 in fts:
                worst_conv = max(worst_conv, abs(z - z1 * z2))
    parallelogram_ok = _parallelogram_exact()
    ok = worst_shift <= 1e-10 and worst_conv <= 1e-10 and parallelogram_ok
    return ok, (
        f"shift gap {worst_shift:.2g}, convolution gap {worst_conv:.2g} (<= 1e-10), "
        f"parallelogram exact: {parallelogram_ok}"
    )


def _spread_chars(g):
    if g.kind == "torus":
        return [character(g, l) for l in (-5, -1, 1, 2, 7)]
    if g.kind == "padic":
        return [character(g, 1, 0), character(g, 3, 1), character(g, 5, 2)]
    return [character(g, 1, 0), character(g, -2, 1), character(g, 3, 2)]


def _random_measure(g, rng, allow_identity: bool):
    k = int(rng.integers(1, 5))
    atoms = []
    for _ in range(k):
        w = float(rng.uniform(0.05, 2.0))
        if g.kind == "padic":
            lo = 0 if allow_identity else 1
            atoms.append((from_int(g, int(rng.integers(lo, 4096))), w))
        else:
            t = float(rng.uniform(-0.5, 0.5))
            if not allow_identity and abs(t) < 1e-6:
                t += 0.25
            atoms.append((from_turns(g, t), w))
    return discrete_measure(g, atoms)


def _parallelogram_exact() -> bool:
    """Q(l1 + l2) + Q(l1 - l2) = 2 (Q(l1) + Q(l2)) exactly, for every torus
    pair |l| <= 12 and for solenoid pairs of different depths, through
    their common refinement."""
    gt, gs = torus_group(), solenoid_group(2, depth=6)
    pairs = [(gt, 0, l1, 0, l2) for l1 in range(-12, 13) for l2 in range(-12, 13)]
    pairs += [
        (gs, d1, l1, d2, l2)
        for d1, l1 in ((0, 3), (1, 2), (2, 5))
        for d2, l2 in ((0, 1), (1, 3), (2, 7))
    ]
    for b in (0.25, 0.5, 1.0, 2.0):
        for g, d1, l1, d2, l2 in pairs:
            q, d = QuadraticFormParam(g, b), max(d1, d2)
            r1, r2 = l1 * 2 ** (d - d1), l2 * 2 ** (d - d2)
            lhs = qform_eval(q, character(g, r1 + r2, d)) + qform_eval(q, character(g, r1 - r2, d))
            rhs = 2.0 * (qform_eval(q, character(g, l1, d1)) + qform_eval(q, character(g, l2, d2)))
            if lhs != rhs:
                return False
    return True


def _own_character(kernel, group, ells, ds, values) -> np.ndarray:
    """kernel(group, (chi,), .) of every block value at its own character
    chi = character(group, ell, d), one kernel call per distinct character;
    complex, so that it holds char_eval_block and local_inner_block values."""
    out = np.zeros(len(values), dtype=complex)
    for ell, d in set(zip(ells.tolist(), ds.tolist())):
        at = np.flatnonzero((ells == ell) & (ds == d))
        out[at] = kernel(group, (character(group, ell, d),), values[at]).ravel()
    return out


def _candidates(rng, group, size: int):
    """`size` candidate samples of criterion 8 as columns (ells, depths,
    block values), drawn where the character equals the exponential of the
    local inner product: |arg| <= pi/2 on the torus, the base-coordinate
    angle within pi/2 of chi's coordinate on the solenoid, and lambda(d+1),
    where chi is 1, on padic groups."""
    d = np.zeros(size, dtype=np.int64) if group.kind == TORUS else rng.integers(0, 4, size)
    if group.kind == PADIC:
        ells = rng.integers(0, 2 ** (d + 1))
        free = rng.integers(0, 2 ** (group.depth - d))
        return ells, d, free * 2 ** (d + 1) % group.modulus
    ells = rng.integers(-8, 9, size)
    half = math.pi / (2 * 2.0**d)
    turns = rng.uniform(-half, half) / TWO_PI / 2.0 ** (group.depth - d)
    return ells, d, reduce_turns_block(turns)


def criterion_8():
    """Two-sided moment inequality, sampled where the character equals the
    exponential of the local inner product and |g| <= pi/2.

    Angles are kept >= 1e-3 so the comparison is not dominated by the
    floating cancellation of 1 - cos at machine scale.  The samples are
    drawn as vectors and evaluated with the block kernels.
    """
    rng = np.random.default_rng(8)
    total = violations = 0
    for group, need in (
        (torus_group(), 40_000),
        (padic_group(2), 20_000),
        (solenoid_group(2, depth=8), 40_000),
    ):
        kept, have = [], 0
        while have < need:  # the first `need` candidates inside the band
            columns = _candidates(rng, group, 2 * (need - have))
            if group.kind != PADIC:  # padic g is 0: no band to keep to
                g = np.abs(_own_character(local_inner_block, group, *columns).real)
                columns = [column[(1e-3 <= g) & (g <= math.pi / 2)] for column in columns]
            kept.append(columns)
            have += len(columns[0])
        columns = [np.concatenate(column)[:need] for column in zip(*kept)]
        g = _own_character(local_inner_block, group, *columns).real
        one_minus = 1.0 - _own_character(char_eval_block, group, *columns).real
        inside = (0.25 * g * g <= one_minus) & (one_minus <= 0.5 * g * g)
        total += len(g)
        violations += len(g) - int(np.count_nonzero(inside))
    ok = violations == 0 and total >= 100_000
    return ok, f"{violations} violations in {total} samples"


def criterion_9():
    """Compound-growth oracle: (1 + a/n)^n within relative 1e-4 of exp(a)
    at n=1e6, and exactly 0 at a=-n."""
    n = 10**6
    worst = 0.0
    for a in range(-5, 6):
        rel = abs(compound_growth(float(a), n) - math.exp(a)) / math.exp(a)
        worst = max(worst, rel)
    exact_zero = compound_growth(-float(n), n) == 0.0
    ok = worst <= 1e-4 and exact_zero
    return ok, f"max rel err {worst:.3g} (<= 1e-4), exact zero at alpha=-n: {exact_zero}"


def criterion_10():
    """Monte Carlo cross-validation of the exact engine on the criterion-1
    and criterion-3 arrays with a pinned seed, including bit-identical
    reruns."""
    M = 100_000
    bound = 4.0 / math.sqrt(M)
    n = 10**3
    worst = 0.0
    identical = True
    cases = [
        (_torus_clt_array(), [character(torus_group(), l) for l in (1, 2, 3)]),
        (_padic_poisson_array(), _padic_chars(padic_group(2), 2)),
    ]
    for idx, (array, chars) in enumerate(cases):
        stream = SeededStream(42).child(idx)
        est = empirical_ft(array, n, chars, M, stream)
        rerun = empirical_ft(array, n, chars, M, stream)
        identical = identical and est.estimates == rerun.estimates
        for emp, exact in zip(est.estimates, row_ft_exact(array, (n,), est.chars)[0]):
            worst = max(worst, abs(emp - exact))
    ok = worst <= bound and identical
    return ok, f"max |emp - exact| = {worst:.4g} (<= {bound:.4g}), rerun identical: {identical}"


def criterion_11():
    """Cylinder-mass convergence for the criterion-3 array: the row sums of
    the cylinder probabilities match the Levy cylinder masses for every
    coset of rank <= 3, at every grid point."""
    array = _padic_poisson_array()
    g = array.group
    eta = scale_measure(point_mass(array.x(1)), 2.0)
    cylinders = [(from_int(g, res), r) for r in (1, 2, 3) for res in range(1, 2**r)]
    targets = cylinder_mass(eta, cylinders)
    grid = (100, 1_000, 10_000, 100_000, 1_000_000)
    worst = max(
        abs(v - target)
        for values in sum_cylinder(array, grid, cylinders)
        for v, target in zip(values, targets)
    )
    ok = worst <= 1e-9
    return ok, f"max |row cylinder sum - levy cylinder mass| = {worst:.3g} (<= 1e-9)"


CRITERIA = (
    ("criterion-01 torus Rademacher CLT", criterion_1),
    ("criterion-02 torus Haar limit", criterion_2),
    ("criterion-03 2-adic Bernoulli Poisson", criterion_3),
    ("criterion-04 2-adic Bernoulli Haar", criterion_4),
    ("criterion-05 solenoid Rademacher CLT", criterion_5),
    ("criterion-06 symmetric equivalence suite", criterion_6),
    ("criterion-07 measure-factor identities", criterion_7),
    ("criterion-08 moment inequality band", criterion_8),
    ("criterion-09 compound-growth oracle", criterion_9),
    ("criterion-10 Monte Carlo cross-validation", criterion_10),
    ("criterion-11 cylinder convergence", criterion_11),
)


def run_all():
    out = []
    for name, fn in CRITERIA:
        passed, detail = fn()
        out.append((name, passed, detail))
    return out
