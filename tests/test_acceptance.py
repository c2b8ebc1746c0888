"""Acceptance suite: one test per criterion, each printing its pass/fail
line (run pytest with -s to see them inline)."""

import math

import numpy as np
import pytest

from lcalim import acceptance
from lcalim.acceptance import CRITERIA
from lcalim.groups import (
    char_eval,
    character,
    from_angle,
    from_int,
    from_turns,
    local_inner,
    padic_group,
    solenoid_group,
    torus_group,
)


@pytest.mark.parametrize("name,criterion", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_criterion(name, criterion):
    passed, detail = criterion()
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"{name}: {detail}"


def _scalar_band_samples(rng, torus, padic, solenoid):
    """The scalar loop that criterion 8 ran before it used the block
    kernels: per group, the accepted samples as (ell, d, element value,
    g(x, chi), 1 - Re chi(x))."""
    out = []
    gt = torus_group()
    samples = []
    while len(samples) < torus:
        theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
        ell = int(rng.integers(-8, 9))
        x = from_angle(gt, theta)
        gval = local_inner(x, character(gt, ell))
        if not 1e-3 <= abs(gval) <= math.pi / 2:
            continue
        samples.append((ell, 0, x.turns, gval, 1.0 - char_eval(character(gt, ell), x).real))
    out.append(samples)
    gp = padic_group(2)
    samples = []
    for _ in range(padic):
        d = int(rng.integers(0, 4))
        ell = int(rng.integers(0, 2 ** (d + 1)))
        chi = character(gp, ell, d)
        x = from_int(gp, int(rng.integers(0, 2 ** (gp.depth - d))) * 2 ** (d + 1))
        samples.append((ell, d, x.residue, local_inner(x, chi), 1.0 - char_eval(chi, x).real))
    out.append(samples)
    gs = solenoid_group(2, depth=8)
    samples = []
    while len(samples) < solenoid:
        d = int(rng.integers(0, 4))
        ell = int(rng.integers(-8, 9))
        u = float(rng.uniform(-math.pi / (2 * 2**d), math.pi / (2 * 2**d)))
        x = from_turns(gs, (u / (2 * math.pi)) / 2 ** (gs.depth - d))
        chi = character(gs, ell, d)
        gval = local_inner(x, chi)
        if not 1e-3 <= abs(gval) <= math.pi / 2:
            continue
        samples.append((ell, d, x.turns, gval, 1.0 - char_eval(chi, x).real))
    out.append(samples)
    return out


@pytest.mark.parametrize("seed", [8, 2024])
def test_moment_band_samples_match_scalar_loop(seed):
    # the same candidates, accepted in the same order, with the same g and
    # 1 - Re chi bits, and the generator left after the same draw
    rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = acceptance._band_samples(rng, 700, 300, 700)
    want = _scalar_band_samples(scalar_rng, 700, 300, 700)
    for (group, ells, ds, values), samples in zip(got, want):
        g, one_minus = acceptance._band_values(group, ells, ds, values)
        columns = [ells.tolist(), ds.tolist(), values.tolist(), g.tolist(), one_minus.tolist()]
        assert repr(columns) == repr([list(column) for column in zip(*samples)])
    assert rng.random() == scalar_rng.random()
    assert rng.integers(0, 17) == scalar_rng.integers(0, 17)
