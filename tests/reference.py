"""Scalar references: the element-at-a-time kernels, element rules and
arithmetic, and the atom-loop law statistics that lcalim computed before
every kernel and element rule became a one-value call of its block twin
and every law statistic a per-entry body over a measure's table; the torus
and padic distances that the mean gap and the null rule read before the
solenoid's tower gauge took their place; the branch-per-atom-count draw of an i.i.d. row's atom counts; and the Monte
Carlo estimator that evaluated every character at every draw.  The tests
hold the package to these bit for bit.

A measure is read here through atoms(mu), its (element, weight) pairs in
table order.
"""

import cmath
import math

import numpy as np

from lcalim.groups import (
    ATOM_TOL_TURNS,
    PADIC,
    TORUS,
    TWO_PI,
    DepthOverflowError,
    GroupElement,
    GroupMismatchError,
    annihilator_contains,
    char_eval_block,
    identity,
)
from lcalim.measures import cylinder_modulus, gauss_ft
from lcalim.sampling import BLOCK_SIZE


def _sum(terms, start=0.0):
    """The terms added one by one from start: the order of sum() up to
    Python 3.11 (from 3.12 on, sum() compensates float rounding)."""
    for term in terms:
        start = start + term
    return start


def element(group, v) -> GroupElement:
    """The element that the block entry v stands for."""
    if group.kind == PADIC:
        return GroupElement(group, residue=int(v))
    return GroupElement(group, turns=float(v))


def reduce_turns(t: float) -> float:
    """Reduce a turn count into the canonical interval [-1/2, 1/2)."""
    r = t - math.floor(t + 0.5)
    # floor() at the upper boundary can round back to exactly +1/2
    if r >= 0.5:
        r -= 1.0
    # from 2^52 on, t + 0.5 rounds half to even: an odd integral t gives -1
    if r < -0.5:
        r += 1.0
    return r


def same_value(group, u, v) -> bool:
    """same_block of one pair of entries, without numpy."""
    if group.kind == PADIC:
        return u == v
    return min(abs(u - v), (0.5 - abs(u)) + (0.5 - abs(v))) * group.base_scale <= ATOM_TOL_TURNS


def elements_close(x: GroupElement, y: GroupElement) -> bool:
    def value(z):
        return z.residue if z.group.kind == PADIC else z.turns

    return x.group == y.group and same_value(x.group, value(x), value(y))


def from_turns(group, t: float) -> GroupElement:
    if group.kind == PADIC:
        raise ValueError("padic elements are built from digits, not angles")
    return GroupElement(group, turns=reduce_turns(t))


def from_angle(group, theta: float) -> GroupElement:
    return from_turns(group, theta / TWO_PI)


def from_base_angle(group, theta: float) -> GroupElement:
    return from_turns(group, theta / TWO_PI / group.base_scale)


def add(x: GroupElement, y: GroupElement) -> GroupElement:
    if x.group != y.group:
        raise GroupMismatchError("elements on different groups")
    if x.group.kind == PADIC:
        return GroupElement(x.group, residue=(x.residue + y.residue) % x.group.modulus)
    return GroupElement(x.group, turns=reduce_turns(x.turns + y.turns))


def neg(x: GroupElement) -> GroupElement:
    if x.group.kind == PADIC:
        return GroupElement(x.group, residue=(-x.residue) % x.group.modulus)
    return GroupElement(x.group, turns=reduce_turns(-x.turns))


def scale(k: int, x: GroupElement) -> GroupElement:
    if x.group.kind == PADIC:
        return GroupElement(x.group, residue=(k * x.residue) % x.group.modulus)
    return GroupElement(x.group, turns=reduce_turns(k * x.turns))


def padic_metric(x: GroupElement, y: GroupElement) -> float:
    """2^-m, m the least index of a differing digit; 0 when equal."""
    if x.group != y.group:
        raise GroupMismatchError("elements on different groups")
    if x.group.kind != PADIC:
        raise ValueError("padic_metric expects padic elements")
    diff = (x.residue - y.residue) % x.group.modulus
    if diff == 0:
        return 0.0
    m = 0
    while diff % x.group.p == 0:
        diff //= x.group.p
        m += 1
    return 2.0**-m


def tower_gauge(x: GroupElement, y: GroupElement, turn: float = 1.0) -> float:
    """The padic metric, or the largest |turns| over the coordinates
    y_0..y_depth of x - y, walked in plain Python, times turn."""
    if x.group != y.group:
        raise GroupMismatchError("elements on different groups")
    if x.group.kind == PADIC:
        return padic_metric(x, y)
    t = reduce_turns(x.turns - y.turns)
    gauge = abs(t)
    for _ in range(x.group.depth):
        t = reduce_turns(t * x.group.p)
        gauge = max(gauge, abs(t))
    return gauge * turn


def atoms(mu):
    """The (element, weight) pairs of a measure's table, in table order."""
    return [(element(mu.group, v), w) for v, w in zip(mu.values.tolist(), mu.weights.tolist())]


def merged_atoms(group, pairs):
    """The atoms that discrete_measure keeps: zero weights dropped, and each
    atom merged into the first kept atom close to it, in input order."""
    merged = []
    for x, w in pairs:
        if x.group != group:
            raise GroupMismatchError("atom on a different group than the measure")
        w = float(w)
        if w < 0.0:
            raise ValueError(f"negative atom weight {w}")
        if w == 0.0:
            continue
        for i, (y, v) in enumerate(merged):
            if elements_close(x, y):
                merged[i] = (y, v + w)
                break
        else:
            merged.append((x, w))
    return merged


def is_symmetric(mu) -> bool:
    """Invariance under x -> -x, atom by atom."""
    pairs = atoms(mu)
    return all(
        any(elements_close(neg(x), y) and abs(w - v) <= 1e-12 for y, v in pairs)
        for x, w in pairs
    )


def element_distance(x: GroupElement, a: GroupElement) -> float:
    """The torus and padic distance of x from a: the angle of the
    difference, or the padic metric."""
    if x.group.kind == PADIC:
        return padic_metric(x, a)
    if x.group.kind != TORUS:
        raise ValueError("the reference distance covers the torus and padic groups")
    return abs(reduce_turns(x.turns - a.turns)) * 2.0 * math.pi


def null_gauge(x: GroupElement) -> float:
    """The torus and padic gauge of a Rademacher element x_n in the null
    rule: its padic metric or its |turns|."""
    if x.group.kind == PADIC:
        return padic_metric(x, identity(x.group))
    if x.group.kind != TORUS:
        raise ValueError("the reference gauge covers the torus and padic groups")
    return abs(x.turns - 0.0)


def iid_counts(gen, K: int, pvals, size: int):
    """The atom counts of `size` i.i.d. rows of K entries with atom
    probabilities pvals: K on one atom, one binomial per row for two atoms,
    one multinomial draw otherwise."""
    if len(pvals) == 1:
        return np.full((size, 1), K, dtype=np.int64)
    if len(pvals) == 2:
        c = gen.binomial(K, pvals[0], size=size)
        return np.stack([c, K - c], axis=1)
    return gen.multinomial(K, pvals, size=size)


def estimate(draw, group, chars, M: int, stream) -> tuple[complex, ...]:
    """The estimates of chi over M draws: block j of BLOCK_SIZE drawn from
    the stream's child (j,), every character evaluated at every draw of the
    block, and the block's sum added to the total in block order."""
    chars = tuple(chars)
    total = np.zeros(len(chars), dtype=complex)
    for j, lo in enumerate(range(0, M, BLOCK_SIZE)):
        block = draw(stream.child(j).generator(), min(BLOCK_SIZE, M - lo))
        total += char_eval_block(group, chars, block).sum(axis=0)
    return tuple(complex(z) for z in total / M)


def cis_turns(t: float) -> complex:
    """exp(2 pi i t) for t in turns, folded to the nearest quarter turn."""
    t = reduce_turns(t)
    q = round(4.0 * t)
    a = TWO_PI * (t - 0.25 * q)
    c, s = math.cos(a), math.sin(a)
    q %= 4
    if q == 0:
        return complex(c, s)
    if q == 1:
        return complex(-s, c)
    if q == 2:
        return complex(-c, -s)
    return complex(s, -c)


def coordinate_turns(x: GroupElement, j: int) -> float:
    """Turn count of the coordinate y_j of a torus or solenoid element, by
    repeated multiply-by-p-and-reduce steps from the deepest coordinate."""
    if x.group.kind == PADIC:
        raise ValueError("coordinates only defined for torus and solenoid elements")
    if not 0 <= j <= x.group.depth:
        raise DepthOverflowError(f"coordinate {j} beyond working depth {x.group.depth}")
    t = x.turns
    for _ in range(x.group.depth - j):
        t = reduce_turns(t * x.group.p)
    return t


def coordinate_arg(x: GroupElement, j: int) -> float:
    return TWO_PI * coordinate_turns(x, j)


def h_trunc(t: float) -> float:
    if t < -math.pi or t >= math.pi:
        return 0.0
    if t < -math.pi / 2:
        return -t - math.pi
    if t < math.pi / 2:
        return t
    return math.pi - t


def char_eval(chi, x: GroupElement) -> complex:
    if chi.group != x.group:
        raise GroupMismatchError("character and element on different groups")
    g = x.group
    if g.kind == TORUS:
        return cis_turns(chi.ell * x.turns)
    if chi.d > g.depth:
        raise DepthOverflowError(f"character depth {chi.d} beyond working depth {g.depth}")
    if g.kind == PADIC:
        q = g.p ** (chi.d + 1)
        return cis_turns(((chi.ell * (x.residue % q)) % q) / q)
    return cis_turns(chi.ell * coordinate_turns(x, chi.d))


def local_inner(x: GroupElement, chi) -> float:
    if chi.group != x.group:
        raise GroupMismatchError("character and element on different groups")
    g = x.group
    if g.kind == TORUS:
        return chi.ell * h_trunc(TWO_PI * x.turns)
    if g.kind == PADIC:
        return 0.0
    return chi.ell * h_trunc(coordinate_arg(x, 0)) / g.p**chi.d


def in_nbhd(x: GroupElement, U) -> bool:
    if x.group != U.group:
        raise GroupMismatchError("element and neighborhood on different groups")
    if x.group.kind == TORUS:
        return abs(TWO_PI * x.turns) < U.eps
    if x.group.kind == PADIC:
        return x.residue % x.group.p**U.rank == 0
    return all(abs(coordinate_arg(x, j)) < U.eps for j in range(U.d + 1))


def measure_ft(mu, chi) -> complex:
    return _sum((w * char_eval(chi, x) for x, w in atoms(mu)), complex(0.0))


def cpoisson_ft(eta, chi) -> complex:
    expo = _sum((w * (char_eval(chi, x) - 1.0) for x, w in atoms(eta)), complex(0.0))
    return cmath.exp(expo)


def genpoisson_ft(eta, chi) -> complex:
    expo = _sum(
        (w * (char_eval(chi, x) - 1.0 - 1j * local_inner(x, chi)) for x, w in atoms(eta)),
        complex(0.0),
    )
    return cmath.exp(expo)


def local_mean(mu) -> GroupElement:
    g = mu.group
    if g.kind == PADIC:
        return identity(g)
    if g.kind == TORUS:
        return from_angle(g, _sum(w * h_trunc(TWO_PI * x.turns) for x, w in atoms(mu)))
    s = _sum(w * h_trunc(coordinate_arg(x, 0)) for x, w in atoms(mu))
    return from_turns(g, s / (2.0 * math.pi) / g.p**g.depth)


def tail_mass_measure(eta, U) -> float:
    return _sum(w for x, w in atoms(eta) if not in_nbhd(x, U))


def cylinder_mass(eta, x: GroupElement, r: int) -> float:
    q = cylinder_modulus(eta.group, x, r)
    return _sum(w for y, w in atoms(eta) if (y.residue - x.residue) % q == 0)


def second_moment(eta, chi) -> float:
    """The integral of g(., chi)^2 under eta; squares are products, as in
    the vector pass (libm's pow(x, 2) can be one ulp off x * x)."""
    return _sum(w * (local_inner(x, chi) * local_inner(x, chi)) for x, w in atoms(eta))


def limit_law_ft(law, chi) -> complex:
    if law.group != chi.group:
        raise GroupMismatchError("law and character on different groups")
    if not annihilator_contains(law.H, chi):
        return complex(0.0)
    return char_eval(chi, law.a) * gauss_ft(law.b, chi) * genpoisson_ft(law.eta, chi)
