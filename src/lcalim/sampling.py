"""Seeded Monte Carlo simulation of row sums and limit laws, with
empirical characteristic functions to cross-validate the exact engine.
Row sums and limit laws are drawn the same way on all three groups, as
blocks of the group's block_dtype.

An estimate over M replicates runs in fixed blocks of BLOCK_SIZE
replicates.  Block j draws all of its replicates as numpy vectors from
one generator, that of the derived stream (path + (j,)), and the block
sums merge in block order, so results depend only on the configuration
and the seed.  Each character is evaluated once per bitwise distinct draw
of a group of blocks, not once per draw: the row sums of a Bernoulli or
Rademacher array take about 10 to 100 values in a block of 1024, and a
block's sum comes out with the same bits either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import MAX_TEMP, TriangularArray
from .groups import (
    PADIC,
    SUBGROUP_CYCLIC,
    Character,
    CompactSubgroup,
    add_block,
    base_turns,
    block_dtype,
    char_eval_block,
    element_value,
    neg,
    reduce_turns_block,
    scale_block,
)
from .measures import LimitLaw, local_mean
from .verify import ConfigError

DEFAULT_DIRECT_BUDGET = 10_000_000
BLOCK_SIZE = 1024  # replicates per block; fixed, so results never depend on it


class SamplingBudgetError(ConfigError):
    """A direct (per-entry) row-sum draw would exceed the sampling budget:
    a config that `sample` refuses, with exit code 2."""


@dataclass(frozen=True)
class SeededStream:
    """A reproducible random stream identified by a master seed and a
    derivation path; distinct paths give independent-quality streams."""

    master: int
    path: tuple[int, ...] = ()

    def child(self, *indices: int) -> "SeededStream":
        return SeededStream(self.master, self.path + indices)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.master, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(ss))


def _combine(group, counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Block of sums over atoms of count * atom; column a of counts holds
    the counts of the atom values[a]."""
    out = np.zeros(len(counts), dtype=block_dtype(group))
    for a, v in enumerate(values.tolist()):
        out = add_block(group, out, scale_block(group, counts[:, a], v))
    return out


def _row_sampler(array: TriangularArray, n: int):
    """A function (gen, size) -> block of `size` independent row sums of
    row n.

    For a row of one entry taken K_n times (an i.i.d. row) the atom counts
    are drawn in one multinomial shot and combined as count * atom, so the
    cost is independent of K_n (numpy draws one atom's counts without
    randomness, and two atoms' as one binomial per replicate).  Other rows
    are drawn entry by entry, subject to DEFAULT_DIRECT_BUDGET, from atom
    and cumulative-weight tables built once from the packed row.
    """
    g = array.group
    K = array.row_count(n)
    row = array.packed(n)
    if len(row.starts) == 1:
        pvals = (row.weights / row.masses()).tolist()
        return lambda gen, size: _combine(g, gen.multinomial(K, pvals, size=size), row.values)

    if K > DEFAULT_DIRECT_BUDGET:
        raise SamplingBudgetError(
            f"row n={n}: direct sampling of K_n={K} entries exceeds budget {DEFAULT_DIRECT_BUDGET}"
        )
    # one table row per packed entry; entry k of the row is table row
    # k // copies
    counts = np.diff(row.starts, append=len(row.values))
    width = int(counts.max(initial=1))
    entry = np.repeat(np.arange(len(counts)), counts)
    slot = np.arange(len(row.values)) - row.starts[entry]
    vals = np.zeros((len(counts), width), dtype=block_dtype(g))
    vals[entry, slot] = row.values
    probs = np.zeros((len(counts), width))
    # over each entry's mass, the sum total_mass takes of its row law
    probs[entry, slot] = row.weights / np.repeat(row.masses(), counts)
    # entry k with uniform u takes the atom whose index is the number of
    # boundaries cum[k, :] <= u; boundaries past an entry's second-to-last
    # atom stay +inf, so its last atom also takes any rounding remainder
    cum = np.cumsum(probs[:, :-1], axis=1)
    cum[np.arange(width - 1) >= counts[:, None] - 1] = np.inf

    def draw_entries(gen, size):
        out = np.zeros(size, dtype=block_dtype(g))
        step = max(1, MAX_TEMP // size)
        for k0 in range(0, K, step):
            k1 = min(k0 + step, K)
            rows = np.arange(k0, k1) // row.copies
            u = gen.random((size, k1 - k0))
            idx = np.zeros(u.shape, dtype=np.intp)
            for a in range(width - 1):
                idx += u >= cum[rows, a]
            out = add_block(g, out, vals[rows, idx].sum(axis=1))
        return out

    return draw_entries


def _haar_block(H: CompactSubgroup, gen: np.random.Generator, size: int) -> np.ndarray:
    """A block of draws from the normalized Haar measure of a compact
    subgroup: on padic groups the residues that are multiples of p^r
    (lambda(r); the full group is lambda(0)), on a cyclic subgroup the r-th
    roots, and on the full torus or solenoid uniform turns of the deepest
    coordinate, whose image in every coordinate is uniform too."""
    g = H.group
    if H.is_trivial():
        return np.zeros(size, dtype=block_dtype(g))
    if g.kind == PADIC:  # a "full" padic subgroup has r = 0
        # digits r..depth, `width` digits per draw: numpy draws integers
        # below at most 2^63, so p^(depth + 1 - r) up to that is one draw
        out, unit, left = np.zeros(size, dtype=block_dtype(g)), g.p**H.r, g.depth + 1 - H.r
        width = max(m for m in range(1, 64) if g.p**m <= 2**63)
        while left > 0:
            m = min(width, left)
            out = out + gen.integers(g.p**m, size=size).astype(block_dtype(g)) * unit
            unit, left = unit * g.p**m, left - m
        return out
    if H.kind == SUBGROUP_CYCLIC:
        return reduce_turns_block(gen.integers(H.r, size=size) / H.r)
    return reduce_turns_block(gen.random(size) - 0.5)


def _law_sampler(law: LimitLaw):
    """A function (gen, size) -> block of `size` independent draws from
    the quadruplet law, by independent factor draws.

    The Gauss factor is the image of a real normal angle theta with
    variance b on the branch-0 tower over arg y_0 = theta: the wrapped
    normal on the torus, and on the solenoid the deepest coordinate
    theta / (2 pi p^depth), which every character chi_{d,l} with d <= depth
    sees as exp(i l theta / p^d), so the draws' FT is the Gauss factor at
    every character.  The generalized Poisson factor is a compound Poisson
    draw shifted by the negated local mean.
    """
    g = law.group
    a = element_value(law.a)
    sigma = math.sqrt(law.b.b)
    rates = law.eta.weights.tolist()
    eta_shift = element_value(neg(local_mean(law.eta)))

    def draw(gen, size):
        out = add_block(g, _haar_block(law.H, gen, size), a)
        if sigma > 0.0:
            theta = gen.normal(0.0, sigma, size=size)
            out = add_block(g, out, reduce_turns_block(base_turns(g, theta)))
        if rates:
            counts = np.stack([gen.poisson(w, size=size) for w in rates], axis=1)
            out = add_block(g, out, add_block(g, _combine(g, counts, law.eta.values), eta_shift))
        return out

    return draw


@dataclass(frozen=True)
class EmpiricalFT:
    """Monte Carlo estimate of the row-sum FT on a character set."""

    chars: tuple[Character, ...]
    estimates: tuple[complex, ...]
    replicates: int

    @property
    def stderr(self) -> float:
        """Per-character error scale for modulus-one summands."""
        return 1.0 / math.sqrt(self.replicates)


def _estimate(draw, group, chars, M: int, stream: SeededStream) -> EmpiricalFT:
    """Average chi over M draws, block j of BLOCK_SIZE drawn from the
    derived stream (path + (j,)), merging block sums in block order.
    Blocks are drawn in groups of at most MAX_TEMP // 4 draws x characters,
    each character is evaluated once per bitwise distinct draw of a group
    (-0.0 and +0.0 apart), and a block's rows are picked from those values."""
    if M < 1:
        raise ValueError("need at least one replicate")
    chars = tuple(chars)
    total = np.zeros(len(chars), dtype=complex)
    step = BLOCK_SIZE * max(1, MAX_TEMP // 4 // (BLOCK_SIZE * max(1, len(chars))))
    for lo in range(0, M, step):
        drawn = np.concatenate([
            draw(stream.child(j // BLOCK_SIZE).generator(), min(BLOCK_SIZE, M - j))
            for j in range(lo, min(lo + step, M), BLOCK_SIZE)
        ])
        keys = drawn.view(np.int64) if drawn.dtype == np.float64 else drawn
        distinct, inverse = np.unique(keys, return_inverse=True)
        values = char_eval_block(group, chars, distinct.view(drawn.dtype))
        for a in range(0, len(drawn), BLOCK_SIZE):
            total += values.take(inverse[a : a + BLOCK_SIZE], axis=0).sum(axis=0)
    return EmpiricalFT(chars, tuple(complex(z) for z in total / M), M)


def empirical_ft(
    array: TriangularArray, n: int, chars, M: int, stream: SeededStream
) -> EmpiricalFT:
    """Estimate the row-sum FT by averaging chi over M independent row-sum
    draws."""
    return _estimate(_row_sampler(array, n), array.group, chars, M, stream)


def empirical_law_ft(law: LimitLaw, chars, M: int, stream: SeededStream) -> EmpiricalFT:
    """Estimate the law's FT by averaging chi over M independent draws."""
    return _estimate(_law_sampler(law), law.group, chars, M, stream)
