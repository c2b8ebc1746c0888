"""Finite discrete measures as tables, and the Fourier transforms of every
factor of the limit laws: Haar measure on a compact subgroup, point mass,
symmetric Gauss measure, and (generalized) compound Poisson measure.

A PackedRow is a table of entries, each a measure given by its atoms (a
block of the group's block_dtype) and their weights; a DiscreteMeasure is
its one-entry form.  Every law statistic is the PackedRow per-entry body
that the exact engine runs over the rows of an array, applied to the
measure's one entry, and takes an item set (characters, neighborhoods or
cylinders), returning one value per item.

Levy measures are kept finite and discrete throughout; that makes the
generalized Poisson factor computable in closed form as a shifted compound
Poisson measure, and every theorem instance exercised here uses only
finite measures.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import (  # ATOM_TOL_TURNS stays importable from here
    ATOM_TOL_TURNS,
    PADIC,
    Character,
    CompactSubgroup,
    DepthOverflowError,
    GroupElement,
    GroupId,
    GroupMismatchError,
    add_block,
    annihilator_contains,
    base_turns,
    block_dtype,
    char_eval_block,
    element_block,
    element_value,
    from_turns,
    h_arg_block,
    identity,
    in_nbhd_block,
    local_inner_block,
    same_block,
    trivial_subgroup,
)


@dataclass(frozen=True, eq=False)
class PackedRow:
    """A table of entries: entry k has the atoms
    values[starts[k]:starts[k + 1]] with the weights at the same positions,
    and the table stands for `copies` independent copies of every entry.
    The statistics return one value per entry (on the last axis) per item."""

    group: GroupId
    values: np.ndarray
    weights: np.ndarray
    starts: np.ndarray
    copies: int = 1

    @cached_property
    def _groups(self) -> list:
        """The entries grouped by atom count m: (entries, their atoms'
        positions as an entries x m array, m), or (all, None, m) when every
        entry has m atoms and a reshape lines them up."""
        counts = np.diff(self.starts, append=len(self.values))
        widths = sorted(set(counts.tolist()))
        if len(widths) == 1:
            return [(slice(None), None, widths[0])]
        groups = [(np.flatnonzero(counts == m), m) for m in widths]
        return [(e, self.starts[e, None] + np.arange(m), m) for e, m in groups]

    def entry_sums(self, x: np.ndarray) -> np.ndarray:
        """The sum over each entry's atoms of weight * x, for x given at
        every atom along its last axis: added atom by atom from 0, the
        order of a sequential sum over the atoms."""
        wx = np.multiply(self.weights, x, order="C")
        if len(self.starts) == 1:  # one entry (a measure, or an i.i.d. row)
            return _sequential_sums(wx)[..., None]
        out = np.empty(wx.shape[:-1] + (len(self.starts),), dtype=wx.dtype)
        for entries, at, m in self._groups:
            block = wx.reshape(wx.shape[:-1] + (len(self.starts), m)) if at is None else wx[..., at]
            out[..., entries] = _sequential_sums(block)
        return out

    def masses(self) -> np.ndarray:
        """The total weight of each entry, by entry_sums."""
        return self.entry_sums(1.0)

    def moments(self, chars) -> np.ndarray:
        """The entries' character moments, the sums of weight * chi(x)."""
        return self.entry_sums(char_eval_block(self.group, chars, self.values).T)

    def tail_masses(self, nbhds) -> np.ndarray:
        """The entries' masses outside each neighborhood."""
        return self.entry_sums(~in_nbhd_block(self.group, nbhds, self.values))

    def cylinder_masses(self, moduli) -> np.ndarray:
        """The entries' masses on the atoms congruent to x mod q, for every
        (residue x, modulus q) of moduli (padic tables)."""
        hits = np.array([(self.values - x) % q == 0 for x, q in moduli], dtype=bool)
        return self.entry_sums(hits.reshape(len(moduli), len(self.values)))

    def mean_turns(self) -> np.ndarray:
        """The local mean of each entry as the deepest coordinate's turns,
        not reduced mod 1 (torus and solenoid tables)."""
        theta = self.entry_sums(h_arg_block(self.group, self.values)[None])[0]
        return base_turns(self.group, theta)

    def g_moments(self, chars) -> tuple[np.ndarray, np.ndarray]:
        """The entries' first and second moments of g(., chi) per character;
        squares are products (libm's pow(x, 2) can be one ulp off x * x)."""
        inner = local_inner_block(self.group, chars, self.values)
        return self.entry_sums(inner), self.entry_sums(inner * inner)


def _sequential_sums(x: np.ndarray) -> np.ndarray:
    """The sums of x along its last axis, added one by one from 0."""
    total = np.zeros(x.shape[:-1], dtype=x.dtype)
    for a in range(x.shape[-1]):
        total += x[..., a]
    return total


_ONE_ENTRY = np.zeros(1, dtype=np.intp)
_ONE_ENTRY.flags.writeable = False


class DiscreteMeasure(PackedRow):
    """A finite nonnegative measure: a table of one entry, whose atoms are
    distinct and carry positive weights.  Build it with discrete_measure,
    which applies those rules."""

    def __init__(self, group: GroupId, values: np.ndarray, weights: np.ndarray) -> None:
        super().__init__(group, values, weights, _ONE_ENTRY)

    def total_mass(self) -> float:
        return self.masses().item()

    def is_probability(self) -> bool:
        return abs(self.total_mass() - 1.0) <= 1e-12


def _measure(group: GroupId, pairs) -> DiscreteMeasure:
    """The measure of the (block value, weight) pairs: negative weights
    rejected, zero weights dropped, and each atom merged into the first
    kept atom that is the same element (groups.same_block), in input
    order."""
    values, weights = [], []
    for v, w in pairs:
        w = float(w)
        if w < 0.0:
            raise ValueError(f"negative atom weight {w}")
        if w == 0.0:
            continue
        for i, u in enumerate(values):
            if same_block(group, v, u):
                weights[i] += w
                break
        else:
            values.append(v)
            weights.append(w)
    return DiscreteMeasure(
        group, np.array(values, dtype=block_dtype(group)), np.array(weights, dtype=float)
    )


def discrete_measure(group: GroupId, atoms) -> DiscreteMeasure:
    """The measure with the given (element, weight) atoms, by the rules of
    _measure."""

    def pairs():
        for x, w in atoms:
            if x.group != group:
                raise GroupMismatchError("atom on a different group than the measure")
            yield element_value(x), w

    return _measure(group, pairs())


def zero_measure(group: GroupId) -> DiscreteMeasure:
    return DiscreteMeasure(group, np.empty(0, dtype=block_dtype(group)), np.empty(0))


def point_mass(x: GroupElement, w: float = 1.0) -> DiscreteMeasure:
    return discrete_measure(x.group, [(x, w)])


def measure_ft(mu: DiscreteMeasure, chars) -> list[complex]:
    """Fourier transform of a bounded measure, the sum of w * chi(x), at
    every character."""
    return mu.moments(chars)[:, 0].tolist()


def scale_measure(mu: DiscreteMeasure, c: float) -> DiscreteMeasure:
    return _measure(mu.group, zip(mu.values.tolist(), (c * mu.weights).tolist()))


def convolve(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> DiscreteMeasure:
    """Convolution of two finite discrete measures; its FT is the product
    of the factors' FTs."""
    if mu1.group != mu2.group:
        raise GroupMismatchError("convolving measures on different groups")
    values = add_block(mu1.group, mu1.values[:, None], mu2.values[None, :])
    weights = np.multiply.outer(mu1.weights, mu2.weights)
    return _measure(mu1.group, zip(values.ravel().tolist(), weights.ravel().tolist()))


def validate_levy(eta: DiscreteMeasure) -> DiscreteMeasure:
    """Accept a discrete measure as a Levy measure: weights are already
    known nonnegative, so only the no-identity-atom rule is checked."""
    if same_block(eta.group, eta.values, 0).any():  # 0 is the identity's entry
        raise ValueError("Levy measure must put no mass at the identity")
    return eta


zero_levy = zero_measure


@dataclass(frozen=True)
class QuadraticFormParam:
    """Parameter b >= 0 of the group's one-parameter family of quadratic
    forms; the only quadratic form on a padic dual is 0."""

    group: GroupId
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.b < 0.0:
            raise ValueError("quadratic form parameter must be >= 0")
        if self.group.kind == PADIC and self.b != 0.0:
            raise ValueError("quadratic form must be 0 on p-adic groups")


def qform_eval(b: QuadraticFormParam, chi: Character) -> float:
    """b * ell^2 / p^(2d) on the torus (d = 0) and the solenoid, 0 on
    padic."""
    if b.group != chi.group:
        raise GroupMismatchError("quadratic form and character on different groups")
    if b.group.kind == PADIC:
        return 0.0
    return b.b * chi.ell**2 / b.group.p ** (2 * chi.d)


def gauss_ft(b: QuadraticFormParam, chi: Character) -> float:
    """FT of the symmetric Gauss measure: exp(-psi(chi)/2)."""
    return math.exp(-qform_eval(b, chi) / 2.0)


def _poisson_ft(eta: DiscreteMeasure, chars, generalized: bool) -> list[complex]:
    """exp of the integral of chi - 1, less i g(., chi) when generalized,
    at every character."""
    if any(chi.group != eta.group for chi in chars):
        raise GroupMismatchError("measure and character on different groups")
    gap = char_eval_block(eta.group, chars, eta.values).T - 1.0
    if generalized:
        gap = gap - 1j * local_inner_block(eta.group, chars, eta.values)
    return [cmath.exp(z) for z in eta.entry_sums(gap)[:, 0].tolist()]


def cpoisson_ft(eta: DiscreteMeasure, chars) -> list[complex]:
    """FT of the compound Poisson measure, exp(integral of (chi - 1)), at
    every character."""
    return _poisson_ft(eta, chars, False)


def local_mean(mu: DiscreteMeasure) -> GroupElement:
    """The element m with chi(m) = exp(i * integral of g(., chi) d mu) for
    every character, for the group's explicit local inner product."""
    if mu.group.kind == PADIC:
        return identity(mu.group)
    return from_turns(mu.group, mu.mean_turns().item())


def genpoisson_ft(eta: DiscreteMeasure, chars) -> list[complex]:
    """FT of the generalized Poisson measure,
    exp(integral of (chi - 1 - i g(., chi))), at every character."""
    return _poisson_ft(eta, chars, True)


def tail_mass_measure(eta: DiscreteMeasure, nbhds) -> list[float]:
    """Total weight outside each neighborhood of nbhds."""
    return eta.tail_masses(nbhds)[:, 0].tolist()


def cylinder_modulus(group: GroupId, x: GroupElement, r: int) -> int:
    """p^r, the modulus of the padic cylinder x + lambda(r) of the group,
    once the cylinder is checked to exist there."""
    if group.kind != PADIC:
        raise ValueError("cylinders only exist on padic groups")
    if x.group != group:
        raise GroupMismatchError("cylinder base on a different group")
    if not 0 <= r <= group.depth + 1:
        raise DepthOverflowError(f"cylinder rank {r} beyond working depth {group.depth}")
    return group.p**r


def cylinder_mass(eta: DiscreteMeasure, cylinders) -> list[float]:
    """Mass of each padic cylinder x + lambda(r) of cylinders, given as
    (x, r): the atoms agreeing with x in digits 0..r-1."""
    moduli = [(x.residue, cylinder_modulus(eta.group, x, r)) for x, r in cylinders]
    return eta.cylinder_masses(moduli)[:, 0].tolist()


@dataclass(frozen=True)
class LimitLaw:
    """Quadruplet law: Haar factor on H, shift a, Gauss factor with
    parameter b, generalized Poisson factor driven by the Levy measure
    eta."""

    H: CompactSubgroup
    a: GroupElement
    b: QuadraticFormParam
    eta: DiscreteMeasure

    def __post_init__(self) -> None:
        g = self.H.group
        if not (self.a.group == g and self.b.group == g and self.eta.group == g):
            raise GroupMismatchError("limit-law components on different groups")

    @property
    def group(self) -> GroupId:
        return self.H.group


def dirac_law(a: GroupElement) -> LimitLaw:
    g = a.group
    return LimitLaw(trivial_subgroup(g), a, QuadraticFormParam(g, 0.0), zero_levy(g))


def gauss_law(group: GroupId, b: float) -> LimitLaw:
    return LimitLaw(
        trivial_subgroup(group),
        identity(group),
        QuadraticFormParam(group, b),
        zero_levy(group),
    )


def haar_law(H: CompactSubgroup) -> LimitLaw:
    g = H.group
    return LimitLaw(H, identity(g), QuadraticFormParam(g, 0.0), zero_levy(g))


def compound_poisson_law(eta: DiscreteMeasure) -> LimitLaw:
    """The law of the compound Poisson measure e(eta) as a quadruplet:
    generalized Poisson factor plus the local-mean shift."""
    g = eta.group
    return LimitLaw(
        trivial_subgroup(g),
        local_mean(eta),
        QuadraticFormParam(g, 0.0),
        validate_levy(eta),
    )


def limit_law_ft(law: LimitLaw, chars) -> list[complex]:
    """FT of the quadruplet law at every character: the indicator of the
    annihilator of H times chi(a) times the Gauss and generalized Poisson
    factors."""
    if any(chi.group != law.group for chi in chars):
        raise GroupMismatchError("law and character on different groups")
    inside = [annihilator_contains(law.H, chi) for chi in chars]
    kept = [chi for chi, ok in zip(chars, inside) if ok]
    shifts = char_eval_block(law.group, kept, element_block(law.a))[0].tolist()
    fts = iter(
        shift * gauss_ft(law.b, chi) * gp
        for chi, shift, gp in zip(kept, shifts, genpoisson_ft(law.eta, kept))
    )
    return [next(fts) if ok else complex(0.0) for ok in inside]
