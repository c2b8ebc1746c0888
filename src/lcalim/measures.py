"""Finite discrete measures and the Fourier transforms of every factor of
the limit laws: Haar measure on a compact subgroup, point mass, symmetric
Gauss measure, and (generalized) compound Poisson measure.

Levy measures are kept finite and discrete throughout; that makes the
generalized Poisson factor computable in closed form as a shifted compound
Poisson measure, and every theorem instance exercised here uses only
finite measures.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .groups import (
    PADIC,
    TORUS,
    Character,
    CompactSubgroup,
    DepthOverflowError,
    GroupElement,
    GroupId,
    GroupMismatchError,
    Neighborhood,
    add,
    annihilator_contains,
    arg_of,
    char_eval,
    coordinate_arg,
    elements_close,
    from_angle,
    from_turns,
    h_trunc,
    identity,
    in_nbhd,
    local_inner,
    trivial_subgroup,
)

ATOM_TOL_TURNS = 1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finite nonnegative measure given by finitely many weighted atoms.

    Atoms are deduplicated on construction (exact digit comparison for
    padic, angles within 1e-12 turns otherwise) and zero-weight atoms are
    dropped.
    """

    group: GroupId
    atoms: tuple[tuple[GroupElement, float], ...]

    def total_mass(self) -> float:
        return sum(w for _, w in self.atoms)

    def is_probability(self, tol: float = 1e-12) -> bool:
        return abs(self.total_mass() - 1.0) <= tol


def discrete_measure(group: GroupId, atoms) -> DiscreteMeasure:
    merged: list[tuple[GroupElement, float]] = []
    for x, w in atoms:
        if x.group != group:
            raise GroupMismatchError("atom on a different group than the measure")
        w = float(w)
        if w < 0.0:
            raise ValueError(f"negative atom weight {w}")
        if w == 0.0:
            continue
        for i, (y, v) in enumerate(merged):
            if elements_close(x, y, ATOM_TOL_TURNS):
                merged[i] = (y, v + w)
                break
        else:
            merged.append((x, w))
    return DiscreteMeasure(group, tuple(merged))


def zero_measure(group: GroupId) -> DiscreteMeasure:
    return DiscreteMeasure(group, ())


def point_mass(x: GroupElement, w: float = 1.0) -> DiscreteMeasure:
    return discrete_measure(x.group, [(x, w)])


def measure_ft(mu: DiscreteMeasure, chi: Character) -> complex:
    """Fourier transform of a bounded measure: sum of w * chi(x)."""
    return sum((w * char_eval(chi, x) for x, w in mu.atoms), complex(0.0))


def scale_measure(mu: DiscreteMeasure, c: float) -> DiscreteMeasure:
    return discrete_measure(mu.group, [(x, c * w) for x, w in mu.atoms])


def convolve(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> DiscreteMeasure:
    """Convolution of two finite discrete measures; its FT is the product
    of the factors' FTs."""
    if mu1.group != mu2.group:
        raise GroupMismatchError("convolving measures on different groups")
    return discrete_measure(
        mu1.group,
        [(add(x, y), w1 * w2) for x, w1 in mu1.atoms for y, w2 in mu2.atoms],
    )


@dataclass(frozen=True)
class LevyMeasure:
    """A finite discrete measure with no mass at the identity."""

    measure: DiscreteMeasure

    @property
    def group(self) -> GroupId:
        return self.measure.group

    @property
    def atoms(self):
        return self.measure.atoms

    def total_mass(self) -> float:
        return self.measure.total_mass()


def validate_levy(eta: DiscreteMeasure) -> LevyMeasure:
    """Accept a discrete measure as a Levy measure: weights are already
    known nonnegative, so only the no-identity-atom rule is checked."""
    e = identity(eta.group)
    for x, _ in eta.atoms:
        if elements_close(x, e, ATOM_TOL_TURNS):
            raise ValueError("Levy measure must put no mass at the identity")
    return LevyMeasure(eta)


def zero_levy(group: GroupId) -> LevyMeasure:
    return LevyMeasure(zero_measure(group))


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
    """b * ell^2 on the torus, 0 on padic, b * ell^2 / p^(2d) on the
    solenoid."""
    if b.group != chi.group:
        raise GroupMismatchError("quadratic form and character on different groups")
    if b.group.kind == TORUS:
        return b.b * chi.ell**2
    if b.group.kind == PADIC:
        return 0.0
    return b.b * chi.ell**2 / b.group.p ** (2 * chi.d)


def gauss_ft(b: QuadraticFormParam, chi: Character) -> float:
    """FT of the symmetric Gauss measure: exp(-psi(chi)/2)."""
    return math.exp(-qform_eval(b, chi) / 2.0)


def cpoisson_ft(eta: DiscreteMeasure, chi: Character) -> complex:
    """FT of the compound Poisson measure: exp(integral of (chi - 1))."""
    if eta.group != chi.group:
        raise GroupMismatchError("measure and character on different groups")
    expo = sum((w * (char_eval(chi, x) - 1.0) for x, w in eta.atoms), complex(0.0))
    return cmath.exp(expo)


def local_mean(mu: DiscreteMeasure) -> GroupElement:
    """The element m with chi(m) = exp(i * integral of g(., chi) d mu) for
    every character, for the group's explicit local inner product."""
    g = mu.group
    if g.kind == PADIC:
        return identity(g)
    if g.kind == TORUS:
        s = sum(w * h_trunc(arg_of(x)) for x, w in mu.atoms)
        return from_angle(g, s)
    s = sum(w * h_trunc(coordinate_arg(x, 0)) for x, w in mu.atoms)
    return from_turns(g, s / (2.0 * math.pi) / g.p**g.depth)


def genpoisson_ft(eta: LevyMeasure, chi: Character) -> complex:
    """FT of the generalized Poisson measure:
    exp(integral of (chi - 1 - i g(., chi)))."""
    if eta.group != chi.group:
        raise GroupMismatchError("measure and character on different groups")
    expo = sum(
        (w * (char_eval(chi, x) - 1.0 - 1j * local_inner(x, chi)) for x, w in eta.atoms),
        complex(0.0),
    )
    return cmath.exp(expo)


def tail_mass_measure(eta: DiscreteMeasure, U: Neighborhood) -> float:
    """Total weight outside the neighborhood U."""
    return sum(w for x, w in eta.atoms if not in_nbhd(x, U))


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


def cylinder_mass(eta: DiscreteMeasure, x: GroupElement, r: int) -> float:
    """Mass of the padic cylinder x + lambda(r): atoms agreeing with x in
    digits 0..r-1."""
    q = cylinder_modulus(eta.group, x, r)
    return sum(w for y, w in eta.atoms if (y.residue - x.residue) % q == 0)


@dataclass(frozen=True)
class LimitLaw:
    """Quadruplet law: Haar factor on H, shift a, Gauss factor with
    parameter b, generalized Poisson factor driven by eta."""

    H: CompactSubgroup
    a: GroupElement
    b: QuadraticFormParam
    eta: LevyMeasure

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


def limit_law_ft(law: LimitLaw, chi: Character) -> complex:
    """FT of the quadruplet law: indicator of the annihilator of H times
    chi(a) times the Gauss and generalized Poisson factors."""
    if law.group != chi.group:
        raise GroupMismatchError("law and character on different groups")
    if not annihilator_contains(law.H, chi):
        return complex(0.0)
    return char_eval(chi, law.a) * gauss_ft(law.b, chi) * genpoisson_ft(law.eta, chi)
