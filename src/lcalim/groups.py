"""Exact arithmetic, characters and local inner products on three compact
Abelian groups: the circle group, the p-adic integers, and the p-adic
solenoid.

Angles are stored internally in *turns* (fractions of a full revolution,
canonicalized to [-1/2, 1/2)) and exposed in radians.  Storing turns keeps
the repeated multiply-by-p steps of the solenoid coordinate projection
exact-ish: each multiplication is reduced mod 1 immediately, so the error
never grows against 2*pi.

p-adic elements are residues mod p^(depth+1) held as Python integers, so
group arithmetic on them is exact.  Observables that would need digits
beyond the working depth raise instead of approximating.

The ``*_block`` functions are the same operations on a block of elements
of one group, held as one numpy array of their turns or residues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

TORUS = "torus"
PADIC = "padic"
SOLENOID = "solenoid"


class GroupMismatchError(ValueError):
    """Operands live on different groups (kind, prime or depth differ)."""


class DepthOverflowError(ValueError):
    """An observable needs digits/coordinates beyond the working depth."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def reduce_turns(t: float) -> float:
    """Reduce a turn count into the canonical interval [-1/2, 1/2)."""
    r = t - math.floor(t + 0.5)
    # floor() at the upper boundary can round back to exactly +1/2
    if r >= 0.5:
        r -= 1.0
    return r


@dataclass(frozen=True)
class GroupId:
    """Which group we are on: kind plus (for padic/solenoid) prime and
    working depth."""

    kind: str
    p: int = 0
    depth: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (TORUS, PADIC, SOLENOID):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == TORUS:
            if self.p or self.depth:
                raise ValueError("torus takes no prime/depth")
        else:
            if not _is_prime(self.p):
                raise ValueError(f"p={self.p} is not prime")
            if self.depth < 0:
                raise ValueError("working depth must be >= 0")
            # solenoid turns are floats of the deepest coordinate, which
            # resolve the base coordinate y_0 only while p^depth stays well
            # inside 2^53 (p >= 2, so depth > 40 is already too deep)
            if self.kind == SOLENOID and (self.depth > 40 or self.p**self.depth > 2**40):
                raise ValueError("solenoid p^depth exceeds 2^40")

    @property
    def modulus(self) -> int:
        """p^(depth+1), the residue modulus of padic elements."""
        if self.kind != PADIC:
            raise ValueError("modulus only defined for padic groups")
        return self.p ** (self.depth + 1)

    def describe(self) -> str:
        if self.kind == TORUS:
            return "torus"
        return f"{self.kind}(p={self.p}, depth={self.depth})"


def torus_group() -> GroupId:
    return GroupId(TORUS)


def padic_group(p: int, depth: int = 16) -> GroupId:
    return GroupId(PADIC, p, depth)


def solenoid_group(p: int, depth: int = 8) -> GroupId:
    return GroupId(SOLENOID, p, depth)


@dataclass(frozen=True)
class GroupElement:
    """A point of one of the three groups.

    torus     -- ``turns`` is the angle in turns.
    padic     -- ``residue`` is the value mod p^(depth+1); digit j of the
                 canonical expansion is ``residue // p**j % p``.
    solenoid  -- ``turns`` is the angle of the *deepest* tracked coordinate
                 y_depth; shallower coordinates follow from y_j = y_{j+1}^p.
    """

    group: GroupId
    turns: float = 0.0
    residue: int = 0

    def __post_init__(self) -> None:
        if self.group.kind == PADIC:
            if not 0 <= self.residue < self.group.modulus:
                raise ValueError("padic residue out of range")
            if self.turns:
                raise ValueError("padic elements carry no angle")
        else:
            if self.residue:
                raise ValueError("angle groups carry no residue")
            if not -0.5 <= self.turns < 0.5:
                raise ValueError("turns not canonicalized to [-1/2, 1/2)")


def identity(group: GroupId) -> GroupElement:
    """The neutral element."""
    if group.kind == PADIC:
        return GroupElement(group, residue=0)
    return GroupElement(group, turns=0.0)


def from_turns(group: GroupId, t: float) -> GroupElement:
    if group.kind == PADIC:
        raise ValueError("padic elements are built from digits, not angles")
    return GroupElement(group, turns=reduce_turns(t))


def from_angle(group: GroupId, theta: float) -> GroupElement:
    """Torus element with the given angle; solenoid element whose *deepest*
    coordinate has the given angle (radians)."""
    return from_turns(group, theta / TWO_PI)


def from_base_angle(group: GroupId, theta: float) -> GroupElement:
    """Solenoid element on the branch-0 tower over arg y_0 = theta: the
    coordinate at depth j has angle theta / p^j (no wrap-around)."""
    if group.kind != SOLENOID:
        raise ValueError("base-angle construction is solenoid-only")
    return from_turns(group, theta / TWO_PI / group.p**group.depth)


def from_digits(group: GroupId, digits) -> GroupElement:
    """p-adic element from its digit vector (x_0, ..., x_D)."""
    if group.kind != PADIC:
        raise ValueError("digits only make sense for padic groups")
    digits = tuple(digits)
    if len(digits) != group.depth + 1:
        raise ValueError(f"expected {group.depth + 1} digits, got {len(digits)}")
    value = 0
    for j, d in enumerate(digits):
        if not 0 <= d < group.p:
            raise ValueError(f"digit {d} out of range for p={group.p}")
        value += d * group.p**j
    return GroupElement(group, residue=value)


def from_int(group: GroupId, value: int) -> GroupElement:
    """p-adic element representing the integer ``value`` mod p^(depth+1)."""
    if group.kind != PADIC:
        raise ValueError("integer embedding only defined for padic groups")
    return GroupElement(group, residue=value % group.modulus)


def digits_of(x: GroupElement) -> tuple[int, ...]:
    if x.group.kind != PADIC:
        raise ValueError("only padic elements have digits")
    out, v = [], x.residue
    for _ in range(x.group.depth + 1):
        v, d = divmod(v, x.group.p)
        out.append(d)
    return tuple(out)


def _check_same_group(x: GroupElement, y: GroupElement) -> None:
    if x.group != y.group:
        raise GroupMismatchError(
            f"elements on different groups: {x.group.describe()} vs {y.group.describe()}"
        )


def add(x: GroupElement, y: GroupElement) -> GroupElement:
    """Group sum; exact residue addition for padic, angle addition mod one
    turn otherwise."""
    _check_same_group(x, y)
    if x.group.kind == PADIC:
        return GroupElement(x.group, residue=(x.residue + y.residue) % x.group.modulus)
    return GroupElement(x.group, turns=reduce_turns(x.turns + y.turns))


def neg(x: GroupElement) -> GroupElement:
    """Group inverse: add(x, neg(x)) is the identity."""
    if x.group.kind == PADIC:
        return GroupElement(x.group, residue=(-x.residue) % x.group.modulus)
    return GroupElement(x.group, turns=reduce_turns(-x.turns))


def scale(k: int, x: GroupElement) -> GroupElement:
    """k-fold group sum of x (k any integer)."""
    if x.group.kind == PADIC:
        return GroupElement(x.group, residue=(k * x.residue) % x.group.modulus)
    return GroupElement(x.group, turns=reduce_turns(k * x.turns))


def coordinate_turns(x: GroupElement, j: int) -> float:
    """Turn count of the solenoid coordinate y_j, j <= working depth.

    Computed by repeatedly multiplying the deepest coordinate by p and
    reducing mod 1 at every step.
    """
    if x.group.kind != SOLENOID:
        raise ValueError("coordinates only defined for solenoid elements")
    if not 0 <= j <= x.group.depth:
        raise DepthOverflowError(f"coordinate {j} beyond working depth {x.group.depth}")
    t = x.turns
    for _ in range(x.group.depth - j):
        t = reduce_turns(t * x.group.p)
    return t


def arg_of(x: GroupElement) -> float:
    """The angle of a torus element, in [-pi, pi)."""
    if x.group.kind != TORUS:
        raise ValueError("arg_of expects a torus element")
    return TWO_PI * x.turns


def coordinate_arg(x: GroupElement, j: int) -> float:
    """Angle of the solenoid coordinate y_j, in [-pi, pi)."""
    return TWO_PI * coordinate_turns(x, j)


def h_trunc(t: float) -> float:
    """Piecewise-linear truncation of the angle: the identity on
    [-pi/2, pi/2), folded linearly to 0 at +-pi, and 0 outside [-pi, pi)."""
    if t < -math.pi or t >= math.pi:
        return 0.0
    if t < -math.pi / 2:
        return -t - math.pi
    if t < math.pi / 2:
        return t
    return math.pi - t


@dataclass(frozen=True)
class Character:
    """A character of the group.

    torus     -- index ``ell``, the character y -> y^ell.
    padic     -- pair (d, ell) with 0 <= ell < p^(d+1): the character
                 x -> exp(2 pi i ell (x_0 + p x_1 + ... + p^d x_d) / p^(d+1)).
    solenoid  -- pair (d, ell), ell any integer: y -> y_d^ell.
    """

    group: GroupId
    ell: int
    d: int = 0

    def __post_init__(self) -> None:
        if self.group.kind == TORUS:
            if self.d:
                raise ValueError("torus characters carry no depth")
        else:
            if self.d < 0:
                raise ValueError("character depth must be >= 0")
            if self.group.kind == PADIC and not 0 <= self.ell < self.group.p ** (self.d + 1):
                raise ValueError("padic character index out of range")

    @property
    def char_id(self) -> str:
        if self.group.kind == TORUS:
            return f"l:{self.ell}"
        return f"d:{self.d},l:{self.ell}"

    def is_trivial(self) -> bool:
        return self.ell == 0


def character(group: GroupId, ell: int, d: int = 0) -> Character:
    return Character(group, ell, d)


def canonical_character(chi: Character) -> Character:
    """Reduce (d, ell) by the depth-refinement identity chi_{d,ell} =
    chi_{d+1, p*ell}: divide ell by p while possible and d > 0."""
    if chi.group.kind == TORUS:
        return chi
    d, ell, p = chi.d, chi.ell, chi.group.p
    while d > 0 and ell % p == 0:
        d -= 1
        ell //= p
    return Character(chi.group, ell, d)


def _cis_turns(t: float) -> complex:
    """exp(2 pi i t) for t in turns.

    Folded to the nearest quarter turn before touching pi, so quarter-turn
    multiples (t = 0, +-1/4, -1/2) come out bit-exact and everything else
    is evaluated with a well-conditioned small angle.
    """
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


def char_eval(chi: Character, x: GroupElement) -> complex:
    """Evaluate the character at x; a complex number of modulus one."""
    if chi.group != x.group:
        raise GroupMismatchError("character and element on different groups")
    g = x.group
    if g.kind == TORUS:
        return _cis_turns(chi.ell * x.turns)
    if g.kind == PADIC:
        if chi.d > g.depth:
            raise DepthOverflowError(
                f"character depth {chi.d} beyond working depth {g.depth}"
            )
        q = g.p ** (chi.d + 1)
        return _cis_turns(((chi.ell * (x.residue % q)) % q) / q)
    if chi.d > g.depth:
        raise DepthOverflowError(f"character depth {chi.d} beyond working depth {g.depth}")
    return _cis_turns(chi.ell * coordinate_turns(x, chi.d))


# Blocks: many elements of one group in one numpy array, as float64 turns
# (torus, solenoid) or residues (padic).  Residues are int64 while the
# product of two of them fits, i.e. while p^(depth+1) < 2^31, and Python
# ints in an object array beyond that.
_INT64_MODULUS_LIMIT = 2**31


def block_dtype(group: GroupId):
    """numpy dtype of a block of elements of the group."""
    if group.kind != PADIC:
        return np.float64
    return np.int64 if group.modulus < _INT64_MODULUS_LIMIT else object


def element_value(x: GroupElement):
    """The block entry that stands for x: its turns, or its residue."""
    return x.residue if x.group.kind == PADIC else x.turns


def block_element(group: GroupId, v) -> GroupElement:
    """The element that the block entry v stands for."""
    if group.kind == PADIC:
        return GroupElement(group, residue=int(v))
    return GroupElement(group, turns=float(v))


def reduce_turns_block(t: np.ndarray) -> np.ndarray:
    """reduce_turns of every entry."""
    r = t - np.floor(t + 0.5)
    return np.where(r >= 0.5, r - 1.0, r)


def add_block(group: GroupId, u, v) -> np.ndarray:
    """Entrywise group sum of two blocks; either may be a single entry."""
    if group.kind == PADIC:
        return (u + v) % group.modulus
    return reduce_turns_block(u + v)


def scale_block(counts: np.ndarray, x: GroupElement) -> np.ndarray:
    """The block of count * x, one entry per integer count.  On padic
    groups the count is reduced mod the modulus first, so the int64
    product cannot overflow."""
    g = x.group
    if g.kind == PADIC:
        m = g.modulus
        return (counts.astype(block_dtype(g), copy=False) % m) * x.residue % m
    return reduce_turns_block(counts * x.turns)


def cis_turns_block(t: np.ndarray) -> np.ndarray:
    """_cis_turns of every entry, with the same quarter-turn folding.

    The quarter q picks cos or sin for each part, and a sign: a product
    with 1.0 or -1.0 is an exact copy or negation, signed zeros included,
    and costs less than a branch on q per entry."""
    t = reduce_turns_block(t)
    q = np.rint(4.0 * t)  # the nearest quarter turn, one of -2, ..., 2
    a = TWO_PI * (t - 0.25 * q)
    c, s = np.cos(a), np.sin(a)
    odd = np.abs(q) == 1.0  # a quarter turn either way swaps cos and sin
    out = np.empty(t.shape, dtype=complex)
    # the real part is negated at q = 1, +-2, where q (q + 1) > 1, and the
    # imaginary part at q = -1, +-2, where q (q - 1) > 1
    out.real = np.where(odd, s, c) * (1.0 - 2.0 * (q * (q + 1.0) > 1.0))
    out.imag = np.where(odd, c, s) * (1.0 - 2.0 * (q * (q - 1.0) > 1.0))
    return out


def _coordinates_block(group: GroupId, values: np.ndarray, lowest: int) -> dict:
    """coordinate_turns(., j) of every element of a solenoid block for every
    j from the working depth down to lowest, by one chain of its steps."""
    ys = {group.depth: values}
    for j in range(group.depth - 1, lowest - 1, -1):
        ys[j] = reduce_turns_block(ys[j + 1] * group.p)
    return ys


def char_eval_block(group: GroupId, chars, values: np.ndarray) -> np.ndarray:
    """char_eval of every character at every element of a block: the
    len(values) x len(chars) matrix of character values."""
    if any(chi.group != group for chi in chars):
        raise GroupMismatchError("character and element on different groups")
    deepest = max((chi.d for chi in chars), default=0)
    if deepest > group.depth:
        raise DepthOverflowError(f"character depth {deepest} beyond working depth {group.depth}")
    if group.kind == TORUS:
        return cis_turns_block(values[:, None] * np.array([chi.ell for chi in chars], dtype=float))
    if group.kind == SOLENOID:
        ys = _coordinates_block(group, values, min((chi.d for chi in chars), default=0))
    phases = np.empty((len(values), len(chars)))
    for k, chi in enumerate(chars):
        if group.kind == PADIC:
            q = group.p ** (chi.d + 1)
            phases[:, k] = chi.ell * (values % q) % q / q
        else:
            phases[:, k] = chi.ell * ys[chi.d]
    return cis_turns_block(phases)


def local_inner(x: GroupElement, chi: Character) -> float:
    """The group's explicit local inner product g(x, chi).

    torus: ell * h(arg x); padic: 0; solenoid: ell * h(arg y_0) / p^d.
    """
    if chi.group != x.group:
        raise GroupMismatchError("character and element on different groups")
    g = x.group
    if g.kind == TORUS:
        return chi.ell * h_trunc(arg_of(x))
    if g.kind == PADIC:
        return 0.0
    return chi.ell * h_trunc(coordinate_arg(x, 0)) / g.p**chi.d


def h_arg_block(group: GroupId, values: np.ndarray) -> np.ndarray:
    """h_trunc of the angle of every element of a torus block, or of the
    angle of its base coordinate y_0 on the solenoid."""
    if group.kind == SOLENOID:
        values = _coordinates_block(group, values, 0)[0]
    t = TWO_PI * values
    folded = np.where(t < -math.pi / 2, -t - math.pi, np.where(t < math.pi / 2, t, math.pi - t))
    return np.where((t < -math.pi) | (t >= math.pi), 0.0, folded)


def local_inner_block(group: GroupId, chars, values: np.ndarray) -> np.ndarray:
    """local_inner(., chi) of every element of a block for every
    character: a len(chars) x len(values) array."""
    if any(chi.group != group for chi in chars):
        raise GroupMismatchError("character and element on different groups")
    out = np.zeros((len(chars), len(values)))
    if group.kind != PADIC:  # padic local inner products are 0
        h = h_arg_block(group, values)
        for k, chi in enumerate(chars):
            out[k] = chi.ell * h if group.kind == TORUS else chi.ell * h / group.p**chi.d
    return out


SUBGROUP_TRIVIAL = "trivial"
SUBGROUP_FULL = "full"
SUBGROUP_CYCLIC = "cyclic"  # torus: the r-th roots of unity
SUBGROUP_LAMBDA = "lambda"  # padic: digits 0..r-1 vanish


@dataclass(frozen=True)
class CompactSubgroup:
    """A compact subgroup of the group.

    torus: trivial, cyclic(r) (r-th roots of unity) or full; padic:
    trivial or lambda(r) (lambda(0) is the whole group); solenoid:
    trivial or full.
    """

    group: GroupId
    kind: str
    r: int = 0

    def __post_init__(self) -> None:
        if self.kind in (SUBGROUP_TRIVIAL, SUBGROUP_FULL):
            if self.r:
                raise ValueError(f"{self.kind} subgroup takes no parameter r")
            return
        if self.kind == SUBGROUP_CYCLIC:
            if self.group.kind != TORUS:
                raise ValueError("cyclic subgroups only supported on the torus")
            if self.r < 1:
                raise ValueError("cyclic subgroup needs r >= 1")
        elif self.kind == SUBGROUP_LAMBDA:
            if self.group.kind != PADIC:
                raise ValueError("lambda subgroups only exist on padic groups")
            if self.r < 0:
                raise ValueError("lambda rank must be >= 0")
        else:
            raise ValueError(f"unknown subgroup kind {self.kind!r}")

    def is_trivial(self) -> bool:
        return self.kind == SUBGROUP_TRIVIAL or (
            self.kind == SUBGROUP_CYCLIC and self.r == 1
        )

    def is_full(self) -> bool:
        return self.kind == SUBGROUP_FULL or (
            self.kind == SUBGROUP_LAMBDA and self.r == 0
        )

    def describe(self) -> str:
        if self.kind in (SUBGROUP_TRIVIAL, SUBGROUP_FULL):
            return self.kind
        return f"{self.kind}({self.r})"


def trivial_subgroup(group: GroupId) -> CompactSubgroup:
    return CompactSubgroup(group, SUBGROUP_TRIVIAL)


def full_subgroup(group: GroupId) -> CompactSubgroup:
    if group.kind == PADIC:
        return CompactSubgroup(group, SUBGROUP_LAMBDA, 0)
    return CompactSubgroup(group, SUBGROUP_FULL)


def cyclic_subgroup(group: GroupId, r: int) -> CompactSubgroup:
    return CompactSubgroup(group, SUBGROUP_CYCLIC, r)


def lambda_subgroup(group: GroupId, r: int) -> CompactSubgroup:
    return CompactSubgroup(group, SUBGROUP_LAMBDA, r)


def annihilator_contains(H: CompactSubgroup, chi: Character) -> bool:
    """Whether chi restricts to 1 on H (i.e. chi lies in the annihilator
    of H)."""
    if H.group != chi.group:
        raise GroupMismatchError("subgroup and character on different groups")
    if H.kind == SUBGROUP_TRIVIAL:
        return True
    chi = canonical_character(chi)
    if H.kind == SUBGROUP_FULL:
        return chi.ell == 0
    if H.kind == SUBGROUP_CYCLIC:
        return chi.ell % H.r == 0
    # lambda(r): on elements with digits 0..r-1 zero the character phase is
    # ell * p^r * (free digits) / p^(d+1), trivial iff p^(d+1-r) | ell.
    if chi.d + 1 <= H.r:
        return True
    return chi.ell % H.group.p ** (chi.d + 1 - H.r) == 0


@dataclass(frozen=True)
class Neighborhood:
    """A basic neighborhood of the identity.

    torus: |arg x| < eps; padic: the clopen subgroup lambda(rank);
    solenoid: |arg y_j| < eps for all j <= d.
    """

    group: GroupId
    eps: float = 0.0
    rank: int = 0
    d: int = 0

    def __post_init__(self) -> None:
        if self.group.kind == PADIC:
            if self.rank < 0:
                raise ValueError("neighborhood rank must be >= 0")
            if self.rank > self.group.depth + 1:
                raise DepthOverflowError("neighborhood rank beyond working depth")
        else:
            if not 0.0 < self.eps <= math.pi:
                raise ValueError("neighborhood radius must lie in (0, pi]")
            if self.group.kind == SOLENOID and not 0 <= self.d <= self.group.depth:
                raise DepthOverflowError("neighborhood depth beyond working depth")

    @property
    def label(self) -> str:
        if self.group.kind == PADIC:
            return f"r:{self.rank}"
        if self.group.kind == TORUS:
            return f"eps:{self.eps:.6g}"
        return f"d:{self.d},eps:{self.eps:.6g}"


def in_nbhd(x: GroupElement, U: Neighborhood) -> bool:
    if x.group != U.group:
        raise GroupMismatchError("element and neighborhood on different groups")
    if x.group.kind == TORUS:
        return abs(arg_of(x)) < U.eps
    if x.group.kind == PADIC:
        return x.residue % x.group.p**U.rank == 0
    return all(abs(coordinate_arg(x, j)) < U.eps for j in range(U.d + 1))


def in_nbhd_block(group: GroupId, nbhds, values: np.ndarray) -> np.ndarray:
    """in_nbhd(., U) of every element of a block for every neighborhood U:
    a len(nbhds) x len(values) boolean array."""
    if any(U.group != group for U in nbhds):
        raise GroupMismatchError("element and neighborhood on different groups")
    if group.kind == SOLENOID:
        ys = _coordinates_block(group, values, 0)
    out = np.empty((len(nbhds), len(values)), dtype=bool)
    for k, U in enumerate(nbhds):
        if group.kind == TORUS:
            out[k] = np.abs(TWO_PI * values) < U.eps
        elif group.kind == PADIC:
            out[k] = values % group.p**U.rank == 0
        else:  # |arg y_j| < eps for every j <= d
            out[k] = np.all([np.abs(TWO_PI * ys[j]) < U.eps for j in range(U.d + 1)], axis=0)
    return out


def padic_metric(x: GroupElement, y: GroupElement) -> float:
    """Invariant metric 2^-m on the p-adic integers, m the least index of a
    differing digit; 0 when equal at the working depth (resolution floor
    2^-depth)."""
    _check_same_group(x, y)
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


def solenoid_lift(x: GroupElement, branch: int) -> GroupElement:
    """Deepen a solenoid representation by one coordinate along the chosen
    p-th root branch; solenoid_project inverts it."""
    if x.group.kind != SOLENOID:
        raise ValueError("solenoid_lift expects a solenoid element")
    if not 0 <= branch < x.group.p:
        raise ValueError(f"branch {branch} out of range for p={x.group.p}")
    deeper = GroupId(SOLENOID, x.group.p, x.group.depth + 1)
    return GroupElement(deeper, turns=reduce_turns((x.turns + branch) / x.group.p))


def solenoid_project(x: GroupElement) -> GroupElement:
    """Forget the deepest coordinate of a solenoid representation."""
    if x.group.kind != SOLENOID:
        raise ValueError("solenoid_project expects a solenoid element")
    if x.group.depth == 0:
        raise DepthOverflowError("cannot project below depth 0")
    shallower = GroupId(SOLENOID, x.group.p, x.group.depth - 1)
    return GroupElement(shallower, turns=reduce_turns(x.turns * x.group.p))


def elements_close(x: GroupElement, y: GroupElement, tol_turns: float = 1e-12) -> bool:
    """Equality at working depth: exact for padic, within tol (in turns,
    measured around the circle) for angle groups."""
    if x.group != y.group:
        return False
    if x.group.kind == PADIC:
        return x.residue == y.residue
    return abs(reduce_turns(x.turns - y.turns)) <= tol_turns
