"""Exact arithmetic, characters and local inner products on three compact
Abelian groups: the circle group, the p-adic integers, and the p-adic
solenoid.

Angles are stored internally in *turns* (fractions of a full revolution,
canonicalized to [-1/2, 1/2)) and exposed in radians.  Storing turns keeps
the repeated multiply-by-p steps of the solenoid coordinate projection
exact-ish: each multiplication is reduced mod 1 immediately, so the error
never grows against 2*pi.

The torus is the solenoid's coordinate tower of depth 0, whose deepest
coordinate is its base y_0, so every angle-group kernel runs the tower
code.  same_block, neg_block and tower_gauge_block are the one home of the
same-element, inverse and size rules.

p-adic elements are residues mod p^(depth+1) held as Python integers, so
group arithmetic on them is exact.  Observables that would need digits
beyond the working depth raise instead of approximating.

The ``*_block`` functions are the same operations on a block of elements
of one group, held as one numpy array of their turns or residues.  They
hold every element rule: each operation on GroupElements evaluates its
block twin at one value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
ATOM_TOL_TURNS = 1e-12  # two angle-group entries within this in every coordinate are one

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


@dataclass(frozen=True)
class GroupId:
    """Which group we are on: kind plus (for padic/solenoid) prime and
    working depth.  The torus has p = 0 and depth = 0, the coordinate tower
    of depth 0, so every tower factor p^j with j <= depth is 1 there
    (0**0 is 1)."""

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
            if self.kind == SOLENOID and (self.depth > 40 or self.base_scale > 2**40):
                raise ValueError("solenoid p^depth exceeds 2^40")

    @property
    def base_scale(self) -> int:
        """p^depth: turns of the base coordinate y_0 per deepest turn."""
        return self.p**self.depth

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

    torus     -- ``turns`` is the angle in turns: the tower of depth 0,
                 whose one coordinate y_0 is the element itself.
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


def _as_float(name: str, value):
    """An int value as a float (a ValueError naming the argument when it
    is too large for one); any other value unchanged."""
    if not isinstance(value, int):
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} too large for a float ({value.bit_length()} bits)") from None


def from_turns(group: GroupId, t: float) -> GroupElement:
    if group.kind == PADIC:
        raise ValueError("padic elements are built from digits, not angles")
    t = _as_float("turns", t)
    if not math.isfinite(t):
        raise ValueError(f"turns must be finite; got {t}")
    return _element(group, reduce_turns_block(np.array([t], dtype=float)))


def from_angle(group: GroupId, theta: float) -> GroupElement:
    """Torus element with the given angle; solenoid element whose *deepest*
    coordinate has the given angle (radians)."""
    return from_turns(group, _as_float("theta", theta) / TWO_PI)


def base_turns(group: GroupId, theta):
    """The turns of the deepest coordinate on the branch-0 tower over
    arg y_0 = theta (radians, a float or an array), not reduced mod 1:
    theta / 2pi / p^depth, whose coordinate at depth j has angle
    theta / p^j (no wrap-around); on the torus y_0 is the element itself."""
    return theta / TWO_PI / group.base_scale


def from_base_angle(group: GroupId, theta: float) -> GroupElement:
    """Torus or solenoid element on the branch-0 tower over arg y_0 = theta."""
    return from_turns(group, base_turns(group, _as_float("theta", theta)))


def from_digits(group: GroupId, digits) -> GroupElement:
    """p-adic element from its digit vector (x_0, ..., x_D)."""
    if group.kind != PADIC:
        raise ValueError("digits only make sense for padic groups")
    digits = tuple(digits)
    if len(digits) != group.depth + 1:
        raise ValueError(f"expected {group.depth + 1} digits, got {len(digits)}")
    for d in digits:
        if not 0 <= d < group.p:
            raise ValueError(f"digit {d} out of range for p={group.p}")
    value = 0
    for d in reversed(digits):  # Horner's rule: no power of p is formed
        value = value * group.p + d
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
    return _element(x.group, add_block(x.group, element_block(x), element_value(y)))


def neg(x: GroupElement) -> GroupElement:
    """Group inverse: add(x, neg(x)) is the identity."""
    return _element(x.group, neg_block(x.group, element_block(x)))


def scale(k: int, x: GroupElement) -> GroupElement:
    """k-fold group sum of x (k any integer)."""
    g = x.group
    # int64 counts cannot hold every k: padic groups read k mod the
    # modulus, angle groups k as a float, the factor of the product k * turns
    count = k % g.modulus if g.kind == PADIC else _as_float("k", k)
    return _element(g, scale_block(g, np.array([count]), element_value(x)))


def arg_of(x: GroupElement) -> float:
    """The angle of a torus element, in [-pi, pi)."""
    if x.group.kind != TORUS:
        raise ValueError("arg_of expects a torus element")
    return TWO_PI * x.turns


def coordinate_arg(x: GroupElement, j: int) -> float:
    """Angle of the coordinate y_j, j <= working depth, of a torus (depth 0)
    or solenoid element, in [-pi, pi)."""
    if x.group.kind == PADIC:
        raise ValueError("coordinates only defined for torus and solenoid elements")
    if not 0 <= j <= x.group.depth:
        raise DepthOverflowError(f"coordinate {j} beyond working depth {x.group.depth}")
    return TWO_PI * _coordinates_block(x.group, element_block(x), j)[j].item()


def h_trunc(t: float) -> float:
    """Piecewise-linear truncation of the angle: the identity on
    [-pi/2, pi/2), folded linearly to 0 at +-pi, and 0 outside [-pi, pi)."""
    return h_trunc_block(np.array([t], dtype=float)).item()


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
    d, ell, p = chi.d, chi.ell, chi.group.p
    while d > 0 and ell % p == 0:
        d -= 1
        ell //= p
    return Character(chi.group, ell, d)


def char_eval(chi: Character, x: GroupElement) -> complex:
    """Evaluate the character at x; a complex number of modulus one."""
    return char_eval_block(x.group, (chi,), element_block(x)).item()


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


def element_block(*xs: GroupElement) -> np.ndarray:
    """The block of the elements xs, all of one group."""
    return np.array([element_value(x) for x in xs], dtype=block_dtype(xs[0].group))


def _element(group: GroupId, block: np.ndarray) -> GroupElement:
    """The element that a one-entry block stands for."""
    if group.kind == PADIC:
        return GroupElement(group, residue=block.item())
    return GroupElement(group, turns=block.item())


def reduce_turns_block(t: np.ndarray) -> np.ndarray:
    """Every turn count reduced into the canonical interval [-1/2, 1/2)."""
    r = t - np.floor(t + 0.5)
    # floor() can round back to exactly +1/2, and from 2^52 on t + 0.5
    # rounds half to even, so that an odd integral t gives -1
    r -= r >= 0.5  # less 1.0 or 0.0: r - 0.0 is r, signed zeros included
    r[r < -0.5] += 1.0  # r += r < -0.5 would make -0.0 +0.0
    return r


def add_block(group: GroupId, u, v) -> np.ndarray:
    """Entrywise group sum of two blocks; either may be a single entry."""
    if group.kind == PADIC:
        return (u + v) % group.modulus
    return reduce_turns_block(u + v)


def scale_block(group: GroupId, counts: np.ndarray, v) -> np.ndarray:
    """The block of count * v for the block entry v, one entry per integer
    count.  On padic groups the count is reduced mod the modulus first, so
    the int64 product cannot overflow."""
    if group.kind == PADIC:
        m = group.modulus
        return (counts.astype(block_dtype(group), copy=False) % m) * v % m
    return reduce_turns_block(counts * v)


def neg_block(group: GroupId, v: np.ndarray) -> np.ndarray:
    """The entrywise group inverse of a block."""
    if group.kind == PADIC:
        return (-v) % group.modulus
    return reduce_turns_block(-v)


def same_block(group: GroupId, u, v):
    """Whether two blocks' canonical entries (either may be one entry), or
    one pair of entries as Python scalars, are one element: equal residues,
    or within ATOM_TOL_TURNS in every coordinate y_j, i.e. on y_0, whose
    gap is the deepest one times p^depth.  The deepest gap is
    min(|u - v|, (1/2 - |u|) + (1/2 - |v|)), the way round the +-1/2 wrap
    taken by two terms that stay exact near it, so p^depth scales no
    rounding of a whole turn.  Rounding is monotone, so the min of the two
    scaled terms is the scaled min, and either term may decide."""
    if group.kind == PADIC:
        return u == v
    s = group.base_scale
    wrap = (0.5 - abs(u)) + (0.5 - abs(v))
    return (abs(u - v) * s <= ATOM_TOL_TURNS) | (wrap * s <= ATOM_TOL_TURNS)


# by the nearest quarter turn q = -2, ..., 2 (at index q + 2): whether cos
# and sin swap places (a quarter turn either way), and the signs of the
# real part (negated at q = 1, +-2) and of the imaginary part (at q = -1,
# +-2)
_QUARTER_SWAP = np.array([False, True, False, True, False])
_QUARTER_RE = np.array([-1.0, 1.0, 1.0, -1.0, -1.0])
_QUARTER_IM = np.array([-1.0, -1.0, 1.0, 1.0, -1.0])


def cis_turns_block(t: np.ndarray) -> np.ndarray:
    """exp(2 pi i t) of every entry t, in turns.

    Each t is folded to the nearest quarter turn before touching pi, so
    quarter-turn multiples (t = 0, +-1/4, -1/2) come out bit-exact and
    everything else is evaluated with a well-conditioned small angle.  The
    quarter q picks cos or sin for each part, and a sign: a product
    with 1.0 or -1.0 is an exact copy or negation, signed zeros included,
    and costs less than a branch on q per entry."""
    t = reduce_turns_block(t)
    q = np.rint(4.0 * t)  # the nearest quarter turn
    a = TWO_PI * (t - 0.25 * q)
    c, s = np.cos(a), np.sin(a)
    k = (q + 2.0).astype(np.intp)  # "clip" below keeps a NaN turn NaN
    swap = _QUARTER_SWAP.take(k, mode="clip")
    out = np.empty(t.shape, dtype=complex)
    out.real = np.where(swap, s, c) * _QUARTER_RE.take(k, mode="clip")
    out.imag = np.where(swap, c, s) * _QUARTER_IM.take(k, mode="clip")
    return out


def _coordinates_block(group: GroupId, values: np.ndarray, lowest: int) -> np.ndarray:
    """The turns of the coordinate y_j of every element of a torus or
    solenoid block, as row j of a (depth + 1) x len(values) array, for every
    j from the working depth down to lowest (rows below are left unset): the
    deepest coordinate multiplied by p and reduced mod 1 once per step."""
    ys = np.empty((group.depth + 1, len(values)))
    ys[group.depth] = values
    for j in range(group.depth - 1, lowest - 1, -1):
        ys[j] = reduce_turns_block(ys[j + 1] * group.p)
    return ys


def char_eval_block(group: GroupId, chars, values: np.ndarray) -> np.ndarray:
    """Every character at every element of a block: the len(values) x
    len(chars) matrix of character values."""
    if any(chi.group != group for chi in chars):
        raise GroupMismatchError("character and element on different groups")
    ds = [chi.d for chi in chars]
    if max(ds, default=0) > group.depth:
        raise DepthOverflowError(f"character depth {max(ds)} beyond working depth {group.depth}")
    if group.kind == PADIC:  # ell * (x mod q) mod q / q turns, q = p^(d+1)
        qs = np.array([group.p ** (chi.d + 1) for chi in chars], dtype=values.dtype)
        ells = np.array([chi.ell for chi in chars], dtype=values.dtype)
        return cis_turns_block(np.asarray(ells * (values[:, None] % qs) % qs / qs, dtype=float))
    ys = _coordinates_block(group, values, min(ds, default=0))
    ells = np.array([chi.ell for chi in chars], dtype=float)
    return cis_turns_block(np.multiply(ys[ds].T, ells, order="C"))


def local_inner(x: GroupElement, chi: Character) -> float:
    """The group's explicit local inner product g(x, chi).

    torus: ell * h(arg x); padic: 0; solenoid: ell * h(arg y_0) / p^d.
    """
    return local_inner_block(x.group, (chi,), element_block(x)).item()


def h_trunc_block(t: np.ndarray) -> np.ndarray:
    """h_trunc of every angle of t."""
    folded = np.where(t < -math.pi / 2, -t - math.pi, np.where(t < math.pi / 2, t, math.pi - t))
    return np.where((t < -math.pi) | (t >= math.pi), 0.0, folded)


def h_arg_block(group: GroupId, values: np.ndarray) -> np.ndarray:
    """h_trunc of the angle of the base coordinate y_0 of every element of a
    torus or solenoid block."""
    return h_trunc_block(TWO_PI * _coordinates_block(group, values, 0)[0])


def local_inner_block(group: GroupId, chars, values: np.ndarray) -> np.ndarray:
    """The local inner product g(., chi) of every element of a block for
    every character: a len(chars) x len(values) array."""
    if any(chi.group != group for chi in chars):
        raise GroupMismatchError("character and element on different groups")
    out = np.zeros((len(chars), len(values)))
    if group.kind != PADIC:  # padic local inner products are 0
        h = h_arg_block(group, values)
        for k, chi in enumerate(chars):
            out[k] = chi.ell * h / group.p**chi.d
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
            if not 0 <= self.d <= self.group.depth:
                raise DepthOverflowError("neighborhood depth beyond working depth")

    @property
    def label(self) -> str:
        if self.group.kind == PADIC:
            return f"r:{self.rank}"
        if self.group.kind == TORUS:
            return f"eps:{self.eps:.6g}"
        return f"d:{self.d},eps:{self.eps:.6g}"


def in_nbhd(x: GroupElement, U: Neighborhood) -> bool:
    """Whether x lies in the neighborhood U."""
    return in_nbhd_block(x.group, (U,), element_block(x)).item()


def in_nbhd_block(group: GroupId, nbhds, values: np.ndarray) -> np.ndarray:
    """Whether every element of a block lies in every neighborhood U: a
    len(nbhds) x len(values) boolean array."""
    if any(U.group != group for U in nbhds):
        raise GroupMismatchError("element and neighborhood on different groups")
    if group.kind != PADIC:
        ys = _coordinates_block(group, values, 0)
    out = np.empty((len(nbhds), len(values)), dtype=bool)
    for k, U in enumerate(nbhds):
        if group.kind == PADIC:
            out[k] = values % group.p**U.rank == 0
        else:  # |arg y_j| < eps for every j <= d
            out[k] = (np.abs(TWO_PI * ys[: U.d + 1]) < U.eps).all(axis=0)
    return out


def tower_gauge_block(group: GroupId, u: np.ndarray, v, turn: float = 1.0) -> np.ndarray:
    """The size of the difference of every pair of entries of a block u and
    a block or one entry v.  On padic groups it is the padic metric 2^-m, m
    the least index of a differing digit, and 0 when the residues are equal
    (resolution floor 2^-depth).  On the torus and the solenoid it is the
    largest |turns| over the coordinates y_0..y_depth of the reduced
    difference, times turn (TWO_PI gives radians)."""
    if group.kind == PADIC:
        diff = (u - v) % group.modulus
        # the valuation m of a nonzero residue: how many of p, p^2, ...,
        # p^depth divide it
        m = sum(diff % group.p**j == 0 for j in range(1, group.depth + 1))
        return np.where(diff == 0, 0.0, np.ldexp(1.0, -m))
    ys = _coordinates_block(group, reduce_turns_block(u - v), 0)
    return np.abs(ys).max(axis=0) * turn


def tower_gauge(x: GroupElement, y: GroupElement, turn: float = 1.0) -> float:
    """The size of x - y (tower_gauge_block): the padic metric on padic
    groups; on the torus and the solenoid the largest |turns| over its
    coordinates y_0..y_depth, times turn."""
    _check_same_group(x, y)
    return tower_gauge_block(x.group, element_block(x), element_value(y), turn).item()


def padic_metric(x: GroupElement, y: GroupElement) -> float:
    """Invariant metric 2^-m on the p-adic integers, m the least index of a
    differing digit; 0 when equal at the working depth (resolution floor
    2^-depth)."""
    _check_same_group(x, y)
    if x.group.kind != PADIC:
        raise ValueError("padic_metric expects padic elements")
    return tower_gauge_block(x.group, element_block(x), y.residue).item()


def elements_close(x: GroupElement, y: GroupElement) -> bool:
    """same_block of two elements' entries; elements of two groups differ."""
    return x.group == y.group and same_block(x.group, element_value(x), element_value(y))
