"""One definition per kernel, element rule and law statistic, held to the
scalar references of reference.py bit for bit.

Every scalar group kernel and element operation is a one-value call of its
block twin, and every law statistic is a per-entry body over the measure's
one-entry table.  On the torus, on padic_group(2, 16), on
padic_group(101, 8) (whose blocks hold Python ints) and on
solenoid_group(3, 6), each must return the bits of the element-at-a-time
kernel or atom loop it replaced, and raise the same errors; the element
operations are also held to them on deep solenoids and on
padic_group(3, 40), whose residues pass int64.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcalim.arrays import _is_symmetric
from lcalim.groups import (
    PADIC,
    SOLENOID,
    TORUS,
    TWO_PI,
    GroupElement,
    GroupId,
    Neighborhood,
    add,
    block_dtype,
    char_eval,
    character,
    coordinate_arg,
    cyclic_subgroup,
    element_block,
    element_value,
    elements_close,
    from_angle,
    from_base_angle,
    from_int,
    from_turns,
    full_subgroup,
    h_trunc,
    identity,
    in_nbhd,
    lambda_subgroup,
    local_inner,
    neg,
    padic_group,
    padic_metric,
    scale,
    solenoid_group,
    torus_group,
    tower_gauge,
    tower_gauge_block,
    trivial_subgroup,
)
from lcalim.measures import (
    LimitLaw,
    QuadraticFormParam,
    convolve,
    cpoisson_ft,
    cylinder_mass,
    discrete_measure,
    genpoisson_ft,
    limit_law_ft,
    local_mean,
    measure_ft,
    scale_measure,
    tail_mass_measure,
    validate_levy,
)
import reference as ref

GROUPS = {
    "torus": torus_group(),
    "padic": padic_group(2, 16),
    "padic-large": padic_group(101, 8),
    "solenoid": solenoid_group(3, 6),
}
FEW = settings(max_examples=10, deadline=None)


def _bits(value):
    """The exact bits of a number, or of a list of numbers: floats by
    hex (signed zeros apart), complex by both parts."""
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, GroupElement):
        return value.group, type(value.residue), value.residue, type(value.turns), value.turns.hex()
    return value


# turns: any canonical float, the quarter turns, and numbers a few
# ATOM_TOL_TURNS apart, so that atoms merge or just fail to
_SPECIAL_TURNS = [0.0, -0.0, 0.25, -0.25, -0.5, 1e-12, -1e-12, 3e-13, 0.5 - 2**-54]


def elements(g):
    if g.kind == PADIC:
        return st.integers(0, g.modulus - 1).map(lambda r: GroupElement(g, residue=r))
    turns = st.one_of(st.floats(-0.5, 0.5, exclude_max=True), st.sampled_from(_SPECIAL_TURNS))
    return turns.map(lambda t: GroupElement(g, turns=t))


def characters(g):
    if g.kind == TORUS:
        return st.integers(-(2**20), 2**20).map(lambda ell: character(g, ell))
    if g.kind == PADIC:
        return st.integers(0, min(g.depth, 4)).flatmap(
            lambda d: st.integers(0, g.p ** (d + 1) - 1).map(lambda ell: character(g, ell, d))
        )
    return st.tuples(st.integers(-50, 50), st.integers(0, g.depth)).map(
        lambda ld: character(g, *ld)
    )


def neighborhoods(g):
    if g.kind == PADIC:
        return st.integers(0, g.depth + 1).map(lambda r: Neighborhood(g, rank=r))
    eps = st.one_of(st.floats(1e-3, math.pi), st.sampled_from([math.pi / 2, math.pi / 4]))
    depth = st.integers(0, g.depth if g.kind == SOLENOID else 0)
    return st.tuples(eps, depth).map(lambda ed: Neighborhood(g, eps=ed[0], d=ed[1]))


def atom_lists(g, max_size=6):
    """(element, weight) lists with zero weights and near-duplicate atoms."""
    weights = st.one_of(st.floats(0.0, 3.0), st.just(0.0), st.just(0.5))
    return st.lists(st.tuples(elements(g), weights), max_size=max_size)


def _same_table(mu, atoms):
    """mu's table holds exactly these (element, weight) atoms, in order."""
    return _bits(ref.atoms(mu)) == _bits(atoms)


def _negative_zero_phase(chi, x) -> bool:
    """Whether chi's phase at x is exactly -0.0 turns: a negative ell at an
    element whose coordinate y_d is exactly 0."""
    if x.group.kind == PADIC:
        return False
    t = chi.ell * (x.turns if x.group.kind == TORUS else ref.coordinate_turns(x, chi.d))
    return t == 0.0 and math.copysign(1.0, t) < 0.0


@pytest.mark.parametrize("name", sorted(GROUPS))
@FEW
@given(data=st.data())
def test_kernels_equal_references(name, data):
    g = GROUPS[name]
    xs = data.draw(st.lists(elements(g), min_size=1, max_size=4))
    chi = data.draw(characters(g))
    U = data.draw(neighborhoods(g))
    for x in xs:
        if _negative_zero_phase(chi, x):
            # the block kernel folds the phase -0.0 to the quarter turn
            # q = -0.0 and returns 1 + 0i; the scalar kernel returned 1 - 0i
            assert _bits(ref.char_eval(chi, x)) == _bits(complex(1.0, -0.0))
            assert _bits(char_eval(chi, x)) == _bits(complex(1.0, 0.0))
        else:
            assert _bits(char_eval(chi, x)) == _bits(ref.char_eval(chi, x))
        assert _bits(local_inner(x, chi)) == _bits(ref.local_inner(x, chi))
        assert in_nbhd(x, U) is ref.in_nbhd(x, U)
        if g.kind == SOLENOID:
            args = [coordinate_arg(x, j) for j in range(g.depth + 1)]
            assert _bits(args) == _bits([ref.coordinate_arg(x, j) for j in range(g.depth + 1)])


@FEW
@given(st.one_of(st.floats(-10.0, 10.0), st.sampled_from([math.pi, -math.pi, math.pi / 2])))
def test_h_trunc_equals_reference(t):
    assert _bits(h_trunc(t)) == _bits(ref.h_trunc(t))
    assert _bits(h_trunc(-t)) == _bits(ref.h_trunc(-t))


def _raised(f, *args):
    try:
        f(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_kernel_errors_equal_references(name):
    g = GROUPS[name]
    other = padic_group(3, 2) if g.kind != PADIC else torus_group()
    x, y = identity(g), identity(other)
    deep = character(g, 1, g.depth + 1) if g.kind != TORUS else None
    cases = [
        (char_eval, ref.char_eval, character(other, 1), x),
        (local_inner, ref.local_inner, y, character(g, 1)),
        (in_nbhd, ref.in_nbhd, y, Neighborhood(g, rank=1) if g.kind == PADIC else
         Neighborhood(g, eps=0.5)),
        (coordinate_arg, ref.coordinate_arg, x, g.depth + 1),
        (coordinate_arg, ref.coordinate_arg, x, -1),
    ]
    if deep is not None:
        cases.append((char_eval, ref.char_eval, deep, x))
    for f, want, *args in cases:
        assert _raised(f, *args) is not None
        assert _raised(f, *args) == _raised(want, *args)


@pytest.mark.parametrize("name", sorted(GROUPS))
@FEW
@given(data=st.data())
def test_measure_tables_follow_the_atom_rules(name, data):
    g = GROUPS[name]
    atoms = data.draw(atom_lists(g, max_size=8))
    # near-duplicates of the drawn atoms, to merge
    atoms += [(x, w) for x, w in atoms[:3]]
    mu = discrete_measure(g, atoms)
    assert mu.values.dtype == block_dtype(g) and len(mu.values) == len(mu.weights)
    assert _same_table(mu, ref.merged_atoms(g, atoms))
    c = data.draw(st.floats(0.0, 4.0))
    scaled = ref.merged_atoms(g, [(x, c * w) for x, w in ref.atoms(mu)])
    assert _same_table(scale_measure(mu, c), scaled)
    nu = discrete_measure(g, data.draw(atom_lists(g, max_size=4)))
    pairs = [(add(x, y), w * v) for x, w in ref.atoms(mu) for y, v in ref.atoms(nu)]
    assert _same_table(convolve(mu, nu), ref.merged_atoms(g, pairs))
    assert mu.total_mass() == ref._sum(mu.weights.tolist())


def test_measure_errors_equal_references():
    g = torus_group()
    for atoms in ([(identity(g), 1.0), (identity(g), -0.5)], [(identity(padic_group(2)), 1.0)]):
        assert _raised(discrete_measure, g, atoms) == _raised(ref.merged_atoms, g, atoms)
    mu = discrete_measure(g, [(identity(g), 1.0), (neg(GroupElement(g, turns=0.1)), 2.0)])
    with pytest.raises(ValueError, match=r"^negative atom weight -1.0$"):
        scale_measure(mu, -1.0)


@pytest.mark.parametrize("name", sorted(GROUPS))
@FEW
@given(data=st.data())
def test_law_statistics_equal_atom_loops(name, data):
    g = GROUPS[name]
    mu = discrete_measure(g, data.draw(atom_lists(g)))
    chars = data.draw(st.lists(characters(g), max_size=5))
    nbhds = data.draw(st.lists(neighborhoods(g), max_size=4))
    assert _bits(measure_ft(mu, chars)) == _bits([ref.measure_ft(mu, chi) for chi in chars])
    assert _bits(cpoisson_ft(mu, chars)) == _bits([ref.cpoisson_ft(mu, chi) for chi in chars])
    assert _bits(genpoisson_ft(mu, chars)) == _bits([ref.genpoisson_ft(mu, chi) for chi in chars])
    assert _bits(tail_mass_measure(mu, nbhds)) == _bits(
        [float(ref.tail_mass_measure(mu, U)) for U in nbhds]
    )
    assert _bits(local_mean(mu)) == _bits(ref.local_mean(mu))
    second = mu.g_moments(chars)[1][:, 0].tolist()
    assert _bits(second) == _bits([float(ref.second_moment(mu, chi)) for chi in chars])
    if g.kind == PADIC:
        cylinders = data.draw(
            st.lists(st.tuples(elements(g), st.integers(0, g.depth + 1)), max_size=4)
        )
        want = [float(ref.cylinder_mass(mu, x, r)) for x, r in cylinders]
        assert _bits(cylinder_mass(mu, cylinders)) == _bits(want)


def _subgroups(g):
    if g.kind == TORUS:
        return [trivial_subgroup(g), full_subgroup(g), cyclic_subgroup(g, 3)]
    if g.kind == PADIC:
        return [trivial_subgroup(g), full_subgroup(g), lambda_subgroup(g, 2)]
    return [trivial_subgroup(g), full_subgroup(g)]


@pytest.mark.parametrize("name", sorted(GROUPS))
@FEW
@given(data=st.data())
def test_limit_law_ft_equals_reference(name, data):
    g = GROUPS[name]
    ident = identity(g)
    atoms = [(x, w) for x, w in data.draw(atom_lists(g)) if x.residue or abs(x.turns) > 1e-9]
    eta = validate_levy(discrete_measure(g, atoms))
    H = data.draw(st.sampled_from(_subgroups(g)))
    b = 0.0 if g.kind == PADIC else data.draw(st.floats(0.0, 2.0))
    law = LimitLaw(H, data.draw(elements(g)), QuadraticFormParam(g, b), eta)
    chars = data.draw(st.lists(characters(g), max_size=5))
    assert _bits(limit_law_ft(law, chars)) == _bits([ref.limit_law_ft(law, chi) for chi in chars])
    with pytest.raises(ValueError, match="identity"):
        validate_levy(discrete_measure(g, atoms + [(ident, 0.5)]))


@pytest.mark.parametrize("name", sorted(GROUPS))
@FEW
@given(data=st.data())
def test_symmetry_check_equals_reference(name, data):
    g = GROUPS[name]
    atoms = data.draw(atom_lists(g))
    if data.draw(st.booleans()):  # mirror every atom, with a weight nudge
        nudge = data.draw(st.sampled_from([0.0, 1e-13, 1e-11]))
        atoms += [(neg(x), w + nudge) for x, w in atoms]
    mu = discrete_measure(g, atoms)
    assert _is_symmetric(mu) is ref.is_symmetric(mu)


def test_atoms_merge_by_the_base_coordinate_gap():
    # 3e-13 deepest turns apart on solenoid_group(3, 6) is 729 * 3e-13 =
    # 2.2e-10 turns apart on y_0: two elements, though the deepest gap alone
    # is within ATOM_TOL_TURNS
    g = GROUPS["solenoid"]
    x, y = GroupElement(g, turns=0.1), GroupElement(g, turns=0.1 + 3e-13)
    mu = discrete_measure(g, [(x, 0.5), (y, 0.5)])
    assert _same_table(mu, [(x, 0.5), (y, 0.5)])
    assert _same_table(mu, ref.merged_atoms(g, [(x, 0.5), (y, 0.5)]))
    assert not elements_close(x, y)
    close = GroupElement(g, turns=0.1 + 1e-15)  # 7.3e-13 turns apart on y_0
    assert _same_table(discrete_measure(g, [(x, 0.5), (close, 0.5)]), [(x, 1.0)])


@pytest.mark.parametrize("name", ["torus", "padic", "padic-large"])
@FEW
@given(data=st.data())
def test_torus_and_padic_gauges_keep_their_bits(name, data):
    g = GROUPS[name]
    x, a = data.draw(elements(g)), data.draw(elements(g))
    assert _bits(tower_gauge(x, a, TWO_PI)) == _bits(ref.element_distance(x, a))
    if g.kind == TORUS:  # a Rademacher x_n is built by from_turns
        x = from_turns(g, x.turns)
    assert _bits(tower_gauge(x, identity(g))) == _bits(ref.null_gauge(x))


# the element operations' groups: deep solenoids, where p^depth nears the
# 2^40 guard, and padic_group(3, 40), whose modulus 3^41 passes 2^63
ELEMENT_GROUPS = [
    torus_group(),
    solenoid_group(2, 8),
    solenoid_group(3, 25),
    solenoid_group(1021, 4),
    padic_group(2, 16),
    padic_group(3, 40),
]
# raw turns: the wrap, signed zero, the last float below 1/2, odd integral
# turns from 2^52 on (where t + 1/2 rounds half to even), and a few others
_EDGE_TURNS = [0.5, -0.5, 0.0, -0.0, 0.5 - 2**-54, -0.5 + 2**-54, 2.0**52 + 1, 2.0**53 - 1,
               -(2.0**52 + 1), 0.25, 1e-12, -3e-13, 7.3, -1234.5678]
_COUNTS = [0, 1, -1, 3, 2**52 + 1, 2**64 + 1, -(2**64 + 1), -(10**30)]


def _edge_elements(g, rng, count=6):
    """Canonical elements of g: its edges and `count` random ones."""
    if g.kind == PADIC:
        m = g.modulus
        residues = [0, 1, m - 1, g.p, g.p**g.depth, m // 2]
        # residues of valuation 0, 1, 2, ... up to the depth, in turn
        draws = rng.integers(1, 2**62, size=count).tolist()
        residues += [g.p ** (j % g.depth) * r % m for j, r in enumerate(draws)]
        return [from_int(g, r) for r in residues]
    turns = _EDGE_TURNS + rng.uniform(-0.5, 0.5, count).tolist()
    return [ref.from_turns(g, t) for t in turns]


@pytest.mark.parametrize("g", ELEMENT_GROUPS, ids=GroupId.describe)
def test_one_value_operations_equal_references(g, rng):
    xs = _edge_elements(g, rng)
    for make, want in ((from_turns, ref.from_turns), (from_angle, ref.from_angle),
                       (from_base_angle, ref.from_base_angle)):
        for t in _EDGE_TURNS:
            if g.kind == PADIC:
                assert _raised(make, g, t) is not None
                assert _raised(make, g, t) == _raised(want, g, t)
            else:
                assert _bits(make(g, t)) == _bits(want(g, t))
    for x in xs:
        assert _bits(neg(x)) == _bits(ref.neg(x))
        for k in _COUNTS:
            assert _bits(scale(k, x)) == _bits(ref.scale(k, x))
        for y in xs:
            assert _bits(add(x, y)) == _bits(ref.add(x, y))
            assert elements_close(x, y) is ref.elements_close(x, y)
            for turn in (1.0, TWO_PI):
                assert _bits(tower_gauge(x, y, turn)) == _bits(ref.tower_gauge(x, y, turn))
            assert _raised(padic_metric, x, y) == _raised(ref.padic_metric, x, y)
            if g.kind == PADIC:
                assert _bits(padic_metric(x, y)) == _bits(ref.padic_metric(x, y))


@pytest.mark.parametrize("g", ELEMENT_GROUPS, ids=GroupId.describe)
def test_grid_gauge_equals_the_element_walk(g, rng):
    xs = _edge_elements(g, rng, count=200)
    ys = xs[::-1]
    for turn in (1.0, TWO_PI):
        for y in (identity(g), xs[3]):  # one entry against the block
            got = tower_gauge_block(g, element_block(*xs), element_value(y), turn).tolist()
            assert _bits(got) == _bits([ref.tower_gauge(x, y, turn) for x in xs])
        got = tower_gauge_block(g, element_block(*xs), element_block(*ys), turn).tolist()
        assert _bits(got) == _bits([ref.tower_gauge(x, y, turn) for x, y in zip(xs, ys)])
