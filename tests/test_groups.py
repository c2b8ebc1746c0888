import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lcalim.groups import (
    TWO_PI,
    Character,
    DepthOverflowError,
    GroupId,
    GroupMismatchError,
    Neighborhood,
    add,
    annihilator_contains,
    add_block,
    arg_of,
    base_turns,
    block_dtype,
    char_eval,
    char_eval_block,
    character,
    cis_turns_block,
    coordinate_arg,
    cyclic_subgroup,
    digits_of,
    element_value,
    elements_close,
    from_angle,
    from_base_angle,
    from_digits,
    from_int,
    from_turns,
    full_subgroup,
    h_trunc,
    identity,
    in_nbhd,
    in_nbhd_block,
    lambda_subgroup,
    local_inner,
    local_inner_block,
    neg,
    padic_group,
    neg_block,
    padic_metric,
    reduce_turns_block,
    scale,
    same_block,
    scale_block,
    solenoid_group,
    solenoid_lift,
    solenoid_project,
    torus_group,
    tower_gauge,
    trivial_subgroup,
)

import reference as ref
from conftest import random_element

T = torus_group()


class TestConstruction:
    def test_identity_torus(self):
        assert arg_of(identity(T)) == 0.0

    def test_identity_padic(self):
        g = padic_group(2, 3)
        assert digits_of(identity(g)) == (0, 0, 0, 0)

    def test_identity_solenoid(self):
        g = solenoid_group(2, 2)
        assert identity(g).turns == 0.0

    def test_prime_validation(self):
        with pytest.raises(ValueError, match="not prime"):
            padic_group(4)
        with pytest.raises(ValueError, match="not prime"):
            solenoid_group(1)

    def test_solenoid_depth_guard(self):
        # the deepest coordinate's float turns must resolve y_0
        assert solenoid_group(2, 40).depth == 40
        assert solenoid_group(101, 5).depth == 5
        for p, depth in ((2, 41), (101, 8), (3, 10**9)):
            with pytest.raises(ValueError, match="solenoid p\\^depth exceeds 2\\^40"):
                solenoid_group(p, depth)
        with pytest.raises(ValueError, match="exceeds 2\\^40"):
            solenoid_lift(identity(solenoid_group(2, 40)), 0)

    def test_digit_range_validation(self):
        g = padic_group(3, 1)
        with pytest.raises(ValueError, match="digit"):
            from_digits(g, (3, 0))

    def test_angle_canonicalized(self):
        x = from_angle(T, 7.0)
        assert -math.pi <= arg_of(x) < math.pi

    def test_minus_pi_is_half_open_boundary(self):
        # arg of -1 is -pi, never +pi
        x = from_angle(T, math.pi)
        assert arg_of(x) == -math.pi

    @pytest.mark.parametrize("t", [2.0**52 + 1, 2.0**53 - 1, -(2.0**52 + 1)])
    def test_odd_turns_past_2_to_52_reduce_to_zero(self, t):
        # t + 0.5 rounds half to even there, so floor(t + 0.5) is t + 1
        assert from_turns(T, t).turns == 0.0
        assert reduce_turns_block(np.array([t])).tolist() == [0.0]

    def test_negative_zero_turns_kept(self):
        assert math.copysign(1.0, from_turns(T, -0.0).turns) == -1.0
        assert math.copysign(1.0, reduce_turns_block(np.array([-0.0]))[0]) == -1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("make", [from_turns, from_angle, from_base_angle])
    @pytest.mark.parametrize("g", [T, solenoid_group(2, 8)], ids=GroupId.describe)
    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_turns_rejected(self, t, g, make):
        with pytest.raises(ValueError, match="turns must be finite"):
            make(g, t)


class TestAdd:
    def test_padic_add_carries(self):
        # big-integer oracle: 5 + 2 = 7 mod 9 -> digits (1, 2) base 3
        g = padic_group(3, 1)
        z = add(from_digits(g, (2, 1)), from_digits(g, (2, 0)))
        assert digits_of(z) == (1, 2)

    def test_padic_add_matches_integer_oracle(self, rng):
        g = padic_group(5, 6)
        for _ in range(200):
            a, b = int(rng.integers(0, g.modulus)), int(rng.integers(0, g.modulus))
            z = add(from_int(g, a), from_int(g, b))
            assert z.residue == (a + b) % g.modulus

    def test_torus_add_wraps(self):
        # mod-2pi oracle: 3.0 + 1.0 = 4.0 - 2pi
        z = add(from_angle(T, 3.0), from_angle(T, 1.0))
        assert arg_of(z) == pytest.approx(4.0 - 2.0 * math.pi, abs=1e-15)

    def test_add_identity(self, any_group, rng):
        for _ in range(50):
            x = random_element(any_group, rng)
            assert elements_close(add(x, identity(any_group)), x)

    def test_mismatched_groups_rejected(self):
        with pytest.raises(GroupMismatchError):
            add(identity(T), identity(padic_group(2, 3)))
        with pytest.raises(GroupMismatchError):
            add(identity(padic_group(2, 3)), identity(padic_group(2, 4)))


class TestNeg:
    def test_torus(self):
        assert arg_of(neg(from_angle(T, 0.3))) == pytest.approx(-0.3, abs=1e-15)

    def test_padic_complement(self):
        # oracle: p^(D+1) - 1 = 7 -> digits (1, 1, 1)
        g = padic_group(2, 2)
        assert digits_of(neg(from_digits(g, (1, 0, 0)))) == (1, 1, 1)

    def test_neg_identity(self, any_group):
        assert neg(identity(any_group)) == identity(any_group)

    def test_inverse_law(self, any_group, rng):
        for _ in range(100):
            x = random_element(any_group, rng)
            assert elements_close(add(x, neg(x)), identity(any_group))


class TestGroupAxioms:
    """Bulk randomized axioms, 1e4 pairs/triples per group."""

    N = 10_000

    def test_axioms(self, any_group):
        rng = np.random.default_rng(7211)
        g = any_group
        e = identity(g)
        for _ in range(self.N):
            x = random_element(g, rng)
            y = random_element(g, rng)
            z = random_element(g, rng)
            assert add(x, y) == add(y, x)
            lhs, rhs = add(add(x, y), z), add(x, add(y, z))
            if g.kind == "padic":
                assert lhs == rhs
                assert add(x, neg(x)) == e
            else:
                assert elements_close(lhs, rhs)
                assert elements_close(add(x, neg(x)), e)
            assert add(x, e) == x


class TestArgAndH:
    def test_arg_basic(self):
        assert arg_of(from_angle(T, math.pi / 3)) == pytest.approx(math.pi / 3)
        assert arg_of(identity(T)) == 0.0

    def test_arg_requires_torus(self):
        with pytest.raises(ValueError):
            arg_of(identity(padic_group(2, 2)))

    @pytest.mark.parametrize(
        "t,expected",
        [
            (0.3, 0.3),
            (2.0, math.pi - 2.0),
            (4.0, 0.0),
            (-4.0, 0.0),
            (math.pi, 0.0),
            (-math.pi, 0.0),
            (-2.0, 2.0 - math.pi),
            (math.pi / 2, math.pi / 2),
            (-math.pi / 2, -math.pi / 2),
        ],
    )
    def test_h_piecewise(self, t, expected):
        assert h_trunc(t) == pytest.approx(expected, abs=1e-15)

    @given(st.floats(-10.0, 10.0))
    def test_h_odd_inside_domain(self, t):
        # oddness holds wherever both t and -t are inside [-pi, pi)
        if abs(t) < math.pi:
            assert h_trunc(-t) == pytest.approx(-h_trunc(t), abs=1e-15)

    @given(st.floats(-10.0, 10.0))
    def test_h_bounded(self, t):
        assert abs(h_trunc(t)) <= math.pi / 2


class TestCharEval:
    def test_torus_example(self):
        z = char_eval(character(T, 3), from_angle(T, math.pi / 6))
        assert z == pytest.approx(1j, abs=1e-12)

    def test_padic_example(self):
        g = padic_group(2, 1)
        z = char_eval(character(g, 1, 1), from_digits(g, (1, 1)))
        assert z == pytest.approx(-1j, abs=1e-12)

    def test_trivial_character(self, any_group, rng):
        chi = character(any_group, 0)
        for _ in range(20):
            assert char_eval(chi, random_element(any_group, rng)) == pytest.approx(1.0)

    def test_depth_overflow(self):
        g = padic_group(2, 2)
        with pytest.raises(DepthOverflowError):
            char_eval(character(g, 1, 3), identity(g))
        gs = solenoid_group(2, 2)
        with pytest.raises(DepthOverflowError):
            char_eval(character(gs, 1, 5), identity(gs))

    def test_padic_index_range(self):
        g = padic_group(2, 3)
        with pytest.raises(ValueError):
            character(g, 4, 1)

    def test_modulus_one(self, any_group, rng):
        for _ in range(200):
            chi = _random_char(any_group, rng)
            x = random_element(any_group, rng)
            assert abs(abs(char_eval(chi, x)) - 1.0) <= 1e-12

    def test_homomorphism(self, any_group, rng):
        for _ in range(500):
            chi = _random_char(any_group, rng)
            x = random_element(any_group, rng)
            y = random_element(any_group, rng)
            lhs = char_eval(chi, add(x, y))
            rhs = char_eval(chi, x) * char_eval(chi, y)
            assert abs(lhs - rhs) <= 1e-10

    def test_multiplicative_in_index(self, rng):
        # chi_{l1} * chi_{l2} = chi_{l1+l2} on the torus
        for _ in range(100):
            l1, l2 = int(rng.integers(-8, 9)), int(rng.integers(-8, 9))
            x = random_element(T, rng)
            lhs = char_eval(character(T, l1 + l2), x)
            rhs = char_eval(character(T, l1), x) * char_eval(character(T, l2), x)
            assert abs(lhs - rhs) <= 1e-10

    def test_solenoid_depth_refinement(self, rng):
        # chi_{d,l} = chi_{d+1, p*l} under y_d = y_{d+1}^p
        g = solenoid_group(3, 5)
        for _ in range(100):
            x = random_element(g, rng)
            d = int(rng.integers(0, 4))
            ell = int(rng.integers(-6, 7))
            lhs = char_eval(character(g, ell, d), x)
            rhs = char_eval(character(g, 3 * ell, d + 1), x)
            assert abs(lhs - rhs) <= 1e-10


def _random_char(group, rng) -> Character:
    if group.kind == "torus":
        return character(group, int(rng.integers(-8, 9)))
    d = int(rng.integers(0, min(3, group.depth) + 1))
    if group.kind == "padic":
        return character(group, int(rng.integers(0, group.p ** (d + 1))), d)
    return character(group, int(rng.integers(-8, 9)), d)


BLOCK_CHARS = {
    "torus": [(-7, 0), (-1, 0), (1, 0), (2, 0), (13, 0)],
    "padic": [(1, 0), (3, 1), (5, 3), (12345, 16), (2047, 10)],
    "solenoid": [(1, 0), (-4, 2), (5, 6), (2, 3)],
}


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _choose_cis_turns_block(t: np.ndarray) -> np.ndarray:
    """The np.choose formulation of cis_turns_block that the branch-free
    kernel replaced, kept as its bit-for-bit reference."""
    t = reduce_turns_block(t)
    q = np.rint(4.0 * t)
    a = TWO_PI * (t - 0.25 * q)
    c, s = np.cos(a), np.sin(a)
    q = q.astype(np.int64) % 4
    out = np.empty(t.shape, dtype=complex)
    out.real = np.choose(q, (c, -s, -c, s))
    out.imag = np.choose(q, (s, c, -s, -c))
    return out


# turns up to 2^40 in size: any float, exact quarter and eighth turns
# (the ties of the quarter rounding), and near misses of quarter turns
_TURNS = st.one_of(
    st.floats(-(2.0**40), 2.0**40, allow_nan=False),
    st.integers(-(2**43), 2**43).map(lambda k: k / 8),
    st.tuples(st.integers(-(2**42), 2**42), st.floats(-1e-9, 1e-9)).map(
        lambda kd: kd[0] / 4 + kd[1]
    ),
    st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0**40, -(2.0**40)]),
)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestBlocks:
    @pytest.mark.parametrize(
        "group",
        [torus_group(), padic_group(2, 16), solenoid_group(3, 6)],
        ids=["torus", "padic", "solenoid"],
    )
    def test_char_eval_block_matches_scalar(self, group):
        rng = np.random.default_rng(4711)
        xs = [random_element(group, rng) for _ in range(10_000)]
        values = np.array([element_value(x) for x in xs], dtype=block_dtype(group))
        chars = [character(group, l, d) for l, d in BLOCK_CHARS[group.kind]]
        got = char_eval_block(group, chars, values)
        assert got.shape == (len(xs), len(chars))
        for k, chi in enumerate(chars):
            want = np.array([ref.char_eval(chi, x) for x in xs])
            assert _same_bits(np.ascontiguousarray(got[:, k]), want)

    @pytest.mark.parametrize(
        "group, nbhds",
        [
            (torus_group(), [dict(eps=0.1), dict(eps=math.pi)]),
            (padic_group(2, 16), [dict(rank=0), dict(rank=1), dict(rank=3)]),
            (padic_group(101, 8), [dict(rank=1), dict(rank=9)]),
            (solenoid_group(3, 6), [dict(eps=1.0), dict(eps=2.5, d=3), dict(eps=3.0, d=6)]),
        ],
        ids=["torus", "padic", "padic-large", "solenoid"],
    )
    def test_local_inner_and_nbhd_blocks_match_scalar(self, group, nbhds):
        # the same arithmetic as the scalar references, so equal bit for bit
        rng = np.random.default_rng(4712)
        xs = [random_element(group, rng) for _ in range(5_000)]
        if group.kind != "padic":  # the folds of h_trunc
            xs += [from_turns(group, t) for t in (0.0, 0.25, -0.25, -0.5)]
        values = np.array([element_value(x) for x in xs], dtype=block_dtype(group))
        for l, d in BLOCK_CHARS[group.kind]:
            chi = character(group, l, d)
            got = local_inner_block(group, (chi,), values)[0]
            assert got.tolist() == [ref.local_inner(x, chi) for x in xs]
        for kw in nbhds:
            U = Neighborhood(group, **kw)
            got = in_nbhd_block(group, (U,), values)[0]
            assert got.tolist() == [ref.in_nbhd(x, U) for x in xs]

    def test_cis_quarter_turns_bit_exact(self):
        t = np.array([0.0, 0.25, -0.25, -0.5])
        for ti, z in zip(t, cis_turns_block(t)):
            assert _bits(z) == _bits(ref.cis_turns(float(ti)))

    @given(st.lists(_TURNS, min_size=1, max_size=60), st.integers(1, 3))
    def test_cis_turns_block_equals_choose_kernel_bitwise(self, turns, width):
        t = np.array(turns)
        assert _same_bits(cis_turns_block(t), _choose_cis_turns_block(t))
        t = np.resize(t, (len(turns), width))  # the characters x atoms layout
        assert _same_bits(cis_turns_block(t), _choose_cis_turns_block(t))

    @given(
        st.lists(st.floats(-0.5, 0.5, exclude_max=True), min_size=1, max_size=40),
        st.lists(st.integers(-(2**53), 2**53), min_size=1, max_size=20),
    )
    def test_torus_block_equals_column_loop_bitwise(self, turns, ells):
        # one broadcast product per call, against one column per character
        values, chars = np.array(turns), [character(T, ell) for ell in ells]
        phases = np.empty((len(values), len(chars)))
        for k, chi in enumerate(chars):
            phases[:, k] = chi.ell * values
        assert _same_bits(char_eval_block(T, chars, values), _choose_cis_turns_block(phases))

    def test_quarter_turn_elements_bit_exact(self):
        T = torus_group()
        xs = [from_turns(T, t) for t in (0.0, 0.25, -0.25, -0.5)]
        values = np.array([element_value(x) for x in xs])
        got = char_eval_block(T, [character(T, 1)], values)[:, 0]
        for x, z in zip(xs, got):
            assert _bits(z) == _bits(ref.char_eval(character(T, 1), x))
        g = padic_group(2, 4)
        chi = character(g, 1, 1)  # phases residue/4 turns
        xs = [from_int(g, r) for r in range(8)]
        values = np.array([x.residue for x in xs], dtype=block_dtype(g))
        for x, z in zip(xs, char_eval_block(g, [chi], values)[:, 0]):
            assert _bits(z) == _bits(ref.char_eval(chi, x))

    def test_mismatched_character_rejected(self):
        with pytest.raises(GroupMismatchError):
            char_eval_block(torus_group(), [character(padic_group(2), 1)], np.zeros(3))

    def test_depth_overflow(self):
        g = padic_group(2, 3)
        with pytest.raises(DepthOverflowError):
            char_eval_block(g, [character(g, 1, 5)], np.zeros(3, dtype=np.int64))

    def test_block_arithmetic_matches_scalar(self, any_group, rng):
        x = random_element(any_group, rng)
        y = random_element(any_group, rng)
        counts = rng.integers(0, 10**12, size=50)
        got = scale_block(any_group, counts, element_value(x))
        got = add_block(any_group, got, element_value(y))
        for c, v in zip(counts, got):
            want = add(scale(int(c), x), y)
            assert elements_close(ref.element(any_group, v), want)

    def test_large_modulus_blocks_hold_python_ints(self):
        assert block_dtype(padic_group(2, 29)) == np.int64
        assert block_dtype(padic_group(2, 30)) is object
        g = padic_group(101, 8)
        x = from_int(g, g.modulus - 3)
        got = scale_block(g, np.array([10**15, 7]), x.residue)
        assert list(got) == [scale(10**15, x).residue, scale(7, x).residue]


class TestLocalInner:
    def test_torus_example(self):
        g = local_inner(from_angle(T, 2.0), character(T, 3))
        assert g == pytest.approx(3.0 * (math.pi - 2.0), abs=1e-12)

    def test_padic_vanishes(self, rng):
        g = padic_group(3, 4)
        for _ in range(20):
            chi = _random_char(g, rng)
            assert local_inner(random_element(g, rng), chi) == 0.0

    def test_solenoid_example(self):
        g = solenoid_group(2, 2)
        x = from_base_angle(g, 0.4)
        assert local_inner(x, character(g, 2, 1)) == pytest.approx(0.4, abs=1e-12)

    def test_integer_slope_exact_torus(self, rng):
        # g(x, chi_l) is exactly l times g(x, chi_1), bit for bit
        for _ in range(200):
            x = random_element(T, rng)
            ell = int(rng.integers(-10, 11))
            assert local_inner(x, character(T, ell)) == ell * local_inner(
                x, character(T, 1)
            )

    def test_additive_in_index_torus(self, rng):
        # the sum form incurs independent roundings of the two summands, so
        # the error bound scales with their magnitudes, not the result's
        for _ in range(200):
            x = random_element(T, rng)
            l1, l2 = int(rng.integers(-10, 11)), int(rng.integers(-10, 11))
            lhs = local_inner(x, character(T, l1 + l2))
            rhs = local_inner(x, character(T, l1)) + local_inner(x, character(T, l2))
            h = abs(local_inner(x, character(T, 1)))
            assert abs(lhs - rhs) <= (abs(l1) + abs(l2) + 1) * h * 3e-16

    def test_additive_in_index_solenoid_shared_depth(self, rng):
        g = solenoid_group(2, 5)
        for _ in range(200):
            x = random_element(g, rng)
            d = int(rng.integers(0, 4))
            l1, l2 = int(rng.integers(-10, 11)), int(rng.integers(-10, 11))
            lhs = local_inner(x, character(g, l1 + l2, d))
            rhs = local_inner(x, character(g, l1, d)) + local_inner(x, character(g, l2, d))
            h = abs(local_inner(x, character(g, 1, d)))
            assert abs(lhs - rhs) <= (abs(l1) + abs(l2) + 1) * h * 3e-16

    def test_odd(self, any_group, rng):
        for _ in range(200):
            x = random_element(any_group, rng)
            chi = _random_char(any_group, rng)
            assert local_inner(neg(x), chi) == pytest.approx(
                -local_inner(x, chi), abs=1e-14
            )


class TestLocalIdentity:
    """chi(x) = exp(i g(x, chi)) near the identity."""

    def test_torus(self, rng):
        for _ in range(500):
            theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
            ell = int(rng.integers(-8, 9))
            x = from_angle(T, theta)
            chi = character(T, ell)
            expected = complex(
                math.cos(local_inner(x, chi)), math.sin(local_inner(x, chi))
            )
            assert abs(char_eval(chi, x) - expected) <= 1e-10

    def test_solenoid(self, rng):
        g = solenoid_group(2, 6)
        for _ in range(500):
            d = int(rng.integers(0, 4))
            ell = int(rng.integers(-8, 9))
            u = float(rng.uniform(-math.pi / (2 * 2**d), math.pi / (2 * 2**d)))
            x = from_turns(g, (u / (2 * math.pi)) / 2 ** (g.depth - d))
            chi = character(g, ell, d)
            gval = local_inner(x, chi)
            expected = complex(math.cos(gval), math.sin(gval))
            assert abs(char_eval(chi, x) - expected) <= 1e-10

    def test_padic_identity_on_annihilating_subgroup(self):
        # chi_{d,l} is exactly 1 on lambda(d+1): enumerate all of it
        g = padic_group(2, 4)
        for d in range(3):
            for ell in range(2 ** (d + 1)):
                chi = character(g, ell, d)
                for free in range(2 ** (g.depth - d)):
                    x = from_int(g, free * 2 ** (d + 1))
                    assert char_eval(chi, x) == pytest.approx(1.0, abs=1e-12)


class TestNeighborhoods:
    def test_torus_membership(self):
        U = Neighborhood(T, eps=0.2)
        assert in_nbhd(from_angle(T, 0.1), U)
        assert not in_nbhd(from_angle(T, 0.3), U)

    def test_padic_membership(self):
        g = padic_group(2, 2)
        x = from_digits(g, (0, 1, 0))
        assert in_nbhd(x, Neighborhood(g, rank=1))
        assert not in_nbhd(x, Neighborhood(g, rank=2))

    def test_identity_in_everything(self, any_group):
        if any_group.kind == "padic":
            U = Neighborhood(any_group, rank=2)
        elif any_group.kind == "torus":
            U = Neighborhood(any_group, eps=0.01)
        else:
            U = Neighborhood(any_group, eps=0.01, d=2)
        assert in_nbhd(identity(any_group), U)

    def test_solenoid_checks_all_coordinates(self):
        g = solenoid_group(2, 4)
        # base coordinate angle large, deep coordinate small
        x = from_turns(g, 0.3 / 2**4)
        assert abs(coordinate_arg(x, 4)) < 0.2
        assert not in_nbhd(x, Neighborhood(g, eps=0.2, d=4))

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            Neighborhood(T, eps=0.0)
        with pytest.raises(ValueError):
            Neighborhood(T, eps=4.0)

    def test_torus_takes_no_depth(self):
        # the torus is the tower of depth 0: d = 0 is its only coordinate
        assert Neighborhood(T, eps=1.0, d=0) == Neighborhood(T, eps=1.0)
        for d in (1, -1):
            with pytest.raises(DepthOverflowError, match="neighborhood depth beyond working depth"):
                Neighborhood(T, eps=1.0, d=d)


# solenoids deep enough that base-coordinate gaps of order 1 are deepest
# gaps below ATOM_TOL_TURNS (p^depth = 8.5e11 and 1.1e12)
DEEP_SOLENOIDS = [solenoid_group(3, 25), solenoid_group(1021, 4)]


class TestTowerRule:
    @pytest.mark.parametrize("g", DEEP_SOLENOIDS, ids=GroupId.describe)
    def test_distinct_base_angles_are_distinct_elements(self, g):
        x, y = from_base_angle(g, 0.6), from_base_angle(g, 1.2)
        assert abs(x.turns - y.turns) < 1e-12
        assert not elements_close(x, y)
        assert elements_close(x, from_base_angle(g, 0.6))

    @pytest.mark.parametrize("g", DEEP_SOLENOIDS + [solenoid_group(2, 8), T], ids=GroupId.describe)
    def test_gauge_reads_the_largest_coordinate(self, g):
        x = from_turns(g, base_turns(g, 1.0))  # arg y_0 = 1 rad, arg y_j = 1 / p^j
        assert tower_gauge(x, identity(g)) == pytest.approx(1.0 / TWO_PI, rel=1e-9)
        assert tower_gauge(x, identity(g), TWO_PI) == pytest.approx(1.0, rel=1e-9)

    def test_block_rule_and_its_scalar_twin_agree(self, rng):
        for g in DEEP_SOLENOIDS + [solenoid_group(3, 6), T, padic_group(5, 3)]:
            if g.kind == "padic":
                u = np.array([element_value(random_element(g, rng)) for _ in range(60)])
                near = (u + rng.integers(0, 2, size=60)) % g.modulus
            else:  # on the branch-0 tower, half or twice the tolerance apart on y_0
                u = base_turns(g, rng.uniform(-3.0, 3.0, 60))
                near = u + rng.choice([-2.0, -0.5, 0.5, 2.0], 60) * 1e-12 / g.base_scale
            v = neg_block(g, u)
            assert v.tolist() == [element_value(ref.neg(ref.element(g, a))) for a in u.tolist()]
            for w in (v, near):
                twins = [ref.same_value(g, a, b) for a, b in zip(u.tolist(), w.tolist())]
                assert same_block(g, u, w).tolist() == twins
            assert 0 < sum(twins) < 60
            assert same_block(g, u, u).all()

    @pytest.mark.parametrize("g", DEEP_SOLENOIDS + [T], ids=GroupId.describe)
    def test_twins_agree_near_the_wrap(self, g, rng):
        # 10^5 pairs: -1/2 and turns a few hundred 2^-54 steps inside either
        # side of the wrap, each against one within a few gaps of it or of
        # its inverse, and uniform pairs
        n, s = 10**5, g.base_scale
        steps = np.arange(1, 300) * 2**-54
        edges = np.concatenate([[-0.5], -0.5 + steps, 0.5 - steps])
        u = np.where(rng.random(n) < 0.5, rng.choice(edges, n), rng.uniform(-0.5, 0.5, n))
        near = u * rng.choice([1.0, -1.0], n) + rng.uniform(-3.0, 3.0, n) * 1e-12 / s
        v = np.where(rng.random(n) < 0.9, reduce_turns_block(near), rng.uniform(-0.5, 0.5, n))
        block = same_block(g, u, v)
        pairs = list(zip(u.tolist(), v.tolist()))
        assert block.tolist() == [ref.same_value(g, a, b) for a, b in pairs]
        assert block.tolist() == [same_block(g, a, b) for a, b in pairs]  # one pair of scalars
        assert 0.1 < block.mean() < 0.9
        # -1/2 - (1/2 - 2^-54) rounds to -1, yet the pair is 2^-54 turns apart
        assert same_block(g, -0.5, 0.5 - 2**-54) is (2**-54 * s <= 1e-12)


class TestPadicMetric:
    def test_examples(self):
        g = padic_group(2, 6)
        x = from_digits(g, (1, 0, 1, 0, 0, 0, 0))
        assert padic_metric(x, x) == 0.0
        y = from_digits(g, (1, 0, 0, 0, 0, 0, 0))
        assert padic_metric(x, y) == 0.25
        z = from_digits(g, (0, 0, 1, 0, 0, 0, 0))
        assert padic_metric(x, z) == 1.0

    def test_requires_padic(self):
        with pytest.raises(ValueError):
            padic_metric(identity(T), identity(T))

    def test_invariance_and_triangle(self, rng):
        g = padic_group(3, 6)
        for _ in range(2000):
            x, y, z = (random_element(g, rng) for _ in range(3))
            assert padic_metric(add(x, z), add(y, z)) == padic_metric(x, y)
            assert padic_metric(x, y) <= padic_metric(x, z) + padic_metric(z, y)

    def test_ultrametric(self, rng):
        g = padic_group(2, 8)
        for _ in range(2000):
            x, y, z = (random_element(g, rng) for _ in range(3))
            assert padic_metric(x, y) <= max(padic_metric(x, z), padic_metric(z, y))


class TestAnnihilator:
    def test_torus_divisibility(self):
        H3 = cyclic_subgroup(T, 3)
        assert annihilator_contains(H3, character(T, 6))
        assert not annihilator_contains(H3, character(T, 4))

    def test_torus_full(self):
        assert annihilator_contains(full_subgroup(T), character(T, 0))
        assert not annihilator_contains(full_subgroup(T), character(T, 1))

    def test_trivial_subgroup_annihilates_nothing(self, any_group, rng):
        H = trivial_subgroup(any_group)
        for _ in range(20):
            assert annihilator_contains(H, _random_char(any_group, rng))

    def test_padic_example(self):
        g = padic_group(2, 4)
        assert annihilator_contains(lambda_subgroup(g, 1), character(g, 2, 1))
        assert not annihilator_contains(lambda_subgroup(g, 1), character(g, 1, 1))

    def test_padic_matches_enumeration_oracle(self):
        # brute-force: chi annihilates lambda(r) iff chi is 1 on all of it
        g = padic_group(2, 4)
        for r in range(0, 4):
            for d in range(0, 3):
                for ell in range(2 ** (d + 1)):
                    chi = character(g, ell, d)
                    brute = all(
                        abs(char_eval(chi, from_int(g, u * 2**r)) - 1.0) < 1e-9
                        for u in range(2 ** (g.depth + 1 - r))
                    )
                    assert annihilator_contains(lambda_subgroup(g, r), chi) == brute

    def test_torus_matches_enumeration_oracle(self):
        for r in range(1, 8):
            H = cyclic_subgroup(T, r)
            for ell in range(-12, 13):
                chi = character(T, ell)
                brute = all(
                    abs(char_eval(chi, from_turns(T, j / r - round(j / r))) - 1.0) < 1e-9
                    for j in range(r)
                )
                assert annihilator_contains(H, chi) == brute

    def test_solenoid(self):
        g = solenoid_group(2, 3)
        assert annihilator_contains(full_subgroup(g), character(g, 0, 2))
        assert not annihilator_contains(full_subgroup(g), character(g, 1, 2))
        # l = p*l' at depth d equals l' at depth d-1, still nontrivial
        assert not annihilator_contains(full_subgroup(g), character(g, 2, 1))


class TestSolenoidLift:
    def test_branch_zero(self):
        g = solenoid_group(2, 3)
        x = from_angle(g, 0.4)
        y = solenoid_lift(x, 0)
        assert y.group.depth == 4
        assert coordinate_arg(y, 4) == pytest.approx(0.2, abs=1e-15)

    def test_branch_one_canonicalized(self):
        g = solenoid_group(2, 3)
        y = solenoid_lift(from_angle(g, 0.4), 1)
        assert coordinate_arg(y, 4) == pytest.approx(0.2 + math.pi - 2 * math.pi, abs=1e-12)

    def test_round_trip(self, rng):
        g = solenoid_group(3, 2)
        for _ in range(100):
            x = random_element(g, rng)
            k = int(rng.integers(0, 3))
            assert elements_close(solenoid_project(solenoid_lift(x, k)), x)

    def test_lift_consistent_coordinates(self, rng):
        # lifting must not disturb the coordinates already tracked
        g = solenoid_group(2, 3)
        for _ in range(50):
            x = random_element(g, rng)
            y = solenoid_lift(x, int(rng.integers(0, 2)))
            for j in range(4):
                assert coordinate_arg(y, j) == pytest.approx(
                    coordinate_arg(x, j), abs=1e-12
                )

    def test_branch_out_of_range(self):
        g = solenoid_group(2, 3)
        with pytest.raises(ValueError):
            solenoid_lift(identity(g), 2)


class TestScale:
    def test_matches_repeated_addition(self, any_group, rng):
        for _ in range(100):
            x = random_element(any_group, rng)
            k = int(rng.integers(0, 20))
            acc = identity(any_group)
            for _ in range(k):
                acc = add(acc, x)
            assert elements_close(scale(k, x), acc)

    def test_negative_scale(self, any_group, rng):
        x = random_element(any_group, rng)
        assert elements_close(scale(-3, x), neg(scale(3, x)))
