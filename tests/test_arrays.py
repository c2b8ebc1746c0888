import math

import numpy as np
import pytest

from lcalim import measures
from lcalim.arrays import (
    PackedRow,
    TriangularArray,
    _power,
    bernoulli_array,
    bernoulli_rate,
    constant,
    general_array,
    generating_subgroup,
    iid_symmetric_array,
    infinitesimality_stat,
    linear,
    pack_rows,
    power,
    rademacher_array,
    row_distribution,
    row_ft_exact,
    sum_cylinder,
    sum_local_means,
    sum_tail,
    sum_var_g,
    symmetric_stat,
    table,
)
from lcalim.groups import (
    GroupId,
    Neighborhood,
    add,
    character,
    cyclic_subgroup,
    elements_close,
    from_angle,
    from_base_angle,
    from_int,
    from_turns,
    full_subgroup,
    identity,
    lambda_subgroup,
    neg,
    padic_group,
    scale,
    solenoid_group,
    torus_group,
    trivial_subgroup,
)
from lcalim.groups import char_eval_block
from lcalim.arrays import check_null_rule
from lcalim.verify import default_characters, default_neighborhoods

import reference as ref
from test_groups import DEEP_SOLENOIDS
from reference import cylinder_mass, local_mean, measure_ft, tail_mass_measure

T = torus_group()
GRID = (100, 1_000, 10_000, 100_000, 1_000_000)


def torus_rademacher(coef=1.0, exp=-0.5):
    return rademacher_array(T, K=linear(1.0), angle=power(coef, exp))


def padic_bernoulli(coef=2.0, exp=-1.0, p=2):
    g = padic_group(p)
    return bernoulli_array(g, from_int(g, 1), p=power(coef, exp), K=linear(1.0))


class TestSchedules:
    def test_kinds(self):
        assert constant(5.0)(123) == 5.0
        assert linear(2.0)(10) == 20.0
        assert power(3.0, -0.5)(100) == pytest.approx(0.3)
        assert table({10: 1.5, 20: 2.5})(20) == 2.5

    def test_table_missing_entry(self):
        with pytest.raises(KeyError):
            table({10: 1.0})(11)


def _same_table(row, want):
    """Equal values, weights, starts and copies, bit for bit (object
    residues by value)."""
    if want.values.dtype == object:
        values = row.values.tolist() == want.values.tolist()
    else:
        values = row.values.tobytes() == want.values.tobytes()
    return (
        row.values.dtype == want.values.dtype
        and values
        and row.weights.tobytes() == want.weights.tobytes()
        and row.starts.tolist() == want.starts.tolist()
        and row.copies == want.copies
    )


class TestRowDist:
    # the table of row n: the entries' atoms and weights, taken copies times
    def test_rademacher_rows(self):
        arr = torus_rademacher()
        row = arr.packed(100)
        assert row.copies == 100 and row.starts.tolist() == [0]
        assert row.weights.tolist() == [0.5, 0.5]
        xs = [from_turns(T, t) for t in row.values.tolist()]
        assert elements_close(xs[0], neg(xs[1]))

    def test_bernoulli_rows(self):
        arr = padic_bernoulli()
        row = arr.packed(100)
        assert row.copies == 100 and row.starts.tolist() == [0]
        weights = sorted(row.weights.tolist())
        assert weights == [pytest.approx(0.02), pytest.approx(0.98)]

    def test_general_rows_are_positional(self):
        x = from_angle(T, 0.5)
        rows = (
            row_distribution(T, [(identity(T), 1.0)]),
            row_distribution(T, [(x, 1.0)]),
        )
        arr = general_array(T, lambda n: rows)
        row = arr.packed(7)
        assert row.values.tolist() == [0.0, x.turns]
        assert row.starts.tolist() == [0, 1] and row.copies == 1
        assert arr.row_count(7) == 2

    def test_row_distribution_mass_check(self):
        with pytest.raises(ValueError, match="mass"):
            row_distribution(T, [(identity(T), 0.7)])

    def test_iid_symmetric_rejects_asymmetric(self):
        dist = row_distribution(T, [(from_angle(T, 0.4), 0.6), (from_angle(T, -0.4), 0.4)])
        arr = iid_symmetric_array(T, lambda n: dist, K=linear(1.0))
        with pytest.raises(ValueError, match="symmetric"):
            arr.packed(10)

    def test_bernoulli_validation(self):
        g = padic_group(2)
        with pytest.raises(ValueError, match="identity"):
            bernoulli_array(g, identity(g), p=constant(0.1), K=linear(1.0))
        arr = bernoulli_array(g, from_int(g, 1), p=constant(1.5), K=linear(1.0))
        with pytest.raises(ValueError, match="outside"):
            arr.packed(10)

    @pytest.mark.parametrize("g", DEEP_SOLENOIDS, ids=GroupId.describe)
    def test_deep_solenoid_bernoulli_atom_accepted(self, g):
        arr = bernoulli_array(g, from_base_angle(g, 0.5), p=constant(0.1), K=constant(10.0))
        assert arr.packed(1).values.tolist() == [from_base_angle(g, 0.5).turns, 0.0]

    def test_k_must_be_positive_integer(self):
        arr = rademacher_array(T, K=constant(0.0), angle=power(1.0, -0.5))
        with pytest.raises(ValueError, match="positive integer"):
            arr.row_count(10)

    def test_general_row_needs_an_entry(self):
        arr = general_array(T, lambda n: ())
        message = r"^row count K_n must be a positive integer; got 0 at n=3$"
        with pytest.raises(ValueError, match=message):
            arr.row_count(3)
        with pytest.raises(ValueError, match=message):
            row_ft_exact(arr, (3,), (character(T, 1),))
        assert arr._packed == {}  # a rejected row is not kept


class TestCharMoment:
    def test_rademacher_cosine(self):
        dist = row_distribution(
            T, [(from_angle(T, math.pi / 4), 0.5), (from_angle(T, -math.pi / 4), 0.5)]
        )
        z = measure_ft(dist, character(T, 1))
        assert z == pytest.approx(math.cos(math.pi / 4), abs=1e-14)
        assert z.imag == 0.0

    def test_bernoulli_at_sign_character(self):
        g = padic_group(2)
        dist = row_distribution(g, [(from_int(g, 1), 0.1), (identity(g), 0.9)])
        # chi with chi(x) = -1
        z = measure_ft(dist, character(g, 1, 0))
        assert z == pytest.approx(0.8, abs=1e-14)

    def test_trivial_character(self):
        arr = torus_rademacher()
        assert arr.packed(50).moments((character(T, 0),))[0, 0] == pytest.approx(1.0)


class TestRowFtExact:
    def test_rademacher_fourth_power(self):
        arr = rademacher_array(
            T, K=constant(4.0), angle=table({9: math.pi / 4})
        )
        got = row_ft_exact(arr, (9,), (character(T, 1),))[0][0]
        assert got == pytest.approx(math.cos(math.pi / 4) ** 4, abs=1e-12)
        assert got.imag == 0.0

    def test_bernoulli_scalar_power_oracle(self):
        g = padic_group(2)
        arr = bernoulli_array(g, from_int(g, 1), p=constant(0.02), K=constant(100.0))
        got = row_ft_exact(arr, (1,), (character(g, 1, 0),))[0][0]
        assert got == pytest.approx(0.96**100, abs=1e-12)
        assert got == pytest.approx(0.0168703, abs=1e-7)

    def test_trivial_character_exactly_one(self):
        arr = torus_rademacher()
        for n in GRID:
            assert row_ft_exact(arr, (n,), (character(T, 0),))[0][0] == 1.0

    def test_zero_moment_returns_exact_zero(self):
        # atoms at +-i: the moment vanishes exactly, so must the power
        dist = row_distribution(T, [(from_turns(T, 0.25), 0.5), (from_turns(T, -0.25), 0.5)])
        arr = iid_symmetric_array(T, lambda n: dist, K=linear(1.0))
        assert measure_ft(dist, character(T, 1)) == 0.0
        assert row_ft_exact(arr, (10**9,), (character(T, 1),))[0][0] == 0.0

    def test_huge_rows_no_loop(self):
        arr = torus_rademacher()
        # K_n = 1e9 must return promptly and match exp(K log z)
        got = row_ft_exact(arr, (10**9,), (character(T, 1),))[0][0]
        z = math.cos(1.0 / math.sqrt(1e9))
        assert got == pytest.approx(math.exp(1e9 * math.log(z)), rel=1e-12)

    def test_negative_real_moment_signs(self):
        dist = row_distribution(T, [(from_angle(T, -math.pi), 1.0)])
        arr = iid_symmetric_array(T, lambda n: dist, K=linear(1.0))
        # moment is exactly -1; odd/even powers alternate sign exactly
        assert row_ft_exact(arr, (3,), (character(T, 1),))[0][0] == -1.0
        assert row_ft_exact(arr, (4,), (character(T, 1),))[0][0] == 1.0

    def test_general_rows_product(self):
        x = from_angle(T, 0.8)
        rows = (
            row_distribution(T, [(x, 1.0)]),
            row_distribution(T, [(x, 0.5), (neg(x), 0.5)]),
        )
        arr = general_array(T, lambda n: rows)
        chi = character(T, 2)
        expected = measure_ft(rows[0], chi) * measure_ft(rows[1], chi)
        assert row_ft_exact(arr, (1,), (chi,))[0][0] == pytest.approx(expected, abs=1e-14)

    def test_modulus_bounded(self):
        arr = padic_bernoulli()
        g = arr.group
        for n in (100, 10_000):
            for d in range(3):
                for ell in range(2 ** (d + 1)):
                    chi = character(g, ell, d)
                    assert abs(row_ft_exact(arr, (n,), (chi,))[0][0]) <= 1.0 + 1e-12

    def test_symmetric_rows_real(self):
        arr = torus_rademacher()
        for n in GRID:
            for ell in range(1, 9):
                assert abs(row_ft_exact(arr, (n,), (character(T, ell),))[0][0].imag) <= 1e-10

    def test_symmetric_power_identity(self):
        # row FT equals (1 - gap/K)^K for i.i.d. symmetric rows
        arr = torus_rademacher()
        for n in (100, 10_000, 1_000_000):
            K = arr.row_count(n)
            for ell in (1, 3, 7):
                chi = character(T, ell)
                lhs = row_ft_exact(arr, (n,), (chi,))[0][0]
                rhs = (1.0 - symmetric_stat(arr, (n,), (chi,))[0][0] / K) ** K
                assert abs(lhs - rhs) <= 1e-10


class TestSums:
    def test_sum_local_means_symmetric(self):
        arr = torus_rademacher()
        assert sum_local_means(arr, (1000,))[0] == identity(T)

    def test_sum_local_means_padic(self):
        arr = padic_bernoulli()
        assert sum_local_means(arr, (1000,))[0] == identity(arr.group)

    def test_sum_local_means_torus_bernoulli(self):
        x = from_angle(T, 0.3)
        arr = bernoulli_array(T, x, p=constant(0.1), K=constant(10.0))
        got = sum_local_means(arr, (1,))[0]
        assert elements_close(got, x)

    @pytest.mark.parametrize(
        "stat, args",
        [
            pytest.param(stat, args, id=stat.__name__)
            for stat, args in (
                (sum_local_means, ()),
                (row_ft_exact, ((character(T, 3),),)),
                (sum_var_g, ((character(T, 2),),)),
                (sum_tail, ((Neighborhood(T, eps=0.3),),)),
                (infinitesimality_stat, ((Neighborhood(T, eps=0.3),),)),
                (sum_cylinder, (((from_int(padic_group(2), 3), 2),),)),
            )
        ],
    )
    def test_sum_local_means_matches_rowwise_oracle(self, stat, args):
        # closed form against explicit general rows
        g = padic_group(2) if stat is sum_cylinder else T
        x = from_int(g, 3) if stat is sum_cylinder else from_angle(T, 0.5)
        dist = row_distribution(g, [(x, 0.2), (identity(g), 0.8)])
        arr_iid = bernoulli_array(g, x, p=constant(0.2), K=constant(7.0))
        arr_gen = general_array(g, lambda n: (dist,) * 7)
        got, want = stat(arr_iid, (5,), *args)[0], stat(arr_gen, (5,), *args)[0]
        if isinstance(got, tuple):
            got, want = got[0], want[0]
        if stat is sum_local_means:
            assert elements_close(got, want)
        else:
            assert got == pytest.approx(want, abs=1e-12)
            assert got != 0.0

    def test_sum_var_g_rademacher(self):
        arr = rademacher_array(T, K=constant(10_000.0), angle=constant(0.01))
        assert sum_var_g(arr, (1,), (character(T, 1),))[0][0] == pytest.approx(1.0, rel=1e-12)

    def test_sum_var_g_padic_zero(self):
        arr = padic_bernoulli()
        assert sum_var_g(arr, (100,), (character(arr.group, 1, 1),))[0][0] == 0.0

    def test_sum_var_g_point_mass_rows(self):
        x = from_angle(T, 0.3)
        arr = general_array(T, lambda n: (row_distribution(T, [(x, 1.0)]),) * 5)
        assert sum_var_g(arr, (1,), (character(T, 2),))[0][0] == 0.0

    def test_sum_tail_bernoulli(self):
        arr = padic_bernoulli()  # p_n = 2/n, x outside lambda(1)
        U = Neighborhood(arr.group, rank=1)
        for n in GRID:
            assert sum_tail(arr, (n,), (U,))[0][0] == pytest.approx(2.0, rel=1e-12)

    def test_sum_tail_rademacher_inside(self):
        arr = torus_rademacher()
        U = Neighborhood(T, eps=0.5)
        assert sum_tail(arr, (100,), (U,))[0][0] == 0.0  # |arg| = 0.1 < 0.5

    def test_sum_tail_monotone_in_nested_neighborhoods(self):
        arr = bernoulli_array(T, from_angle(T, 1.0), p=power(1.0, -1.0), K=linear(1.0))
        small, big = Neighborhood(T, eps=0.5), Neighborhood(T, eps=2.0)
        for n in GRID:
            assert sum_tail(arr, (n,), (small,))[0][0] >= sum_tail(arr, (n,), (big,))[0][0]

    def test_infinitesimality(self):
        arr = padic_bernoulli()
        U = Neighborhood(arr.group, rank=1)
        assert infinitesimality_stat(arr, (1000,), (U,))[0][0] == pytest.approx(0.002, rel=1e-12)
        arr2 = torus_rademacher()
        assert infinitesimality_stat(arr2, (1000,), (Neighborhood(T, eps=1.0),))[0][0] == 0.0

    def test_infinitesimality_general_rows_max(self):
        x = from_angle(T, 1.0)
        rows = (
            row_distribution(T, [(x, 0.3), (identity(T), 0.7)]),
            row_distribution(T, [(x, 0.1), (identity(T), 0.9)]),
        )
        arr = general_array(T, lambda n: rows)
        U = Neighborhood(T, eps=0.5)
        assert infinitesimality_stat(arr, (1,), (U,))[0][0] == pytest.approx(0.3)


# (l, d) characters and neighborhoods of the packed-row oracle, per group
PACKED_CASES = {
    "torus": ([(1, 0), (-3, 0), (7, 0)], [dict(eps=0.3), dict(eps=2.0)]),
    "padic": ([(1, 0), (5, 2), (17, 5)], [dict(rank=1), dict(rank=2)]),
    "padic-large": ([(1, 0), (200, 1), (12345, 3)], [dict(rank=1), dict(rank=2)]),
    "solenoid": ([(1, 0), (-5, 2), (3, 6)], [dict(eps=1.0), dict(eps=0.5, d=2)]),
}


def _var_local_inner(dist, chi):
    """The variance of g(X, chi) under one row law, term by term: the
    scalar reference of sum_var_g.  Squares are products, as in the vector
    pass (libm's pow(x, 2) can be one ulp off the correctly rounded x * x)."""
    gs = [(w, ref.local_inner(x, chi)) for x, w in ref.atoms(dist)]
    m1 = sum(w * v for w, v in gs)
    m2 = sum(w * (v * v) for w, v in gs)
    return m2 - m1 * m1


def _three_point(n):
    x = from_angle(T, 1.0 / math.sqrt(n))
    return row_distribution(T, [(identity(T), 0.5), (x, 0.25), (neg(x), 0.25)])


def _iid_law(arr, n):
    """The law of every entry of row n of an i.i.d. array, built as its
    constructor builds it."""
    g = arr.group
    if arr.kind == "rademacher":
        x = arr.x(n)
        return row_distribution(g, [(x, 0.5), (neg(x), 0.5)])
    if arr.kind == "bernoulli":
        return row_distribution(g, [(arr.x(n), arr.p(n)), (identity(g), 1.0 - arr.p(n))])
    return _three_point(n)


# i.i.d. arrays of the scalar-reference test, with their PACKED_CASES entry
IID_CASES = {
    "rademacher-torus": (lambda: torus_rademacher(), "torus"),
    "rademacher-solenoid": (
        lambda: rademacher_array(solenoid_group(3, 6), K=linear(1.0), angle=power(1.0, -0.5)),
        "solenoid",
    ),
    "bernoulli-padic": (
        lambda: bernoulli_array(
            padic_group(2, 16), from_int(padic_group(2, 16), 6), p=power(0.5, -1.0), K=linear(1.0)
        ),
        "padic",
    ),
    "bernoulli-padic-large": (
        lambda: bernoulli_array(
            padic_group(101, 8), from_int(padic_group(101, 8), 7 * 101), p=power(0.5, -1.0),
            K=linear(1.0),
        ),
        "padic-large",
    ),
    "symmetric-3-atom": (lambda: iid_symmetric_array(T, _three_point, K=linear(1.0)), "torus"),
}


def _random_general_rows(g, rng, K=80):
    """K rows of 1 to 4 random atoms; padic atoms are multiples of p^j,
    j <= 2, so that neighborhoods and cylinders hold some of them."""
    rows = []
    for _ in range(K):
        w = rng.random(int(rng.integers(1, 5)))
        atoms = []
        for v in w / w.sum():
            if g.kind == "padic":
                x = from_int(g, int(rng.integers(0, g.p**3)) * g.p ** int(rng.integers(0, 3)))
            else:
                x = from_turns(g, float(rng.uniform(-0.5, 0.5)))
            atoms.append((x, float(v)))
        rows.append(row_distribution(g, atoms))
    return tuple(rows)


class TestPackedRows:
    # the packed vector pass against the per-entry scalar reference
    @pytest.mark.parametrize(
        "name, g",
        [
            ("torus", torus_group()),
            ("padic", padic_group(2, 16)),
            ("padic-large", padic_group(101, 8)),
            ("solenoid", solenoid_group(3, 6)),
        ],
    )
    def test_statistics_match_scalar_reference(self, name, g):
        rng = np.random.default_rng(2024)
        rows = _random_general_rows(g, rng)
        arr = general_array(g, lambda n: rows)
        chars, nbhds = PACKED_CASES[name]
        for l, d in chars:
            chi = character(g, l, d)
            want = 1.0
            for dist in rows:
                want *= measure_ft(dist, chi)
            assert abs(row_ft_exact(arr, (1,), (chi,))[0][0] - want) <= 1e-12
            want = sum(_var_local_inner(dist, chi) for dist in rows)
            assert sum_var_g(arr, (1,), (chi,))[0][0] == pytest.approx(want, abs=1e-12)
        for kw in nbhds:
            U = Neighborhood(g, **kw)
            tails = [tail_mass_measure(dist, U) for dist in rows]
            assert 0.0 < sum(tails) < len(rows)
            assert sum_tail(arr, (1,), (U,))[0][0] == pytest.approx(sum(tails), abs=1e-12)
            got = infinitesimality_stat(arr, (1,), (U,))[0][0]
            assert got == pytest.approx(max(tails), abs=1e-12)
        want = identity(g)
        for dist in rows:
            want = add(want, local_mean(dist))
        assert elements_close(sum_local_means(arr, (1,))[0], want)
        if g.kind == "padic":
            for r in (1, 2, 3):
                x0 = ref.atoms(rows[0])[0][0]
                want = sum(cylinder_mass(dist, x0, r) for dist in rows)
                assert want > 0.0
                assert sum_cylinder(arr, (1,), ((x0, r),))[0][0] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 7, 10**6, 10**12])
    @pytest.mark.parametrize("case", sorted(IID_CASES))
    def test_iid_statistics_equal_scalar_reference(self, case, n):
        # an i.i.d. row is one entry taken K_n times: the table pass must
        # give the closed forms of the per-entry scalar functions bit for bit
        make, name = IID_CASES[case]
        arr = make()
        g = arr.group
        chars = tuple(character(g, l, d) for l, d in PACKED_CASES[name][0])
        nbhds = tuple(Neighborhood(g, **kw) for kw in PACKED_CASES[name][1])
        dist, K = _iid_law(arr, n), arr.row_count(n)
        assert K == n
        assert _same_table(arr.packed(n), pack_rows(g, (dist,), K))
        moments = [measure_ft(dist, chi) for chi in chars]
        assert row_ft_exact(arr, (n,), chars)[0] == tuple(_power(z, K) for z in moments)
        assert symmetric_stat(arr, (n,), chars)[0] == tuple(K * (1.0 - z.real) for z in moments)
        want = tuple(K * _var_local_inner(dist, chi) for chi in chars)
        assert sum_var_g(arr, (n,), chars)[0] == want
        tails = tuple(tail_mass_measure(dist, U) for U in nbhds)
        assert sum_tail(arr, (n,), nbhds)[0] == tuple(K * t for t in tails)
        assert infinitesimality_stat(arr, (n,), nbhds)[0] == tails
        assert sum_local_means(arr, (n,))[0] == scale(K, local_mean(dist))
        if g.kind == "padic":
            for r in (1, 2, 3):
                for x0 in (arr.x(n), identity(g), from_int(g, 3)):
                    want = K * cylinder_mass(dist, x0, r)
                    assert sum_cylinder(arr, (n,), ((x0, r),))[0][0] == want

    @pytest.mark.parametrize("g", [torus_group(), solenoid_group(3, 6)], ids=["torus", "solenoid"])
    @pytest.mark.parametrize("entries", [2_000, 7_500])
    def test_chunked_passes_match_one_item_calls(self, g, entries):
        # 4,000 atoms take 4 characters per chunk, 15,000 atoms one
        t = np.random.default_rng(entries).uniform(-0.4, 0.4, entries)
        row = PackedRow(g, np.stack([t, -t], axis=1).ravel(), np.full(2 * entries, 0.5),
                        np.arange(0, 2 * entries, 2))
        arr = TriangularArray(g, "general", lambda n: row)
        depth = 0 if g.kind == "torus" else 2  # solenoid items reach y_0, y_1 and y_2
        ells = ((1, 0), (-2, 0), (3, 1), (5, 2), (8, 0))
        chars = tuple(character(g, l, min(d, depth)) for l, d in ells)
        radii = ((0.1, 0), (0.5, 2), (1.0, 1), (2.0, 0), (3.0, 2))
        nbhds = tuple(Neighborhood(g, eps=e, d=min(d, depth)) for e, d in radii)
        for stat, items in (
            (row_ft_exact, chars),
            (sum_var_g, chars),
            (sum_tail, nbhds),
            (infinitesimality_stat, nbhds),
        ):
            one_at_a_time = tuple(stat(arr, (1,), (item,))[0][0] for item in items)
            assert stat(arr, (1,), items)[0] == one_at_a_time

    def test_table_rule_rows(self):
        g = padic_group(101, 8)
        rows = _random_general_rows(g, np.random.default_rng(5), K=6)
        t = pack_rows(g, rows)
        arr = TriangularArray(g, "general", lambda n: PackedRow(g, t.values, t.weights, t.starts))
        assert arr.row_count(3) == 6
        assert _same_table(arr.packed(3), t) and arr.packed(3) is arr.packed(3)
        assert _same_table(general_array(g, lambda n: rows).packed(3), t)
        chi = character(g, 200, 1)
        assert row_ft_exact(arr, (3,), (chi,))[0] == row_ft_exact(
            general_array(g, lambda n: rows), (3,), (chi,)
        )[0]
        with pytest.raises(ValueError, match="another group"):
            TriangularArray(T, "general", lambda n: t).row_count(1)

    def test_mismatched_row_group_rejected(self):
        g = padic_group(2)
        arr = general_array(T, lambda n: (row_distribution(g, [(identity(g), 1.0)]),))
        with pytest.raises(ValueError, match="another group"):
            row_ft_exact(arr, (1,), (character(T, 1),))


# 40 grid points from 1e2 to 1e12, as in the benchmark sweep
SWEEP = tuple(sorted({round(10 ** (2 + k / 4)) for k in range(41)}))[:40]


def _grid_cases(g):
    """(characters, neighborhoods, cylinders) of the grid-pass tests: the
    defaults, with depth-0 characters only on padic_group(101, 8)."""
    if g.p == 101:  # the default padic set of depth 0, in its order
        chars = tuple(character(g, l) for l in range(g.p))
    else:
        chars = default_characters(g)
    nbhds = default_neighborhoods(g)
    cylinders = ()
    if g.kind == "padic":
        cylinders = tuple((from_int(g, res), r) for r in (1, 2, 3) for res in (1, 3, g.p**r - 1))
    return chars, nbhds, cylinders


def _assert_grid_equals_points(arr, grid, chars, nbhds, cylinders=()):
    # repr tells every float bit pattern apart, signed zeros included
    stats = [(row_ft_exact, chars), (sum_var_g, chars), (sum_tail, nbhds),
             (infinitesimality_stat, nbhds)]
    if arr.kind != "general":
        stats.append((symmetric_stat, chars))
    if arr.group.kind == "padic":
        stats.append((sum_cylinder, cylinders))
    for stat, items in stats:
        whole = stat(arr, grid, items)
        assert len(whole) == len(grid)
        assert repr(whole) == repr(tuple(stat(arr, (n,), items)[0] for n in grid)), stat.__name__
    whole = sum_local_means(arr, grid)
    assert repr(whole) == repr(tuple(sum_local_means(arr, (n,))[0] for n in grid))


GRID_GROUPS = {
    "torus": torus_group(),
    "solenoid": solenoid_group(3, 6),
    "padic": padic_group(2, 16),
    "padic-object": padic_group(101, 8),
}


class TestGridPass:
    # a whole grid in one call must give, bit for bit, what one-point grids give

    @pytest.mark.parametrize("name", sorted(GRID_GROUPS))
    def test_iid_arrays(self, name):
        g = GRID_GROUPS[name]
        if g.kind == "padic":
            x = from_int(g, 5 * g.p)
            arr = bernoulli_array(g, x, p=power(3.0, -1.0), K=linear(1.0))
        else:
            arr = rademacher_array(g, K=linear(1.0), angle=power(1.0, -0.5))
        _assert_grid_equals_points(arr, SWEEP, *_grid_cases(g))

    def test_symmetric_three_atom_rows(self):
        arr = iid_symmetric_array(T, _three_point, K=linear(1.0))
        _assert_grid_equals_points(arr, SWEEP, *_grid_cases(T))

    @pytest.mark.parametrize("name", sorted(GRID_GROUPS))
    def test_bernoulli_rows_losing_an_atom(self, name):
        # p_n = 0 drops the atom x and p_n = 1 the identity: one-atom and
        # two-atom entries then share a block
        g = GRID_GROUPS[name]
        x = from_int(g, 3) if g.kind == "padic" else from_turns(g, 0.3)
        rates = {n: (0.0 if k % 3 == 0 else 1.0 if k % 7 == 0 else 1.0 / n)
                 for k, n in enumerate(SWEEP)}
        arr = bernoulli_array(g, x, p=table(rates), K=linear(1.0))
        widths = {len(arr.packed(n).values) for n in SWEEP}
        assert widths == {1, 2}
        _assert_grid_equals_points(arr, SWEEP, *_grid_cases(g))

    @pytest.mark.parametrize("name", sorted(GRID_GROUPS))
    @pytest.mark.parametrize("equal", [True, False], ids=["equal-rows", "ragged-rows"])
    def test_general_rows(self, name, equal):
        # rows of equal entry counts are folded on a reshape, others one
        # slice per row
        g = GRID_GROUPS[name]
        rng = np.random.default_rng(11)
        grid = (2, 3, 5, 8, 13, 21, 34)
        rows = {n: _random_general_rows(g, rng, K=40 if equal else 3 * n) for n in grid}
        arr = general_array(g, lambda n: rows[n])
        _assert_grid_equals_points(arr, grid, *_grid_cases(g))

    @pytest.mark.parametrize("g", [torus_group(), solenoid_group(3, 6)], ids=["torus", "solenoid"])
    def test_rows_straddling_the_block_bound(self, g, monkeypatch):
        # 5 characters: rows of 200, 800 and 1,200 atoms join (11,000 values),
        # 4,000 atoms run alone in chunks of 4 characters and 18,000 atoms
        # one character at a time
        rng = np.random.default_rng(3)
        grid = (100, 400, 600, 2_000, 9_000)

        def two_atom_row(n):
            t = rng.uniform(-0.4, 0.4, n)
            return PackedRow(g, np.stack([t, -t], axis=1).ravel(), np.full(2 * n, 0.5),
                             np.arange(0, 2 * n, 2))

        rows = {n: two_atom_row(n) for n in grid}
        arr = TriangularArray(g, "general", lambda n: rows[n])
        depth = 0 if g.kind == "torus" else 2
        chars = tuple(character(g, l, min(d, depth)) for l, d in
                      ((1, 0), (-2, 0), (3, 1), (5, 2), (8, 0)))
        nbhds = tuple(Neighborhood(g, eps=e, d=min(d, depth)) for e, d in
                      ((0.1, 0), (0.5, 2), (1.0, 1), (2.0, 0), (3.0, 2)))
        passes = []

        def counting(group, items, values):
            passes.append((len(items), len(values)))
            return char_eval_block(group, items, values)

        monkeypatch.setattr(measures, "char_eval_block", counting)
        row_ft_exact(arr, grid, chars)
        assert passes == [(5, 2_200), (4, 4_000), (1, 4_000)] + [(1, 18_000)] * 5
        _assert_grid_equals_points(arr, grid, chars, nbhds)

    @pytest.mark.parametrize("name", sorted(GRID_GROUPS))
    def test_empty_item_sets(self, name):
        g = GRID_GROUPS[name]
        arr = general_array(g, lambda n: _random_general_rows(g, np.random.default_rng(n), K=n))
        for stat in (row_ft_exact, sum_var_g, sum_tail, infinitesimality_stat, sum_cylinder):
            if stat is sum_cylinder and g.kind != "padic":
                continue
            assert stat(arr, SWEEP[:5], ()) == ((),) * 5
        assert row_ft_exact(arr, (), _grid_cases(g)[0]) == ()


class TestStats:
    def test_symmetric_stat_value(self):
        arr = rademacher_array(T, K=linear(1.0), angle=power(1.0, -0.5))
        got = symmetric_stat(arr, (10_000,), (character(T, 1),))[0][0]
        assert got == pytest.approx(10_000 * (1 - math.cos(0.01)), rel=1e-12)
        assert got == pytest.approx(0.4999958, abs=1e-6)

    def test_symmetric_stat_trivial(self):
        arr = torus_rademacher()
        assert symmetric_stat(arr, (100,), (character(T, 0),))[0][0] == 0.0

    def test_symmetric_stat_bernoulli_sign_char(self):
        arr = padic_bernoulli(coef=1.0, exp=-1.0)
        # chi(x) = -1: K(1 - (1 - 2 p)) = 2 K p
        for n in GRID:
            got = symmetric_stat(arr, (n,), (character(arr.group, 1, 0),))[0][0]
            assert got == pytest.approx(2.0, rel=1e-9)

    def test_symmetric_stat_rejects_general(self):
        arr = general_array(T, lambda n: (row_distribution(T, [(identity(T), 1.0)]),))
        with pytest.raises(ValueError, match="i.i.d."):
            symmetric_stat(arr, (1,), (character(T, 1),))

    def test_bernoulli_rate(self):
        assert bernoulli_rate(padic_bernoulli(), 1000) == pytest.approx(2.0)
        sqrt_arr = padic_bernoulli(coef=1.0, exp=-0.5)
        assert bernoulli_rate(sqrt_arr, 10_000) == pytest.approx(100.0)
        zero = bernoulli_array(T, from_angle(T, 1.0), p=constant(0.0), K=linear(1.0))
        assert bernoulli_rate(zero, 50) == 0.0

    def test_bernoulli_rate_rejects_other_kinds(self):
        with pytest.raises(ValueError, match="Bernoulli"):
            bernoulli_rate(torus_rademacher(), 100)

    def test_proof_identity_gap_decreases(self):
        # |gap - var/2| shrinks along the grid for CLT-type arrays
        arr = torus_rademacher()
        chi = character(T, 2)
        gaps = [
            abs(symmetric_stat(arr, (n,), (chi,))[0][0] - 0.5 * sum_var_g(arr, (n,), (chi,))[0][0])
            for n in GRID
        ]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4


class TestNullRule:
    def test_decreasing_rules_accepted(self):
        from lcalim.arrays import check_null_rule

        check_null_rule(torus_rademacher(), GRID)
        check_null_rule(padic_bernoulli(coef=1.0, exp=-0.5), GRID)

    def test_zero_rule_accepted(self):
        from lcalim.arrays import check_null_rule

        arr = bernoulli_array(T, from_angle(T, 1.0), p=constant(0.0), K=linear(1.0))
        check_null_rule(arr, GRID)

    def test_flat_rate_rejected(self):
        from lcalim.arrays import check_null_rule

        arr = bernoulli_array(T, from_angle(T, 1.0), p=constant(0.3), K=linear(1.0))
        with pytest.raises(ValueError, match="not null"):
            check_null_rule(arr, GRID)

    def test_non_shrinking_rademacher_rejected(self):
        from lcalim.arrays import check_null_rule

        arr = rademacher_array(T, K=linear(1.0), angle=constant(0.5))
        with pytest.raises(ValueError, match="not null"):
            check_null_rule(arr, GRID)

    @pytest.mark.parametrize("g", [solenoid_group(3, 25), solenoid_group(2, 8)], ids=GroupId.describe)
    def test_constant_solenoid_angle_rejected_at_every_depth(self, g):
        # arg y_0 = 1 rad is 0.159 base turns, however small the deepest
        # coordinate's turns (1.9e-13 on solenoid_group(3, 25))
        arr = rademacher_array(g, K=linear(1.0), angle=constant(1.0))
        with pytest.raises(ValueError, match=r"x_n ends at 0\.159155 \(started at 0\.159155\)"):
            check_null_rule(arr, GRID)
        check_null_rule(rademacher_array(g, K=linear(1.0), angle=power(1.0, -0.5)), GRID)

    def test_general_arrays_not_constrained(self):
        from lcalim.arrays import check_null_rule

        dist = row_distribution(T, [(from_angle(T, 1.0), 1.0)])
        check_null_rule(general_array(T, lambda n: (dist,)), GRID)


class TestGeneratingSubgroup:
    def test_padic_first_nonzero_digit(self):
        g = padic_group(2)
        assert generating_subgroup(from_int(g, 1)) == lambda_subgroup(g, 0)
        assert generating_subgroup(from_int(g, 4)) == lambda_subgroup(g, 2)
        assert generating_subgroup(identity(g)) == trivial_subgroup(g)

    def test_torus_rational_angle(self):
        x = from_turns(T, 0.25)
        assert generating_subgroup(x) == cyclic_subgroup(T, 4)
        y = from_turns(T, 1.0 / 3.0)
        assert generating_subgroup(y) == cyclic_subgroup(T, 3)

    def test_torus_irrational_angle(self):
        assert generating_subgroup(from_angle(T, 1.0)) == full_subgroup(T)

    def test_solenoid_undeterminable(self):
        g = solenoid_group(2, 4)
        assert generating_subgroup(from_angle(g, 0.3)) is None
