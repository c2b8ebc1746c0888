import math

import numpy as np
import pytest

from lcalim.arrays import (
    GeneralArray,
    PackedRow,
    _var_local_inner,
    bernoulli_array,
    bernoulli_rate,
    char_moment,
    constant,
    generating_subgroup,
    iid_symmetric_array,
    infinitesimality_stat,
    linear,
    pack_rows,
    power,
    rademacher_array,
    row_dist,
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
    Neighborhood,
    add,
    character,
    cyclic_subgroup,
    elements_close,
    from_angle,
    from_int,
    from_turns,
    full_subgroup,
    identity,
    lambda_subgroup,
    neg,
    padic_group,
    solenoid_group,
    torus_group,
    trivial_subgroup,
)
from lcalim.measures import cylinder_mass, local_mean, tail_mass_measure
from lcalim.verify import predict_limit

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


class TestRowDist:
    def test_rademacher_rows(self):
        arr = torus_rademacher()
        dist = row_dist(arr, 100, 3)
        assert len(dist.atoms) == 2
        assert all(w == 0.5 for _, w in dist.atoms)
        xs = [x for x, _ in dist.atoms]
        assert elements_close(xs[0], neg(xs[1]))

    def test_bernoulli_rows(self):
        arr = padic_bernoulli()
        dist = row_dist(arr, 100, 1)
        weights = sorted(w for _, w in dist.atoms)
        assert weights == [pytest.approx(0.02), pytest.approx(0.98)]

    def test_general_rows_are_positional(self):
        x = from_angle(T, 0.5)
        rows = (
            row_distribution(T, [(identity(T), 1.0)]),
            row_distribution(T, [(x, 1.0)]),
        )
        arr = GeneralArray(T, lambda n: rows)
        assert row_dist(arr, 7, 1) is rows[0]
        assert row_dist(arr, 7, 2) is rows[1]

    def test_index_out_of_range(self):
        arr = torus_rademacher()
        with pytest.raises(IndexError):
            row_dist(arr, 100, 0)
        with pytest.raises(IndexError):
            row_dist(arr, 100, 101)

    def test_row_distribution_mass_check(self):
        with pytest.raises(ValueError, match="mass"):
            row_distribution(T, [(identity(T), 0.7)])

    def test_iid_symmetric_rejects_asymmetric(self):
        dist = row_distribution(T, [(from_angle(T, 0.4), 0.6), (from_angle(T, -0.4), 0.4)])
        arr = iid_symmetric_array(T, lambda n: dist, K=linear(1.0))
        with pytest.raises(ValueError, match="symmetric"):
            arr.iid_dist(10)

    def test_bernoulli_validation(self):
        g = padic_group(2)
        with pytest.raises(ValueError, match="identity"):
            bernoulli_array(g, identity(g), p=constant(0.1), K=linear(1.0))
        arr = bernoulli_array(g, from_int(g, 1), p=constant(1.5), K=linear(1.0))
        with pytest.raises(ValueError, match="outside"):
            arr.iid_dist(10)

    def test_k_must_be_positive_integer(self):
        arr = rademacher_array(T, K=constant(0.0), angle=power(1.0, -0.5))
        with pytest.raises(ValueError, match="positive integer"):
            arr.row_count(10)


class TestCharMoment:
    def test_rademacher_cosine(self):
        dist = row_distribution(
            T, [(from_angle(T, math.pi / 4), 0.5), (from_angle(T, -math.pi / 4), 0.5)]
        )
        z = char_moment(dist, character(T, 1))
        assert z == pytest.approx(math.cos(math.pi / 4), abs=1e-14)
        assert z.imag == 0.0

    def test_bernoulli_at_sign_character(self):
        g = padic_group(2)
        dist = row_distribution(g, [(from_int(g, 1), 0.1), (identity(g), 0.9)])
        # chi with chi(x) = -1
        z = char_moment(dist, character(g, 1, 0))
        assert z == pytest.approx(0.8, abs=1e-14)

    def test_trivial_character(self):
        arr = torus_rademacher()
        assert char_moment(arr.iid_dist(50), character(T, 0)) == pytest.approx(1.0)


class TestRowFtExact:
    def test_rademacher_fourth_power(self):
        arr = rademacher_array(
            T, K=constant(4.0), angle=table({9: math.pi / 4})
        )
        got = row_ft_exact(arr, 9, character(T, 1))
        assert got == pytest.approx(math.cos(math.pi / 4) ** 4, abs=1e-12)
        assert got.imag == 0.0

    def test_bernoulli_scalar_power_oracle(self):
        g = padic_group(2)
        arr = bernoulli_array(g, from_int(g, 1), p=constant(0.02), K=constant(100.0))
        got = row_ft_exact(arr, 1, character(g, 1, 0))
        assert got == pytest.approx(0.96**100, abs=1e-12)
        assert got == pytest.approx(0.0168703, abs=1e-7)

    def test_trivial_character_exactly_one(self):
        arr = torus_rademacher()
        for n in GRID:
            assert row_ft_exact(arr, n, character(T, 0)) == 1.0

    def test_zero_moment_returns_exact_zero(self):
        # atoms at +-i: the moment vanishes exactly, so must the power
        dist = row_distribution(T, [(from_turns(T, 0.25), 0.5), (from_turns(T, -0.25), 0.5)])
        arr = iid_symmetric_array(T, lambda n: dist, K=linear(1.0))
        assert char_moment(dist, character(T, 1)) == 0.0
        assert row_ft_exact(arr, 10**9, character(T, 1)) == 0.0

    def test_huge_rows_no_loop(self):
        arr = torus_rademacher()
        # K_n = 1e9 must return promptly and match exp(K log z)
        got = row_ft_exact(arr, 10**9, character(T, 1))
        z = math.cos(1.0 / math.sqrt(1e9))
        assert got == pytest.approx(math.exp(1e9 * math.log(z)), rel=1e-12)

    def test_negative_real_moment_signs(self):
        dist = row_distribution(T, [(from_angle(T, -math.pi), 1.0)])
        arr = iid_symmetric_array(T, lambda n: dist, K=linear(1.0))
        # moment is exactly -1; odd/even powers alternate sign exactly
        assert row_ft_exact(arr, 3, character(T, 1)) == -1.0
        assert row_ft_exact(arr, 4, character(T, 1)) == 1.0

    def test_general_rows_product(self):
        x = from_angle(T, 0.8)
        rows = (
            row_distribution(T, [(x, 1.0)]),
            row_distribution(T, [(x, 0.5), (neg(x), 0.5)]),
        )
        arr = GeneralArray(T, lambda n: rows)
        chi = character(T, 2)
        expected = char_moment(rows[0], chi) * char_moment(rows[1], chi)
        assert row_ft_exact(arr, 1, chi) == pytest.approx(expected, abs=1e-14)

    def test_modulus_bounded(self):
        arr = padic_bernoulli()
        g = arr.group
        for n in (100, 10_000):
            for d in range(3):
                for ell in range(2 ** (d + 1)):
                    assert abs(row_ft_exact(arr, n, character(g, ell, d))) <= 1.0 + 1e-12

    def test_symmetric_rows_real(self):
        arr = torus_rademacher()
        for n in GRID:
            for ell in range(1, 9):
                assert abs(row_ft_exact(arr, n, character(T, ell)).imag) <= 1e-10

    def test_symmetric_power_identity(self):
        # row FT equals (1 - gap/K)^K for i.i.d. symmetric rows
        arr = torus_rademacher()
        for n in (100, 10_000, 1_000_000):
            K = arr.row_count(n)
            for ell in (1, 3, 7):
                chi = character(T, ell)
                lhs = row_ft_exact(arr, n, chi)
                rhs = (1.0 - symmetric_stat(arr, n, chi) / K) ** K
                assert abs(lhs - rhs) <= 1e-10


class TestSums:
    def test_sum_local_means_symmetric(self):
        arr = torus_rademacher()
        assert sum_local_means(arr, 1000) == identity(T)

    def test_sum_local_means_padic(self):
        arr = padic_bernoulli()
        assert sum_local_means(arr, 1000) == identity(arr.group)

    def test_sum_local_means_torus_bernoulli(self):
        x = from_angle(T, 0.3)
        arr = bernoulli_array(T, x, p=constant(0.1), K=constant(10.0))
        got = sum_local_means(arr, 1)
        assert elements_close(got, x, 1e-12)

    @pytest.mark.parametrize(
        "stat, args",
        [
            pytest.param(stat, args, id=stat.__name__)
            for stat, args in (
                (sum_local_means, ()),
                (row_ft_exact, (character(T, 3),)),
                (sum_var_g, (character(T, 2),)),
                (sum_tail, (Neighborhood(T, eps=0.3),)),
                (infinitesimality_stat, (Neighborhood(T, eps=0.3),)),
                (sum_cylinder, (from_int(padic_group(2), 3), 2)),
            )
        ],
    )
    def test_sum_local_means_matches_rowwise_oracle(self, stat, args):
        # closed form against explicit general rows
        g = padic_group(2) if stat is sum_cylinder else T
        x = from_int(g, 3) if stat is sum_cylinder else from_angle(T, 0.5)
        dist = row_distribution(g, [(x, 0.2), (identity(g), 0.8)])
        arr_iid = bernoulli_array(g, x, p=constant(0.2), K=constant(7.0))
        arr_gen = GeneralArray(g, lambda n: (dist,) * 7)
        got, want = stat(arr_iid, 5, *args), stat(arr_gen, 5, *args)
        if stat is sum_local_means:
            assert elements_close(got, want, 1e-12)
        else:
            assert got == pytest.approx(want, abs=1e-12)
            assert got != 0.0

    def test_sum_var_g_rademacher(self):
        arr = rademacher_array(T, K=constant(10_000.0), angle=constant(0.01))
        assert sum_var_g(arr, 1, character(T, 1)) == pytest.approx(1.0, rel=1e-12)

    def test_sum_var_g_padic_zero(self):
        arr = padic_bernoulli()
        assert sum_var_g(arr, 100, character(arr.group, 1, 1)) == 0.0

    def test_sum_var_g_point_mass_rows(self):
        x = from_angle(T, 0.3)
        arr = GeneralArray(T, lambda n: (row_distribution(T, [(x, 1.0)]),) * 5)
        assert sum_var_g(arr, 1, character(T, 2)) == 0.0

    def test_sum_tail_bernoulli(self):
        arr = padic_bernoulli()  # p_n = 2/n, x outside lambda(1)
        U = Neighborhood(arr.group, rank=1)
        for n in GRID:
            assert sum_tail(arr, n, U) == pytest.approx(2.0, rel=1e-12)

    def test_sum_tail_rademacher_inside(self):
        arr = torus_rademacher()
        U = Neighborhood(T, eps=0.5)
        assert sum_tail(arr, 100, U) == 0.0  # |arg| = 0.1 < 0.5

    def test_sum_tail_monotone_in_nested_neighborhoods(self):
        arr = bernoulli_array(T, from_angle(T, 1.0), p=power(1.0, -1.0), K=linear(1.0))
        small, big = Neighborhood(T, eps=0.5), Neighborhood(T, eps=2.0)
        for n in GRID:
            assert sum_tail(arr, n, small) >= sum_tail(arr, n, big)

    def test_infinitesimality(self):
        arr = padic_bernoulli()
        U = Neighborhood(arr.group, rank=1)
        assert infinitesimality_stat(arr, 1000, U) == pytest.approx(0.002, rel=1e-12)
        arr2 = torus_rademacher()
        assert infinitesimality_stat(arr2, 1000, Neighborhood(T, eps=1.0)) == 0.0

    def test_infinitesimality_general_rows_max(self):
        x = from_angle(T, 1.0)
        rows = (
            row_distribution(T, [(x, 0.3), (identity(T), 0.7)]),
            row_distribution(T, [(x, 0.1), (identity(T), 0.9)]),
        )
        arr = GeneralArray(T, lambda n: rows)
        assert infinitesimality_stat(arr, 1, Neighborhood(T, eps=0.5)) == pytest.approx(0.3)


# (l, d) characters and neighborhoods of the packed-row oracle, per group
PACKED_CASES = {
    "torus": ([(1, 0), (-3, 0), (7, 0)], [dict(eps=0.3), dict(eps=2.0)]),
    "padic": ([(1, 0), (5, 2), (17, 5)], [dict(rank=1), dict(rank=2)]),
    "padic-large": ([(1, 0), (200, 1), (12345, 3)], [dict(rank=1), dict(rank=2)]),
    "solenoid": ([(1, 0), (-5, 2), (3, 6)], [dict(eps=1.0), dict(eps=0.5, d=2)]),
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
        arr = GeneralArray(g, lambda n: rows)
        chars, nbhds = PACKED_CASES[name]
        for l, d in chars:
            chi = character(g, l, d)
            want = 1.0
            for dist in rows:
                want *= char_moment(dist, chi)
            assert abs(row_ft_exact(arr, 1, chi) - want) <= 1e-12
            want = sum(_var_local_inner(dist, chi) for dist in rows)
            assert sum_var_g(arr, 1, chi) == pytest.approx(want, abs=1e-12)
        for kw in nbhds:
            U = Neighborhood(g, **kw)
            tails = [tail_mass_measure(dist.measure, U) for dist in rows]
            assert 0.0 < sum(tails) < len(rows)
            assert sum_tail(arr, 1, U) == pytest.approx(sum(tails), abs=1e-12)
            assert infinitesimality_stat(arr, 1, U) == pytest.approx(max(tails), abs=1e-12)
        want = identity(g)
        for dist in rows:
            want = add(want, local_mean(dist.measure))
        assert elements_close(sum_local_means(arr, 1), want, 1e-12)
        if g.kind == "padic":
            for r in (1, 2, 3):
                x0 = rows[0].atoms[0][0]
                want = sum(cylinder_mass(dist.measure, x0, r) for dist in rows)
                assert want > 0.0
                assert sum_cylinder(arr, 1, x0, r) == pytest.approx(want, abs=1e-12)

    def test_table_rule_rows(self):
        g = padic_group(101, 8)
        rows = _random_general_rows(g, np.random.default_rng(5), K=6)
        t = pack_rows(g, rows)
        assert t.laws is rows  # the rule's own objects
        arr = GeneralArray(g, table_rule=lambda n: PackedRow(g, t.values, t.weights, t.starts))
        assert arr.row_count(3) == 6
        assert arr.rows(3) == rows and arr.rows(3) is not rows  # built from the table
        assert arr.rows(3) is arr.rows(3)
        chi = character(g, 200, 1)
        assert row_ft_exact(arr, 3, chi) == row_ft_exact(GeneralArray(g, lambda n: rows), 3, chi)
        with pytest.raises(ValueError, match="another group"):
            GeneralArray(T, table_rule=lambda n: t).row_count(1)
        with pytest.raises(TypeError, match="exactly one"):
            GeneralArray(T)

    def test_mismatched_row_group_rejected(self):
        g = padic_group(2)
        arr = GeneralArray(T, lambda n: (row_distribution(g, [(identity(g), 1.0)]),))
        with pytest.raises(ValueError, match="another group"):
            row_ft_exact(arr, 1, character(T, 1))


class TestStats:
    def test_symmetric_stat_value(self):
        arr = rademacher_array(T, K=linear(1.0), angle=power(1.0, -0.5))
        got = symmetric_stat(arr, 10_000, character(T, 1))
        assert got == pytest.approx(10_000 * (1 - math.cos(0.01)), rel=1e-12)
        assert got == pytest.approx(0.4999958, abs=1e-6)

    def test_symmetric_stat_trivial(self):
        arr = torus_rademacher()
        assert symmetric_stat(arr, 100, character(T, 0)) == 0.0

    def test_symmetric_stat_bernoulli_sign_char(self):
        arr = padic_bernoulli(coef=1.0, exp=-1.0)
        # chi(x) = -1: K(1 - (1 - 2 p)) = 2 K p
        for n in GRID:
            got = symmetric_stat(arr, n, character(arr.group, 1, 0))
            assert got == pytest.approx(2.0, rel=1e-9)

    def test_symmetric_stat_rejects_general(self):
        arr = GeneralArray(T, lambda n: (row_distribution(T, [(identity(T), 1.0)]),))
        with pytest.raises(ValueError, match="i.i.d."):
            symmetric_stat(arr, 1, character(T, 1))

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
            abs(symmetric_stat(arr, n, chi) - 0.5 * sum_var_g(arr, n, chi)) for n in GRID
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

    def test_general_arrays_not_constrained(self):
        from lcalim.arrays import check_null_rule

        dist = row_distribution(T, [(from_angle(T, 1.0), 1.0)])
        check_null_rule(GeneralArray(T, lambda n: (dist,)), GRID)


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


class TestPredictLimit:
    def test_rademacher_clt(self):
        pred = predict_limit(torus_rademacher(), GRID)
        assert pred.theorem == "rademacher-clt"
        assert pred.law.b.b == pytest.approx(1.0, abs=1e-6)
        assert pred.law.H.is_trivial()

    def test_bernoulli_poisson_on_padic(self):
        pred = predict_limit(padic_bernoulli(), GRID)
        assert pred.theorem == "bernoulli-poisson"
        assert pred.law.eta.total_mass() == pytest.approx(2.0)
        assert pred.law.a == identity(pred.law.group)

    def test_bernoulli_haar_on_padic(self):
        arr = padic_bernoulli(coef=1.0, exp=-0.5)
        pred = predict_limit(arr, (100, 1000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000))
        assert pred.theorem == "bernoulli-haar"
        assert pred.law.H == full_subgroup(arr.group)

    def test_rademacher_haar(self):
        arr = torus_rademacher(exp=-0.25)
        pred = predict_limit(arr, (100, 1000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000))
        assert pred.theorem == "rademacher-haar"
        assert pred.law.H == full_subgroup(T)

    def test_padic_rademacher_dirac(self):
        g = padic_group(2)
        elements = tuple(
            (n, from_int(g, 2 ** min(3 * int(math.log10(n)), g.depth)))
            for n in GRID
        )
        arr = rademacher_array(g, K=linear(1.0), elements=elements)
        pred = predict_limit(arr, GRID)
        assert pred.theorem == "rademacher-dirac"
        assert pred.law.H.is_trivial()
        assert not pred.law.eta.atoms

    def test_unclassifiable_reported_not_guessed(self):
        # oscillating driving sequence
        arr = rademacher_array(
            T,
            K=linear(1.0),
            angle=table({n: (1.0 if i % 2 else 2.0) / math.sqrt(n) for i, n in enumerate(GRID)}),
        )
        pred = predict_limit(arr, GRID)
        assert not pred.classified()
        assert pred.theorem == "unclassified"
        assert pred.reason

    def test_solenoid_bernoulli_haar_unclassified(self):
        g = solenoid_group(2, 4)
        arr = bernoulli_array(g, from_angle(g, 0.7), p=power(1.0, -0.5), K=linear(1.0))
        pred = predict_limit(arr, (100, 1000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000))
        assert not pred.classified()
        assert "closure" in pred.reason
