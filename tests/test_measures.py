import cmath
import math

import pytest

from lcalim.groups import (
    GroupId,
    GroupMismatchError,
    Neighborhood,
    char_eval,
    character,
    cyclic_subgroup,
    from_angle,
    from_base_angle,
    from_int,
    from_turns,
    full_subgroup,
    identity,
    neg,
    padic_group,
    solenoid_group,
    torus_group,
    trivial_subgroup,
)
from lcalim.measures import (
    LimitLaw,
    QuadraticFormParam,
    compound_poisson_law,
    convolve,
    cpoisson_ft,
    cylinder_mass,
    dirac_law,
    discrete_measure,
    gauss_ft,
    gauss_law,
    genpoisson_ft,
    haar_law,
    limit_law_ft,
    local_mean,
    measure_ft,
    point_mass,
    qform_eval,
    scale_measure,
    tail_mass_measure,
    validate_levy,
    zero_levy,
    zero_measure,
)

import reference as ref
from conftest import random_element
from test_groups import DEEP_SOLENOIDS, _random_char

T = torus_group()


class TestDiscreteMeasure:
    def test_dedup_merges_close_atoms(self):
        x = from_angle(T, 0.3)
        y = from_turns(T, x.turns + 1e-14)
        mu = discrete_measure(T, [(x, 1.0), (y, 2.0)])
        assert mu.values.tolist() == [x.turns]
        assert mu.total_mass() == pytest.approx(3.0)

    def test_padic_dedup_is_exact(self):
        g = padic_group(2, 4)
        mu = discrete_measure(g, [(from_int(g, 3), 1.0), (from_int(g, 3), 1.0), (from_int(g, 5), 1.0)])
        assert mu.values.tolist() == [3, 5] and mu.weights.tolist() == [2.0, 1.0]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            discrete_measure(T, [(identity(T), -0.5)])

    def test_zero_weights_dropped(self):
        mu = discrete_measure(T, [(identity(T), 0.0)])
        assert len(mu.values) == 0 and len(mu.weights) == 0

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            discrete_measure(T, [(identity(padic_group(2, 2)), 1.0)])

    @pytest.mark.parametrize("g", DEEP_SOLENOIDS, ids=GroupId.describe)
    def test_deep_solenoid_atoms_kept_apart(self, g):
        # base angles 0.6 and 1.2 rad lie less than 1e-12 deepest turns apart
        x, y = from_base_angle(g, 0.6), from_base_angle(g, 1.2)
        mu = discrete_measure(g, [(x, 0.5), (y, 0.5)])
        assert mu.values.tolist() == [x.turns, y.turns]


class TestValidateLevy:
    def test_accepts_off_identity_atom(self):
        eta = validate_levy(point_mass(from_angle(T, 0.3)))
        assert eta.total_mass() == 1.0

    def test_rejects_identity_atom(self):
        with pytest.raises(ValueError, match="identity"):
            validate_levy(point_mass(identity(T), 0.5))

    def test_accepts_zero_measure(self):
        assert len(validate_levy(zero_measure(T)).values) == 0

    @pytest.mark.parametrize("g", DEEP_SOLENOIDS, ids=GroupId.describe)
    def test_deep_solenoid_atom_off_identity_accepted(self, g):
        # arg y_0 = 0.5 rad is 9.4e-14 deepest turns on solenoid_group(3, 25)
        eta = validate_levy(point_mass(from_base_angle(g, 0.5)))
        assert eta.total_mass() == 1.0
        with pytest.raises(ValueError, match="identity"):
            validate_levy(point_mass(from_turns(g, 0.5e-12 / g.p**g.depth)))


class TestQuadraticForm:
    def test_torus_value(self):
        assert qform_eval(QuadraticFormParam(T, 3.0), character(T, 2)) == 12.0

    def test_solenoid_value(self):
        g = solenoid_group(2, 4)
        assert qform_eval(QuadraticFormParam(g, 2.0), character(g, 3, 2)) == 1.125

    def test_trivial_character(self):
        assert qform_eval(QuadraticFormParam(T, 1.0), character(T, 0)) == 0.0

    def test_padic_must_be_zero(self):
        g = padic_group(2, 4)
        with pytest.raises(ValueError, match="p-adic"):
            QuadraticFormParam(g, 0.5)
        assert qform_eval(QuadraticFormParam(g, 0.0), character(g, 1, 1)) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            QuadraticFormParam(T, -1.0)

    def test_parallelogram_identity_exact(self):
        for b in (0.25, 0.5, 1.0, 2.0):
            q = QuadraticFormParam(T, b)
            for l1 in range(-10, 11):
                for l2 in range(-10, 11):
                    lhs = qform_eval(q, character(T, l1 + l2)) + qform_eval(
                        q, character(T, l1 - l2)
                    )
                    assert lhs == 2.0 * (
                        qform_eval(q, character(T, l1)) + qform_eval(q, character(T, l2))
                    )


class TestGaussFT:
    def test_value(self):
        assert gauss_ft(QuadraticFormParam(T, 2.0), character(T, 1)) == pytest.approx(
            math.exp(-1.0)
        )

    def test_b_zero_gives_one(self, rng):
        q = QuadraticFormParam(T, 0.0)
        for _ in range(10):
            assert gauss_ft(q, _random_char(T, rng)) == 1.0

    def test_trivial_character_gives_one(self):
        assert gauss_ft(QuadraticFormParam(T, 1.0), character(T, 0)) == 1.0


class TestCompoundPoissonFT:
    def test_atom_at_minus_one(self):
        eta = point_mass(from_angle(T, -math.pi))
        assert cpoisson_ft(eta, [character(T, 1)])[0] == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_zero_measure(self):
        assert cpoisson_ft(zero_measure(T), [character(T, 5)]) == [1.0]

    def test_annihilated_atom(self):
        # chi(x) = 1 makes the atom invisible
        x = from_turns(T, 0.25)
        (z,) = cpoisson_ft(point_mass(x, 3.0), [character(T, 4)])
        assert z == pytest.approx(1.0, abs=1e-12)

    def test_modulus_at_most_one(self, any_group, rng):
        for _ in range(50):
            eta = discrete_measure(
                any_group,
                [(random_element(any_group, rng), float(rng.uniform(0, 3))) for _ in range(3)],
            )
            chi = _random_char(any_group, rng)
            assert abs(cpoisson_ft(eta, [chi])[0]) <= 1.0 + 1e-12


class TestLocalMean:
    def test_torus_point_mass(self):
        mu = point_mass(from_angle(T, 0.3))
        assert local_mean(mu).turns == pytest.approx(0.3 / (2 * math.pi), abs=1e-15)

    def test_padic_always_identity(self, rng):
        g = padic_group(3, 4)
        mu = discrete_measure(g, [(random_element(g, rng), 1.0) for _ in range(3)])
        assert local_mean(mu) == identity(g)

    def test_symmetric_measure_has_identity_mean(self, rng):
        for _ in range(20):
            x = random_element(T, rng)
            mu = discrete_measure(T, [(x, 0.5), (neg(x), 0.5)])
            assert local_mean(mu) == identity(T)

    def test_defining_identity_on_solenoid(self, rng):
        # chi(m) = exp(i * integral of g d mu) for every character
        g = solenoid_group(2, 5)
        for _ in range(50):
            mu = discrete_measure(
                g, [(random_element(g, rng), float(rng.uniform(0, 1.5))) for _ in range(3)]
            )
            m = local_mean(mu)
            for _ in range(5):
                chi = _random_char(g, rng)
                g_mean = sum(w * ref.local_inner(x, chi) for x, w in ref.atoms(mu))
                expected = cmath.exp(1j * g_mean)
                assert char_eval(chi, m) == pytest.approx(expected, abs=1e-10)


class TestGenPoissonFT:
    def test_frozen_example(self):
        eta = validate_levy(point_mass(from_angle(T, 0.3)))
        (got,) = genpoisson_ft(eta, [character(T, 1)])
        # oracle: exp(e^{0.3 i} - 1 - 0.3 i)
        expected = cmath.exp(cmath.exp(0.3j) - 1.0 - 0.3j)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.9563096 - 0.0042841j, abs=1e-6)

    def test_zero_measure(self):
        assert genpoisson_ft(zero_levy(T), [character(T, 3)]) == [1.0]

    def test_padic_equals_compound_poisson(self, rng):
        g = padic_group(2, 6)
        for _ in range(50):
            eta = validate_levy(
                discrete_measure(
                    g,
                    [
                        (from_int(g, int(rng.integers(1, g.modulus))), float(rng.uniform(0, 2)))
                        for _ in range(3)
                    ],
                )
            )
            chi = _random_char(g, rng)
            assert genpoisson_ft(eta, [chi]) == cpoisson_ft(eta, [chi])

    def test_shift_identity(self, any_group, rng):
        # compound Poisson = generalized Poisson shifted by the local mean
        for _ in range(100):
            atoms = []
            for _ in range(int(rng.integers(1, 4))):
                x = random_element(any_group, rng)
                if x == identity(any_group):
                    continue
                atoms.append((x, float(rng.uniform(0.05, 2.0))))
            if not atoms:
                continue
            eta = validate_levy(discrete_measure(any_group, atoms))
            m = local_mean(eta)
            chi = _random_char(any_group, rng)
            (lhs,) = cpoisson_ft(eta, [chi])
            rhs = genpoisson_ft(eta, [chi])[0] * char_eval(chi, m)
            assert abs(lhs - rhs) <= 1e-10


class TestConvolve:
    def test_point_masses(self, any_group, rng):
        x, y = random_element(any_group, rng), random_element(any_group, rng)
        conv = convolve(point_mass(x), point_mass(y))
        assert len(conv.values) == 1
        from lcalim.groups import add, elements_close

        assert elements_close(ref.atoms(conv)[0][0], add(x, y))

    def test_identity_neutral(self, rng):
        mu = discrete_measure(
            T, [(random_element(T, rng), 0.5), (random_element(T, rng), 1.5)]
        )
        conv = convolve(mu, point_mass(identity(T)))
        assert sorted(conv.weights.tolist()) == sorted(mu.weights.tolist())

    def test_symmetric_square_enumeration(self):
        x = from_angle(T, 0.7)
        mu = discrete_measure(T, [(x, 0.5), (neg(x), 0.5)])
        sq = convolve(mu, mu)
        weights = {round(t, 9): w for t, w in zip(sq.values.tolist(), sq.weights.tolist())}
        two = from_angle(T, 1.4)
        assert weights[round(two.turns, 9)] == pytest.approx(0.25)
        assert weights[round(neg(two).turns, 9)] == pytest.approx(0.25)
        assert weights[0.0] == pytest.approx(0.5)

    def test_ft_multiplicative(self, any_group, rng):
        for _ in range(100):
            mu1 = discrete_measure(
                any_group,
                [(random_element(any_group, rng), float(rng.uniform(0, 2))) for _ in range(3)],
            )
            mu2 = discrete_measure(
                any_group,
                [(random_element(any_group, rng), float(rng.uniform(0, 2))) for _ in range(2)],
            )
            chi = [_random_char(any_group, rng)]
            lhs = measure_ft(convolve(mu1, mu2), chi)[0]
            rhs = measure_ft(mu1, chi)[0] * measure_ft(mu2, chi)[0]
            assert abs(lhs - rhs) <= 1e-10

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            convolve(point_mass(identity(T)), point_mass(identity(padic_group(2, 2))))


class TestTailAndCylinder:
    def test_tail_single_atom(self):
        U = Neighborhood(T, eps=0.5)
        outside = point_mass(from_angle(T, 1.0), 2.5)
        inside = point_mass(from_angle(T, 0.1), 2.5)
        assert tail_mass_measure(outside, [U]) == [2.5]
        assert tail_mass_measure(inside, [U]) == [0.0]

    def test_tail_mixed(self):
        U = Neighborhood(T, eps=0.5)
        mu = discrete_measure(
            T, [(from_angle(T, 1.0), 1.0), (from_angle(T, 0.2), 5.0), (from_angle(T, -2.0), 0.5)]
        )
        assert tail_mass_measure(mu, [U])[0] == pytest.approx(1.5)

    def test_cylinder_examples(self):
        g = padic_group(2, 6)
        x1 = from_int(g, 1)
        eta = point_mass(x1, 2.0)
        assert cylinder_mass(eta, [(x1, 1), (identity(g), 1)]) == [2.0, 0.0]
        assert cylinder_mass(zero_measure(g), [(x1, 1)]) == [0.0]

    def test_cylinder_requires_padic(self):
        with pytest.raises(ValueError):
            cylinder_mass(point_mass(identity(T)), [(identity(T), 1)])

    def test_cylinder_partition(self, rng):
        # cylinder masses over all residues of rank r partition the total
        g = padic_group(3, 5)
        mu = discrete_measure(
            g, [(random_element(g, rng), float(rng.uniform(0, 2))) for _ in range(6)]
        )
        for r in (1, 2, 3):
            total = sum(cylinder_mass(mu, [(from_int(g, res), r) for res in range(3**r)]))
            assert total == pytest.approx(mu.total_mass())


class TestLimitLawFT:
    def test_gauss_factor_only(self):
        law = gauss_law(T, 2.0)
        assert limit_law_ft(law, [character(T, 1)])[0] == pytest.approx(math.exp(-1.0))

    def test_annihilator_rule(self):
        law = haar_law(cyclic_subgroup(T, 2))
        assert limit_law_ft(law, [character(T, 3), character(T, 2)]) == [0.0, 1.0]

    def test_pure_dirac(self, any_group, rng):
        a = random_element(any_group, rng)
        law = dirac_law(a)
        chars = [_random_char(any_group, rng) for _ in range(10)]
        assert limit_law_ft(law, chars) == [char_eval(chi, a) for chi in chars]

    def test_zero_set_matches_annihilator_exactly(self, any_group, rng):
        from lcalim.groups import annihilator_contains

        if any_group.kind == "torus":
            H = cyclic_subgroup(any_group, 3)
        elif any_group.kind == "padic":
            from lcalim.groups import lambda_subgroup

            H = lambda_subgroup(any_group, 2)
        else:
            H = full_subgroup(any_group)
        x = random_element(any_group, rng)
        eta = validate_levy(
            point_mass(x) if x != identity(any_group) else zero_measure(any_group)
        )
        b = QuadraticFormParam(any_group, 0.0 if any_group.kind == "padic" else 0.7)
        law = LimitLaw(H, random_element(any_group, rng), b, eta)
        chars = [_random_char(any_group, rng) for _ in range(40)]
        for chi, val in zip(chars, limit_law_ft(law, chars)):
            if annihilator_contains(H, chi):
                assert val != 0.0
            else:
                assert val == 0.0

    def test_modulus_at_most_one_and_trivial_char(self, any_group, rng):
        x = random_element(any_group, rng)
        eta = (
            validate_levy(point_mass(x, 1.3))
            if x != identity(any_group)
            else zero_levy(any_group)
        )
        law = LimitLaw(
            trivial_subgroup(any_group),
            random_element(any_group, rng),
            QuadraticFormParam(any_group, 0.0 if any_group.kind == "padic" else 0.4),
            eta,
        )
        assert limit_law_ft(law, [character(any_group, 0)])[0] == pytest.approx(1.0, abs=1e-12)
        chars = [_random_char(any_group, rng) for _ in range(40)]
        assert all(abs(z) <= 1.0 + 1e-12 for z in limit_law_ft(law, chars))

    def test_component_group_mismatch(self):
        g2 = padic_group(2, 4)
        with pytest.raises(GroupMismatchError):
            LimitLaw(
                trivial_subgroup(T),
                identity(g2),
                QuadraticFormParam(T, 0.0),
                zero_levy(T),
            )

    def test_compound_poisson_law_matches_cp_ft(self, rng):
        # the quadruplet with a = local mean reproduces e(eta) exactly
        for g in (T, padic_group(2, 6)):
            for _ in range(20):
                x = random_element(g, rng)
                if x == identity(g):
                    continue
                eta = scale_measure(point_mass(x), float(rng.uniform(0.1, 3.0)))
                law = compound_poisson_law(eta)
                chi = [_random_char(g, rng)]
                want = cpoisson_ft(eta, chi)[0]
                assert limit_law_ft(law, chi)[0] == pytest.approx(want, abs=1e-10)
