import itertools
import math
import os
import tracemalloc

import mpmath
import numpy as np
import pytest

from lcalim import sampling
from lcalim.arrays import (
    TriangularArray,
    bernoulli_array,
    constant,
    general_array,
    iid_symmetric_array,
    linear,
    pack_rows,
    power,
    rademacher_array,
    row_distribution,
    row_ft_exact,
)
from lcalim.cli import load_config_text
from lcalim.config import parse_config
from lcalim.groups import (
    CompactSubgroup,
    _coordinates_block,
    block_dtype,
    char_eval_block,
    character,
    cyclic_subgroup,
    from_angle,
    from_base_angle,
    from_int,
    full_subgroup,
    identity,
    lambda_subgroup,
    neg,
    padic_group,
    solenoid_group,
    torus_group,
    trivial_subgroup,
)
from lcalim.measures import (
    LimitLaw,
    PackedRow,
    QuadraticFormParam,
    compound_poisson_law,
    dirac_law,
    gauss_law,
    haar_law,
    limit_law_ft,
    point_mass,
    scale_measure,
    validate_levy,
)
from lcalim.sampling import (
    BLOCK_SIZE,
    SamplingBudgetError,
    SeededStream,
    empirical_ft,
    empirical_law_ft,
    _law_sampler,
    _row_sampler,
)

import reference as ref

T = torus_group()


def sample_row_sum(array, n, stream):
    """One draw of the row sum of row n: a block of one from the stream's generator."""
    return ref.element(array.group, _row_sampler(array, n)(stream.generator(), 1)[0])


def sample_limit_law(law, stream):
    """One draw from the quadruplet law: a block of one from the stream's generator."""
    return ref.element(law.group, _law_sampler(law)(stream.generator(), 1)[0])


def _first_draw(master, *path):
    return SeededStream(master).child(*path).generator().random()


class TestSeeds:
    def test_paths_give_different_streams(self):
        assert _first_draw(42, 1) != _first_draw(42, 2)

    def test_masters_give_different_streams(self):
        assert _first_draw(42, 1) != _first_draw(43, 1)

    def test_stream_children(self):
        s = SeededStream(7)
        assert s.child(3, 1).path == (3, 1)
        g1 = s.child(5).generator().random()
        g2 = s.child(5).generator().random()
        assert g1 == g2


def _torus_rademacher():
    return rademacher_array(T, K=linear(1.0), angle=power(1.0, -0.5))


def _padic_bernoulli():
    g = padic_group(2)
    return bernoulli_array(g, from_int(g, 1), p=power(2.0, -1.0), K=linear(1.0))


class TestSampleRowSum:
    def test_degenerate_rows(self):
        dist = row_distribution(T, [(identity(T), 1.0)])
        arr = iid_symmetric_array(T, lambda n: dist, K=linear(1.0))
        s = sample_row_sum(arr, 1000, SeededStream(1))
        assert s == identity(T)

    def test_bernoulli_is_binomial_multiple(self):
        arr = _padic_bernoulli()
        g = arr.group
        n = 1000
        s = sample_row_sum(arr, n, SeededStream(5))
        # result must be c * x for an integer count c in 0..K
        assert 0 <= s.residue <= n

    def test_rademacher_angle_structure(self):
        arr = _torus_rademacher()
        n = 400
        s = sample_row_sum(arr, n, SeededStream(5))
        # (2c - K) * arg(x_n) mod 2 pi for some integer c
        base = 1.0 / math.sqrt(n)
        ratio = (s.turns * 2 * math.pi) / base
        assert ratio == pytest.approx(round(ratio), abs=1e-6)

    def test_shortcut_matches_direct_in_distribution(self):
        # binomial-count shortcut vs direct K-draw sampling: two-sample
        # empirical FT agreement within 6/sqrt(M); the general array of n
        # copies of the Rademacher row law takes the direct path
        arr = _torus_rademacher()
        n, M = 500, 20_000
        x = arr.x(n)
        law = row_distribution(T, [(x, 0.5), (neg(x), 0.5)])
        direct = general_array(T, lambda m: (law,) * m)
        assert direct.row_count(n) == arr.row_count(n) == n
        assert direct.packed(n).values.tolist() == arr.packed(n).values.tolist() * n
        chars = [character(T, l) for l in (1, 2)]
        fast = empirical_ft(arr, n, chars, M, SeededStream(11).child(0))
        slow = empirical_ft(direct, n, chars, M, SeededStream(11).child(1))
        for a, b in zip(fast.estimates, slow.estimates):
            assert abs(a - b) <= 6.0 / math.sqrt(M)

    def test_multinomial_shortcut_for_many_atoms(self):
        xs = [from_angle(T, a) for a in (0.3, -0.3, 1.1, -1.1)]
        dist = row_distribution(T, [(x, 0.25) for x in xs])
        arr = iid_symmetric_array(T, lambda n: dist, K=constant(10**6))
        s = sample_row_sum(arr, 1, SeededStream(3))  # must not loop K times
        assert s.group == T

    @pytest.mark.parametrize("weights", [[1.0], [0.2, 0.8], [0.2, 0.5, 0.3]], ids=len)
    @pytest.mark.parametrize("g", [T, padic_group(3, 4)], ids=["torus", "padic"])
    def test_count_draw_equals_branch_per_atom_count(self, g, weights):
        # one multinomial call draws, from the same stream, the counts that
        # a branch per atom count drew, and leaves the generator in the
        # same state; a one-atom row draws nothing
        x = from_int(g, 5) if g.kind == "padic" else from_angle(g, 0.7)
        dist = row_distribution(g, list(zip([identity(g), x, neg(x)], weights)))
        for K in (1, 7, 10**6, 2**62):
            row = pack_rows(g, (dist,), K)  # an i.i.d. row: one entry, K copies
            sampler = _row_sampler(TriangularArray(g, "general", lambda n: row), 1)
            got_gen, want_gen = SeededStream(8).generator(), SeededStream(8).generator()
            before = got_gen.bit_generator.state
            pvals = (row.weights / row.masses()).tolist()
            want = sampling._combine(g, ref.iid_counts(want_gen, K, pvals, 300), row.values)
            assert sampler(got_gen, 300).tobytes() == want.tobytes()
            assert got_gen.bit_generator.state == want_gen.bit_generator.state
            if len(weights) == 1:
                assert got_gen.bit_generator.state == before

    def test_budget_enforced_for_direct(self, monkeypatch):
        law = row_distribution(T, [(from_angle(T, 0.5), 0.5), (from_angle(T, -0.5), 0.5)])
        arr = general_array(T, lambda n: (law,) * n)
        monkeypatch.setattr(sampling, "DEFAULT_DIRECT_BUDGET", 10)
        with pytest.raises(SamplingBudgetError, match="K_n=11 entries exceeds budget 10"):
            sample_row_sum(arr, 11, SeededStream(0))
        assert sample_row_sum(arr, 10, SeededStream(0)).group == T
        # the count shortcut draws any K_n
        big = iid_symmetric_array(T, lambda n: law, K=constant(10**8))
        assert sample_row_sum(big, 1, SeededStream(0)).group == T

    def test_direct_path_takes_each_entry_copies_times(self):
        # a table of two entries taken 50 times each draws, bit for bit,
        # what the table of its 100 entries one after the other draws
        a = row_distribution(T, [(from_angle(T, 0.5), 0.3), (identity(T), 0.7)])
        b = row_distribution(T, [(from_angle(T, -1.5), 0.6), (from_angle(T, 2.0), 0.4)])
        two = pack_rows(T, (a, b), copies=50)
        copied = TriangularArray(T, "general", lambda n: two)
        spelled = general_array(T, lambda n: (a,) * 50 + (b,) * 50)
        assert copied.row_count(1) == spelled.row_count(1) == 100
        for size in (1, 700, 1024):
            got = _row_sampler(copied, 1)(SeededStream(4).generator(), size)
            want = _row_sampler(spelled, 1)(SeededStream(4).generator(), size)
            assert got.tobytes() == want.tobytes()

    def test_general_rows_direct_path(self):
        x = from_angle(T, 0.5)
        rows = tuple(
            row_distribution(T, [(x, p), (identity(T), 1.0 - p)]) for p in (0.2, 0.8)
        )
        arr = general_array(T, lambda n: rows)
        s = sample_row_sum(arr, 1, SeededStream(9))
        ratio = s.turns / x.turns
        assert round(ratio) in (0, 1, 2)


class TestEmpiricalFT:
    def test_trivial_character_exact(self):
        arr = _torus_rademacher()
        est = empirical_ft(arr, 100, [character(T, 0)], 500, SeededStream(2))
        assert est.estimates[0] == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_array_exact(self):
        dist = row_distribution(T, [(identity(T), 1.0)])
        arr = iid_symmetric_array(T, lambda n: dist, K=linear(1.0))
        est = empirical_ft(arr, 100, [character(T, 3)], 200, SeededStream(2))
        assert est.estimates[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_exact_engine(self):
        arr = _padic_bernoulli()
        g = arr.group
        chars = [character(g, 1, 0), character(g, 1, 1), character(g, 3, 1)]
        M = 40_000
        est = empirical_ft(arr, 1000, chars, M, SeededStream(42))
        for chi, emp in zip(est.chars, est.estimates):
            assert abs(emp - row_ft_exact(arr, (1000,), (chi,))[0][0]) <= 4.0 / math.sqrt(M)

    def test_stderr_value(self):
        arr = _torus_rademacher()
        est = empirical_ft(arr, 100, [character(T, 1)], 400, SeededStream(1))
        assert est.stderr == 0.05

    def test_identical_across_reruns(self):
        arr = _torus_rademacher()
        chars = [character(T, l) for l in (1, 2)]
        a = empirical_ft(arr, 200, chars, 3000, SeededStream(6))
        b = empirical_ft(arr, 200, chars, 3000, SeededStream(6))
        assert a.estimates == b.estimates
        law = gauss_law(T, 0.5)
        a = empirical_law_ft(law, chars, 3000, SeededStream(6))
        b = empirical_law_ft(law, chars, 3000, SeededStream(6))
        assert a.estimates == b.estimates

    def test_partial_last_block(self):
        # M = 2100 runs blocks of 1024, 1024 and 52 replicates; block j
        # draws from path + (j,) and block sums merge in block order
        arr = _torus_rademacher()
        chars = (character(T, 1), character(T, 3))
        stream = SeededStream(3).child(4)
        est = empirical_ft(arr, 100, chars, 2100, stream)
        draw = _row_sampler(arr, 100)
        total = np.zeros(len(chars), dtype=complex)
        for j, size in enumerate((1024, 1024, 52)):
            block = draw(stream.child(j).generator(), size)
            assert block.shape == (size,)
            total += char_eval_block(T, chars, block).sum(axis=0)
        assert est.estimates == tuple(complex(z) for z in total / 2100)

    @pytest.mark.parametrize("M", [1, 1024, 1025, 2100, 5000])
    def test_one_generator_per_block(self, monkeypatch, M):
        paths = []
        generator = SeededStream.generator

        def counting(stream):
            paths.append(stream.path)
            return generator(stream)

        monkeypatch.setattr(SeededStream, "generator", counting)
        blocks = [(7, j) for j in range(math.ceil(M / BLOCK_SIZE))]
        empirical_ft(_torus_rademacher(), 100, [character(T, 1)], M, SeededStream(3).child(7))
        assert paths == blocks
        paths.clear()
        empirical_law_ft(gauss_law(T, 1.0), [character(T, 1)], M, SeededStream(3).child(7))
        assert paths == blocks

    def test_direct_general_rows_match_exact(self):
        x, y = from_angle(T, 0.7), from_angle(T, -2.1)
        rows = tuple(
            row_distribution(T, [(x, p), (y, 0.3), (identity(T), 0.7 - p)])
            for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6) * 50
        )
        arr = general_array(T, lambda n: rows)
        chars = [character(T, l) for l in (1, 2, 5)]
        M = 20_000
        est = empirical_ft(arr, 1, chars, M, SeededStream(12))
        for chi, emp in zip(est.chars, est.estimates):
            assert abs(emp - row_ft_exact(arr, (1,), (chi,))[0][0]) <= 4.0 / math.sqrt(M)


class TestLargeModulus:
    # p^(depth+1) >= 2^31: int64 products of residues would wrap, so
    # blocks hold Python ints
    @pytest.mark.parametrize("g", [padic_group(2, 70), padic_group(101, 8)])
    def test_row_sums_and_characters(self, g):
        assert g.modulus >= 2**31
        K = 10**15
        arr = bernoulli_array(g, from_int(g, 1), p=constant(0.5), K=constant(K))
        block = _row_sampler(arr, 1)(SeededStream(21).generator(), 256)
        assert all(isinstance(v, int) and 0 <= v <= K for v in block)
        assert len(set(block)) > 1
        q = g.p ** (g.depth + 1)
        chars = [character(g, 1, 0), character(g, 5, 3), character(g, q - 1, g.depth)]
        values = char_eval_block(g, chars, block)
        for i, v in enumerate(block):
            for k, chi in enumerate(chars):
                want = ref.char_eval(chi, from_int(g, v))
                assert abs(values[i, k] - want) <= 1e-15

    @pytest.mark.parametrize("r", [0, 5])
    def test_haar_lambda_beyond_int64_draws(self, r):
        # 71 - r free digits: more than one int64 draw holds
        g = padic_group(2, 70)
        law = haar_law(lambda_subgroup(g, r))
        block = _law_sampler(law)(SeededStream(16).generator(), 1000)
        assert all(isinstance(v, int) and 0 <= v < g.modulus and v % 2**r == 0 for v in block)
        assert max(block) >= 2**63
        chars = [character(g, 1, d) for d in (0, 2, 4, 5, 40, 62, 63, 70)]
        M = 20_000
        est = empirical_law_ft(law, chars, M, SeededStream(17))
        for emp, exact in zip(est.estimates, limit_law_ft(law, est.chars)):
            assert abs(emp - exact) <= 4.0 / math.sqrt(M)

    def test_haar_lambda_beyond_depth_is_trivial(self):
        # lambda(r) with r > depth + 1 holds only 0 at the working depth
        g = padic_group(3, 6)
        block = _law_sampler(haar_law(lambda_subgroup(g, 9)))(SeededStream(18).generator(), 50)
        assert block.tolist() == [0] * 50

    def test_wrapper_returns_exact_residue(self):
        g = padic_group(101, 8)
        K = 10**15
        arr = bernoulli_array(g, from_int(g, 1), p=constant(0.5), K=constant(K))
        s = sample_row_sum(arr, 1, SeededStream(2))
        assert 0 <= s.residue <= K
        assert abs(s.residue - K // 2) < 10**9


class TestSampleLimitLaw:
    def test_dirac_law(self):
        a = from_angle(T, 0.7)
        for m in range(20):
            assert sample_limit_law(dirac_law(a), SeededStream(1).child(m)) == a

    def test_haar_cyclic_support(self):
        law = haar_law(cyclic_subgroup(T, 4))
        seen = set()
        for m in range(200):
            s = sample_limit_law(law, SeededStream(2).child(m))
            ratio = 4.0 * s.turns
            assert ratio == pytest.approx(round(ratio), abs=1e-12)
            seen.add(round(ratio) % 4)
        assert seen == {0, 1, 2, 3}

    def test_haar_lambda_support(self):
        g = padic_group(2, 6)
        law = haar_law(lambda_subgroup(g, 2))
        for m in range(100):
            s = sample_limit_law(law, SeededStream(3).child(m))
            assert s.residue % 4 == 0

    def test_haar_full_padic_subgroup(self):
        # "full" on a padic group is lambda(0): every residue, uniformly
        g = padic_group(2, 6)
        law = haar_law(CompactSubgroup(g, "full"))
        block = _law_sampler(law)(SeededStream(13).generator(), 1000)
        assert block.dtype == np.int64
        assert 0 <= block.min() and block.max() < g.modulus
        assert len(set(block.tolist())) > g.modulus // 2
        chars = [character(g, l, d) for d in range(3) for l in range(1, g.p ** (d + 1))]
        M = 40_000
        est = empirical_law_ft(law, chars, M, SeededStream(14))
        for emp, exact in zip(est.estimates, limit_law_ft(law, est.chars)):
            assert abs(emp - exact) <= 4.0 / math.sqrt(M)

    def test_wrapped_normal_ft_matches_gauss_factor(self):
        law = gauss_law(T, 0.8)
        M = 40_000
        est = empirical_law_ft(law, [character(T, l) for l in (1, 2)], M, SeededStream(4))
        for chi, emp in zip(est.chars, est.estimates):
            assert abs(emp.real - math.exp(-0.8 * chi.ell**2 / 2.0)) <= 4.0 / math.sqrt(M)
            assert abs(emp.imag) <= 4.0 / math.sqrt(M)

    def test_compound_poisson_law_ft(self):
        g = padic_group(2)
        law = compound_poisson_law(scale_measure(point_mass(from_int(g, 1)), 2.0))
        chars = [character(g, 1, 0), character(g, 1, 1)]
        M = 40_000
        est = empirical_law_ft(law, chars, M, SeededStream(5))
        for emp, exact in zip(est.estimates, limit_law_ft(law, est.chars)):
            assert abs(emp - exact) <= 4.0 / math.sqrt(M)

    def test_torus_poisson_law_with_shift(self):
        # generalized Poisson factor plus local-mean shift on the torus
        x = from_angle(T, 0.9)
        law = compound_poisson_law(scale_measure(point_mass(x), 1.5))
        chars = [character(T, 1), character(T, 2)]
        M = 40_000
        est = empirical_law_ft(law, chars, M, SeededStream(8))
        for emp, exact in zip(est.estimates, limit_law_ft(law, est.chars)):
            assert abs(emp - exact) <= 4.0 / math.sqrt(M)

    def test_full_quadruplet_on_torus(self):
        x = from_angle(T, 2.0)
        law = LimitLaw(
            cyclic_subgroup(T, 3),
            from_angle(T, 0.4),
            QuadraticFormParam(T, 0.5),
            validate_levy(point_mass(x, 1.2)),
        )
        chars = [character(T, l) for l in (1, 2, 3, 6)]
        M = 40_000
        est = empirical_law_ft(law, chars, M, SeededStream(9))
        for emp, exact in zip(est.estimates, limit_law_ft(law, est.chars)):
            assert abs(emp - exact) <= 4.0 / math.sqrt(M)

    def test_reproducible(self):
        law = gauss_law(T, 1.0)
        a = [sample_limit_law(law, SeededStream(7).child(m)) for m in range(50)]
        b = [sample_limit_law(law, SeededStream(7).child(m)) for m in range(50)]
        assert a == b


def _solenoid_laws(g):
    """Each factor of a solenoid limit law alone, and a quadruplet with a
    shift; angles are base angles, arg y_0 on the branch-0 tower."""
    return {
        "gauss": gauss_law(g, 0.7),
        "haar": haar_law(full_subgroup(g)),
        "poisson": compound_poisson_law(scale_measure(point_mass(from_base_angle(g, 0.9)), 1.5)),
        "quadruplet": LimitLaw(
            trivial_subgroup(g),
            from_base_angle(g, 0.4),
            QuadraticFormParam(g, 0.5),
            validate_levy(point_mass(from_base_angle(g, 2.0), 1.2)),
        ),
    }


@pytest.mark.parametrize("factor", ["gauss", "haar", "poisson", "quadruplet"])
@pytest.mark.parametrize("g", [solenoid_group(2, 8), solenoid_group(3, 6)], ids=["p2", "p3"])
def test_solenoid_law_matches_exact_ft(g, factor):
    # the draws are deepest-coordinate turns, and chi_{d,l} with d <= depth
    # sees them through y_depth alone
    law = _solenoid_laws(g)[factor]
    chars = [character(g, l, d) for d in range(4) for l in (1, 2, 5)]
    M = 40_000
    est = empirical_law_ft(law, chars, M, SeededStream(15))
    for emp, exact in zip(est.estimates, limit_law_ft(law, est.chars)):
        assert abs(emp - exact) <= 4.0 / math.sqrt(M)


def _chars(g, k):
    """k nontrivial characters of g, of depths 0 to 4 off the torus."""
    if g.kind == "torus":
        pool = [character(g, s * l) for l in range(1, 10) for s in (1, -1)]
    else:
        pool = [
            character(g, l, d)
            for d in range(5)
            for l in range(1, 6)
            if g.kind != "padic" or l < g.p ** (d + 1)
        ]
    return pool[:k]


def _iid_row(g, weights):
    """The sampler of an i.i.d. row of 9 entries with 1 to 3 atoms."""
    x = from_int(g, 5) if g.kind == "padic" else from_angle(g, 0.7)
    dist = row_distribution(g, list(zip([identity(g), x, neg(x)], weights)))
    row = pack_rows(g, (dist,), 9)
    return _row_sampler(TriangularArray(g, "general", lambda n: row), 1)


def _general_rows(g):
    x = from_int(g, 3) if g.kind == "padic" else from_angle(g, 0.5)
    laws = tuple(row_distribution(g, [(x, p), (identity(g), 1.0 - p)]) for p in (0.2, 0.5, 0.9))
    return _row_sampler(general_array(g, lambda n: laws * 2), 1)


P = padic_group(3, 4)
BIG = padic_group(2, 70)  # residues beyond int64: object blocks
S = solenoid_group(2, 8)
# (group, sampler) of every kind of draw
DRAWS = {
    "iid-1-atom": (T, _iid_row(T, [1.0])),
    "iid-2-atoms": (P, _iid_row(P, [0.4, 0.6])),
    "iid-3-atoms": (S, _iid_row(S, [0.2, 0.5, 0.3])),
    "bernoulli": (padic_group(2), _row_sampler(_padic_bernoulli(), 1000)),
    "rademacher": (T, _row_sampler(_torus_rademacher(), 100)),
    "general-torus": (T, _general_rows(T)),
    "general-padic": (P, _general_rows(P)),
    "object-bernoulli": (
        BIG,
        _row_sampler(bernoulli_array(BIG, from_int(BIG, 1), p=constant(0.5), K=constant(40)), 1),
    ),
    "compound-poisson": (
        P,
        _law_sampler(compound_poisson_law(scale_measure(point_mass(from_int(P, 1)), 2.0))),
    ),
    "gauss": (S, _law_sampler(gauss_law(S, 0.7))),
    "cyclic-haar": (T, _law_sampler(haar_law(cyclic_subgroup(T, 5)))),
    "full-haar": (T, _law_sampler(haar_law(full_subgroup(T)))),
    "lambda-haar": (P, _law_sampler(haar_law(lambda_subgroup(P, 2)))),
    "object-lambda-haar": (BIG, _law_sampler(haar_law(lambda_subgroup(BIG, 66)))),
}


class TestDistinctDraws:
    # the estimator evaluates each character once per distinct draw of a
    # group of blocks; reference.estimate evaluates it at every draw
    @pytest.mark.parametrize("case", sorted(DRAWS))
    def test_estimates_equal_per_block_evaluation(self, case):
        g, draw = DRAWS[case]
        stream = SeededStream(5).child(2)
        # 1, 8 and 17 characters: 16, 2 and 1 blocks per group; none, as
        # the API allows
        for k in (0, 1, 8, 17):
            chars = _chars(g, k)
            for M in (1, 1023, 1024, 1025, 5000):
                got = sampling._estimate(draw, g, chars, M, stream)
                want = ref.estimate(draw, g, chars, M, stream)
                assert np.array(got.estimates).tobytes() == np.array(want).tobytes()

    def test_signed_zeros_stay_apart(self, monkeypatch):
        # a block of +0.0 and -0.0 turns: == would take them for one draw
        seen = []

        def spy(group, chars, values):
            seen.append(values.copy())
            return char_eval_block(group, chars, values)

        def draw(gen, size):
            return np.where(gen.random(size) < 0.5, 0.0, -0.0)

        monkeypatch.setattr(sampling, "char_eval_block", spy)
        chars = _chars(T, 3)
        for M in (1, 1023, 1024, 1025, 5000):
            seen.clear()
            got = sampling._estimate(draw, T, chars, M, SeededStream(9))
            assert np.array(got.estimates).tobytes() == np.array(
                ref.estimate(draw, T, chars, M, SeededStream(9))
            ).tobytes()
        assert [np.signbit(v).tolist() for v in seen] == [[True, False]]

    def test_characters_see_only_distinct_draws(self, monkeypatch):
        # padic_poisson at 2000 replicates: its 8 characters take both
        # blocks in one group, whose 2000 draws hold 9 values
        cfg = parse_config(load_config_text("padic_poisson"))
        chars, (n,) = cfg.settings.characters, cfg.mc.n_points
        seen = []

        def spy(group, chars, values):
            seen.append(values.copy())
            return char_eval_block(group, chars, values)

        monkeypatch.setattr(sampling, "char_eval_block", spy)
        for draw, stream in (
            (_row_sampler(cfg.array, n), SeededStream(42).child(0, n)),
            (_law_sampler(cfg.law), SeededStream(42).child(1)),
        ):
            seen.clear()
            got = sampling._estimate(draw, cfg.group, chars, 2000, stream)
            blocks = [draw(stream.child(j).generator(), size) for j, size in enumerate((1024, 976))]
            assert len(seen) == 1
            assert seen[0].tolist() == np.unique(np.concatenate(blocks)).tolist()
            assert 5 <= len(seen[0]) <= 40
            monkeypatch.setattr(sampling, "char_eval_block", char_eval_block)
            want = ref.estimate(draw, cfg.group, chars, 2000, stream)
            monkeypatch.setattr(sampling, "char_eval_block", spy)
            assert np.array(got.estimates).tobytes() == np.array(want).tobytes()


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
# every padic bundled example and branch config, by name
PADIC_CONFIGS = {name: name for name in ("padic_poisson", "padic_haar", "bernoulli_mismatch")} | {
    name: os.path.join(GOLDEN, name, "config.json")
    for name in ("padic_gaiser", "padic_rademacher_clt")
}
# the chi-square tail below which a sampler fails; at the bundled seeds the
# smallest tail is 0.005 (bernoulli_mismatch's row sums)
CHI2_TAIL = 1e-3


def _block_draws(draw, stream: SeededStream, M: int) -> np.ndarray:
    """M draws, block j of BLOCK_SIZE from stream.child(j), as _estimate
    draws them."""
    return np.concatenate([
        draw(stream.child(j // BLOCK_SIZE).generator(), min(BLOCK_SIZE, M - j))
        for j in range(0, M, BLOCK_SIZE)
    ])


def _chi2_tail(observed, probs, M: int) -> float:
    """The chi-square tail of the observed class counts against M draws of
    the probabilities, over the classes with at least 5 expected draws."""
    expected = probs * M
    keep = expected >= 5
    stat = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    df = int(keep.sum()) - 1
    if df == 0:  # one class holds the whole law
        return 1.0 if stat == 0.0 else 0.0
    return float(mpmath.gammainc(df / 2, stat / 2, regularized=True))


@pytest.mark.parametrize("sampler", ["row", "law"])
@pytest.mark.parametrize("name", PADIC_CONFIGS)
def test_draws_follow_the_exact_law_mod_p_to_the_r(name, sampler):
    # the draws mod p^r, drawn from the bundled seed in blocks as _estimate
    # draws them, against the exact law: the inverse DFT of the FT at the
    # p^r characters chi_{r-1,l}
    cfg = parse_config(load_config_text(PADIC_CONFIGS[name]))
    g, n, M = cfg.group, cfg.mc.n_points[0], 200_000
    r = max(r for r in range(1, g.depth + 2) if g.p**r <= 4096)
    chars = [character(g, l, r - 1) for l in range(g.p**r)]
    if sampler == "row":
        draw, stream = _row_sampler(cfg.array, n), SeededStream(cfg.mc.seed).child(0, n)
        fts = row_ft_exact(cfg.array, (n,), chars)[0]
    else:
        draw, stream = _law_sampler(cfg.law), SeededStream(cfg.mc.seed).child(1)
        fts = limit_law_ft(cfg.law, chars)
    probs = np.fft.fft(np.array(fts)).real / g.p**r
    drawn = _block_draws(draw, stream, M)
    observed = np.bincount(np.asarray(drawn % g.p**r, dtype=np.int64), minlength=g.p**r)
    assert _chi2_tail(observed, probs, M) > CHI2_TAIL


# every i.i.d. torus and solenoid bundled example and branch config, by name
ANGLE_CONFIGS = {name: name for name in ("torus_clt", "torus_haar", "solenoid_clt")} | {
    name: os.path.join(GOLDEN, name, "config.json") for name in ("symmetric_clt", "symmetric_haar")
}
ARCS = 64  # equal arcs of y_0


def _arcs(g, values: np.ndarray) -> np.ndarray:
    """The arc of y_0 that each element of a torus or solenoid block lies
    in, arc a being [a / ARCS - 1/2, (a + 1) / ARCS - 1/2) turns."""
    y0 = _coordinates_block(g, values, 0)[0]
    return np.floor((y0 + 0.5) * ARCS).astype(np.int64) % ARCS


def _row_sum_arcs(g, row: PackedRow) -> np.ndarray:
    """The exact law on the arcs of the sum of row.copies i.i.d. draws of
    the row's one entry: every multinomial count vector of its atoms, with
    its probability, taken to a group value by sampling._combine, the map
    of the draws."""
    K, m = row.copies, len(row.values)
    counts = np.array([
        c + (K - sum(c),) for c in itertools.product(range(K + 1), repeat=m - 1) if sum(c) <= K
    ])
    weights = [mpmath.mpf(w) for w in row.weights.tolist()]
    probs = []
    for c in counts.tolist():
        coef, left = 1, K
        for ca in c:
            coef, left = coef * math.comb(left, ca), left - ca
        probs.append(float(coef * mpmath.fprod(w**ca for w, ca in zip(weights, c))))
    values = sampling._combine(g, counts, row.values)
    return np.bincount(_arcs(g, values), weights=probs, minlength=ARCS)


def _limit_law_arcs(law: LimitLaw) -> np.ndarray:
    """The law on the arcs of full Haar (uniform) or of the Gauss factor:
    the wrapped normal of y_0 = theta / 2 pi, theta of variance b, with the
    normal CDF summed over the wraps."""
    if law.H.is_full():
        return np.full(ARCS, 1.0 / ARCS)
    assert law.H.is_trivial() and not len(law.eta.weights) and law.a == identity(law.group)
    sigma = math.sqrt(law.b.b) / (2 * math.pi)  # in turns
    edges = [mpmath.mpf(a) / ARCS - 0.5 for a in range(ARCS + 1)]
    wraps = range(-math.ceil(10 * sigma) - 1, math.ceil(10 * sigma) + 2)
    cdf = [sum(mpmath.ncdf(t + k, 0, sigma) for k in wraps) for t in edges]
    return np.array([float(hi - lo) for lo, hi in zip(cdf, cdf[1:])])


@pytest.mark.parametrize("sampler", ["row", "law"])
@pytest.mark.parametrize("name", ANGLE_CONFIGS)
def test_draws_follow_the_exact_law_on_arcs_of_y0(name, sampler):
    # the draws' arcs of y_0, drawn from the bundled seed in blocks as
    # _estimate draws them, against the exact law of the i.i.d. row sum at
    # the first mc.n point, or of the limit law
    cfg = parse_config(load_config_text(ANGLE_CONFIGS[name]))
    g, n, M = cfg.group, cfg.mc.n_points[0], 200_000
    if sampler == "row":
        draw, stream = _row_sampler(cfg.array, n), SeededStream(cfg.mc.seed).child(0, n)
        probs = _row_sum_arcs(g, cfg.array.packed(n))
    else:
        draw, stream = _law_sampler(cfg.law), SeededStream(cfg.mc.seed).child(1)
        probs = _limit_law_arcs(cfg.law)
    assert abs(probs.sum() - 1.0) <= 1e-12
    observed = np.bincount(_arcs(g, _block_draws(draw, stream, M)), minlength=ARCS)
    assert _chi2_tail(observed, probs, M) > CHI2_TAIL


def _ragged_row(g, widths, seed, copies=1) -> PackedRow:
    """A table of entries with the given atom counts, at seeded random
    atoms with positive weights, each entry's weights scaled to mass 1."""
    rng = np.random.default_rng(seed)
    size = sum(widths)
    if g.kind == "padic":
        values = [int(v) * 7**20 % g.modulus for v in rng.integers(0, 2**62, size)]
    else:
        values = rng.uniform(-0.5, 0.5, size)
    starts = np.cumsum([0] + list(widths[:-1]))
    weights = rng.uniform(0.05, 1.0, size)
    weights /= np.repeat(np.add.reduceat(weights, starts), widths)
    return PackedRow(g, np.array(values, dtype=block_dtype(g)), weights, starts, copies)


def _skewed_row() -> PackedRow:
    """999 two-atom torus entries, then one entry of 1,000 atoms."""
    return _ragged_row(T, [2] * 999 + [1_000], 8)


MIXED_WIDTHS = [1 + k * 7 % 5 for k in range(230)]  # atom counts 1 to 5, interleaved
RAGGED_ROWS = {
    "torus-mixed": _ragged_row(T, MIXED_WIDTHS, 1),
    "solenoid-mixed": _ragged_row(S, MIXED_WIDTHS, 2),
    "padic-mixed": _ragged_row(P, MIXED_WIDTHS, 3),
    "object-padic": _ragged_row(BIG, MIXED_WIDTHS[:90], 4),
    "two-entries-50-copies": _ragged_row(T, [2, 3], 5, copies=50),
    "skewed": _skewed_row(),
}


class TestRaggedRows:
    @pytest.mark.parametrize("size", [1, 700, 1024])
    @pytest.mark.parametrize("case", sorted(RAGGED_ROWS))
    def test_direct_path_draws_what_padded_tables_draw(self, case, size):
        # the same bits, and the generator left in the same state
        row = RAGGED_ROWS[case]
        array = TriangularArray(row.group, "general", lambda n: row)
        gen, ref_gen = SeededStream(6).generator(), SeededStream(6).generator()
        got = _row_sampler(array, 1)(gen, size)
        want = ref.padded_direct_draw(row, array.row_count(1))(ref_gen, size)
        assert got.dtype == want.dtype
        if got.dtype == object:
            assert got.tolist() == want.tolist()
        else:
            assert got.tobytes() == want.tobytes()
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    def test_one_wide_entry_keeps_the_tables_small(self):
        row = _skewed_row()
        array = TriangularArray(T, "general", lambda n: row)
        tracemalloc.start()
        try:
            _row_sampler(array, 1)(SeededStream(7).generator(), BLOCK_SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
