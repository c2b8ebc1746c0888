import json
import math
import time
from collections import Counter

import pytest

from lcalim import measures
from lcalim.arrays import (
    bernoulli_array,
    general_array,
    iid_symmetric_array,
    linear,
    power,
    rademacher_array,
    row_distribution,
)
from lcalim.cli import load_config_text
from lcalim.config import parse_config
from lcalim.groups import (
    TWO_PI,
    CompactSubgroup,
    canonical_character,
    char_eval_block,
    character,
    from_angle,
    from_int,
    full_subgroup,
    identity,
    neg,
    padic_group,
    solenoid_group,
    torus_group,
    tower_gauge,
    trivial_subgroup,
)
from lcalim.measures import (
    LimitLaw,
    QuadraticFormParam,
    compound_poisson_law,
    gauss_law,
    haar_law,
    point_mass,
    scale_measure,
    validate_levy,
)
from lcalim.verify import (
    ConfigError,
    VerifySettings,
    check_theorem,
    compound_growth,
    default_characters,
    default_neighborhoods,
    ft_sup_distance,
    trend_classify,
)

T = torus_group()
GRID = (100, 1_000, 10_000, 100_000, 1_000_000)
WIDE = GRID + (10_000_000, 100_000_000)


def clt_array(coef=1.0, exp=-0.5):
    return rademacher_array(T, K=linear(1.0), angle=power(coef, exp))


class TestTrendClassify:
    def test_converging_sequence(self):
        seq = [(n, 3.0 + 1.0 / n) for n in (10, 100, 1_000, 10_000, 100_000)]
        v = trend_classify(seq)
        assert v.kind == "converges"
        assert v.value == pytest.approx(3.0, abs=1e-3)

    def test_sqrt_n_diverges(self):
        seq = [(n, math.sqrt(n)) for n in WIDE]
        assert trend_classify(seq).kind == "diverges"

    def test_oscillation_inconclusive(self):
        seq = [(n, (-1.0) ** i) for i, n in enumerate(WIDE)]
        assert trend_classify(seq).kind == "inconclusive"

    def test_increasing_but_small_is_not_divergent(self):
        seq = [(n, 10.0 - 1.0 / n) for n in (10, 20, 30)]
        v = trend_classify(seq, tol=1e-12)
        assert v.kind == "inconclusive"

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="window"):
            trend_classify([(1, 0.0), (2, 0.0)], window=3)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            trend_classify([(10, 0.0), (5, 0.0), (20, 0.0)])

    def test_tightening_tol_never_creates_convergence(self):
        seqs = [
            [(n, math.sqrt(n)) for n in WIDE],
            [(n, 1.0 + 0.1 * (-1) ** i) for i, n in enumerate(WIDE)],
            [(n, 2.0 + 1.0 / n) for n in WIDE],
        ]
        for seq in seqs:
            loose = trend_classify(seq, tol=1e-2)
            tight = trend_classify(seq, tol=1e-6)
            if loose.kind == "inconclusive":
                assert tight.kind != "converges"

    def test_verdict_carries_window_mean(self):
        seq = [(n, 5.0) for n in (1, 2, 3, 4)]
        v = trend_classify(seq)
        assert v.value == 5.0
        assert v.evidence == (5.0, 5.0, 5.0)

    def test_window_mean_adds_left_to_right(self):
        # builtin sum() compensates from Python 3.12 on and reads
        # 0.005833333333333334 here; the reports keep one value on every Python
        v = trend_classify([(1, 0.01), (2, 0.005), (3, 0.0025)], tol=1e-2)
        assert v.kind == "converges" and v.value == 0.005833333333333333


class TestJudge:
    # every hypothesis verdict reads the settings' trend tolerance, window
    # and divergence threshold
    def test_trend_tolerance_is_read(self):
        seq = list(zip(GRID, (1.0, 1.0, 1.0, 1.05, 1.1)))
        assert not VerifySettings().judge("c", seq, 1.05).passed
        assert VerifySettings(trend_tol=0.1).judge("c", seq, 1.05).passed

    def test_window_is_read(self):
        seq = list(zip(GRID, (5.0, 4.0, 3.0, 1.0, 1.0)))
        assert not VerifySettings().judge("c", seq, 1.0).passed
        assert VerifySettings(window=2).judge("c", seq, 1.0).passed

    def test_divergence_threshold_is_read(self):
        seq = list(zip(GRID, (1.0, 2.0, 10.0, 20.0, 30.0)))
        assert not VerifySettings().judge("c", seq, None).passed
        assert VerifySettings(divergence_threshold=25.0).judge("c", seq, None).passed


class TestCompoundGrowth:
    def test_alpha_zero(self):
        for n in (1, 10, 1_000_000):
            assert compound_growth(0.0, n) == 1.0

    def test_oracle_value(self):
        # oracle: exp(1000 * ln(1.002))
        assert compound_growth(2.0, 1000) == pytest.approx(
            math.exp(1000.0 * math.log(1.002)), rel=1e-14
        )
        assert compound_growth(2.0, 1000) == pytest.approx(7.3743, abs=5e-5)

    def test_boundary_exact_zero(self):
        assert compound_growth(-1000.0, 1000) == 0.0

    def test_below_boundary_rejected(self):
        with pytest.raises(ValueError):
            compound_growth(-1001.0, 1000)

    def test_limit_fidelity(self):
        n = 10**6
        for a in range(-5, 6):
            assert abs(compound_growth(float(a), n) - math.exp(a)) <= 1e-4 * math.exp(a)


class TestFtSupDistance:
    def test_exactly_distributed_array_gives_zero(self):
        # point-mass rows at the identity match the point-mass law exactly
        dist = row_distribution(T, [(identity(T), 1.0)])
        arr = iid_symmetric_array(T, lambda n: dist, K=linear(1.0))
        law = gauss_law(T, 0.0)
        chars = [character(T, l) for l in range(-5, 6)]
        for n in GRID:
            assert ft_sup_distance(arr, law, n, chars) == 0.0

    def test_clt_bound_at_large_n(self):
        # |cos(l/1000)^1e6 - exp(-l^2/2)| small for l in 1..3
        arr = clt_array()
        chars = [character(T, l) for l in (1, 2, 3)]
        assert ft_sup_distance(arr, gauss_law(T, 1.0), 10**6, chars) <= 5e-4

    def test_mismatched_rate_bounded_away(self):
        g = padic_group(2)
        arr = bernoulli_array(g, from_int(g, 1), p=power(1.0, -1.0), K=linear(1.0))
        law = compound_poisson_law(scale_measure(point_mass(from_int(g, 1)), 2.0))
        chars = [character(g, 1, 0)]
        # limit of the gap: |exp(-2) - exp(-4)|
        gap = ft_sup_distance(arr, law, 10**6, chars)
        assert gap == pytest.approx(abs(math.exp(-2) - math.exp(-4)), abs=1e-3)
        assert gap > 0.1


class TestDefaults:
    def test_default_characters_cover_groups(self):
        assert len(default_characters(T)) == 17
        gp = padic_group(2, 8)
        chars = default_characters(gp)
        assert all(c.d <= 3 for c in chars)
        assert any(c.ell == 0 for c in chars)
        gs = solenoid_group(2, 8)
        assert all(abs(c.ell) <= 8 for c in default_characters(gs))

    def test_default_characters_deduplicate_refinements(self):
        gp = padic_group(2, 8)
        chars = default_characters(gp)
        assert len(set(chars)) == len(chars)
        # chi_{1,2} refines to chi_{0,1}; only the canonical one is kept
        assert character(gp, 2, 1) not in chars
        assert character(gp, 1, 0) in chars

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_default_characters_keep_list_scan_order(self, p):
        def list_scan(group, max_ell=8, max_d=3):
            if group.kind == "padic":
                pairs = [(l, d) for d in range(max_d + 1) for l in range(p ** (d + 1))]
            else:
                pairs = [(l, d) for d in range(max_d + 1) for l in range(-max_ell, max_ell + 1)]
            seen = []
            for l, d in pairs:
                chi = canonical_character(character(group, l, d))
                if chi not in seen:
                    seen.append(chi)
            return tuple(seen)

        for g in (padic_group(p, 4), solenoid_group(p, 4)):
            assert default_characters(g) == list_scan(g)

    def test_default_characters_large_prime(self):
        t0 = time.perf_counter()
        chars = default_characters(padic_group(11, 4))
        assert time.perf_counter() - t0 < 1.0
        # the canonical characters of depth <= 3 are indexed by Z/11^4
        assert len(chars) == 11**4

    def test_default_characters_size_guard(self):
        # p = 23 at depth 4 would enumerate 23 + 23^2 + 23^3 + 23^4 characters
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match="list `characters` explicitly"):
            default_characters(padic_group(23, 4))
        with pytest.raises(ConfigError, match="105101004 characters"):
            default_characters(padic_group(101, 8))
        assert time.perf_counter() - t0 < 1.0
        assert len(default_characters(padic_group(23, 2))) == 23**3

    def test_default_neighborhoods(self):
        assert len(default_neighborhoods(T)) == 3
        assert [U.rank for U in default_neighborhoods(padic_group(2, 8))] == [1, 2, 3]
        gs = solenoid_group(2, 4)
        assert all(U.eps > 0 for U in default_neighborhoods(gs))

    def test_settings_validation(self):
        with pytest.raises(ConfigError, match="grid"):
            VerifySettings(grid=(100, 50)).resolved(T)
        with pytest.raises(ConfigError, match="window"):
            VerifySettings(grid=(100, 200)).resolved(T)
        with pytest.raises(ConfigError, match="different group"):
            VerifySettings(characters=(character(padic_group(2, 2), 1, 0),)).resolved(T)

    def test_negative_tolerances_rejected(self):
        with pytest.raises(ConfigError, match="tolerances.trend must be non-negative"):
            VerifySettings(trend_tol=-1e-3).resolved(T)
        with pytest.raises(ConfigError, match="tolerances.ft must be non-negative"):
            check_theorem(clt_array(), gauss_law(T, 1.0), VerifySettings(ft_tol=-1.0))
        zero = VerifySettings(trend_tol=0.0, ft_tol=0.0).resolved(T)
        assert (zero.trend_tol, zero.ft_tol) == (0.0, 0.0)


class TestElementDistance:
    # the gauge of the gaiser mean gap: radians on the torus, the padic
    # metric on padic groups
    def test_torus_angle_gap(self):
        assert tower_gauge(from_angle(T, 0.5), from_angle(T, 0.2), TWO_PI) == pytest.approx(0.3)

    def test_padic_uses_metric(self):
        g = padic_group(2, 6)
        assert tower_gauge(from_int(g, 4), from_int(g, 0), TWO_PI) == 0.25


class TestCheckTheorem:
    def test_clt_pass(self):
        settings = VerifySettings(characters=tuple(character(T, l) for l in (1, 2, 3)))
        report = check_theorem(clt_array(), gauss_law(T, 1.0), settings)
        assert report.theorem == "rademacher-clt"
        assert report.overall == "pass"
        assert report.ft_passed
        assert all(c.passed for c in report.conditions)

    def test_clt_wrong_b_fails(self):
        settings = VerifySettings(characters=tuple(character(T, l) for l in (1, 2, 3)))
        report = check_theorem(clt_array(), gauss_law(T, 2.0), settings)
        assert report.overall == "fail"

    def test_haar_pass_on_wide_grid(self):
        settings = VerifySettings(
            grid=WIDE, characters=tuple(character(T, l) for l in (1, 2, 3))
        )
        arr = clt_array(exp=-0.25)
        report = check_theorem(arr, haar_law(full_subgroup(T)), settings)
        assert report.theorem == "rademacher-haar"
        assert report.overall == "pass"

    def test_bernoulli_poisson_pass_with_cylinders(self):
        g = padic_group(2)
        arr = bernoulli_array(g, from_int(g, 1), p=power(2.0, -1.0), K=linear(1.0))
        law = compound_poisson_law(scale_measure(point_mass(from_int(g, 1)), 2.0))
        report = check_theorem(arr, law)
        assert report.theorem == "bernoulli-poisson"
        assert report.overall == "pass"
        cylinder_conditions = [c for c in report.conditions if c.name.startswith("cylinder")]
        assert cylinder_conditions
        assert all(c.passed for c in cylinder_conditions)

    def test_bernoulli_haar_with_subgroup_check(self):
        g = padic_group(2)
        arr = bernoulli_array(g, from_int(g, 2), p=power(1.0, -0.5), K=linear(1.0))
        from lcalim.groups import lambda_subgroup

        settings = VerifySettings(grid=WIDE)
        good = check_theorem(arr, haar_law(lambda_subgroup(g, 1)), settings)
        assert good.theorem == "bernoulli-haar"
        assert good.overall == "pass"
        # wrong subgroup: structural check and FT both fail
        bad = check_theorem(arr, haar_law(lambda_subgroup(g, 0)), settings)
        assert bad.overall == "fail"
        structural = [c for c in bad.conditions if c.name == "subgroup"]
        assert structural and not structural[0].passed

    def test_gaiser_route_with_poisson_component(self):
        # symmetric two-point rows with a fixed atom: eta = w(dx + d-x)
        x = from_angle(T, 1.0)
        lam = 1.5

        def rows(n):
            p = lam / n
            return row_distribution(
                T, [(x, p / 2), (neg(x), p / 2), (identity(T), 1.0 - p)]
            )

        arr = iid_symmetric_array(T, rows, K=linear(1.0))
        eta = validate_levy(_two_point(x, lam))
        law = LimitLaw(trivial_subgroup(T), identity(T), QuadraticFormParam(T, 0.0), eta)
        report = check_theorem(arr, law)
        assert report.theorem == "gaiser"
        assert report.overall == "pass"

    def test_gaiser_route_padic_general_array_with_cylinders(self):
        # Bernoulli-type rows declared as an explicit general table: the
        # dispatcher takes the Gaiser route and must still track cylinders
        g = padic_group(2, 8)
        x = from_int(g, 1)
        lam = 0.5
        grid = (1_000, 10_000, 100_000)

        def rows(n):
            dist = row_distribution(g, [(x, lam / n), (identity(g), 1.0 - lam / n)])
            return (dist,) * n

        arr = general_array(g, rows)
        law = LimitLaw(
            trivial_subgroup(g),
            identity(g),
            QuadraticFormParam(g, 0.0),
            validate_levy(scale_measure(point_mass(x), lam)),
        )
        chars = tuple(character(g, l, d) for d, l in ((0, 1), (1, 1), (1, 3), (2, 1)))
        report = check_theorem(arr, law, VerifySettings(grid=grid, characters=chars))
        assert report.theorem == "gaiser"
        assert report.overall == "pass"
        cylinders = [c for c in report.conditions if c.name.startswith("cylinder")]
        assert cylinders and all(c.passed for c in cylinders)

    def test_rows_built_once_per_grid_point(self, monkeypatch):
        calls = Counter()
        grid = (10, 20, 40, 80)

        def general_rows(n):
            calls[n] += 1
            x = from_angle(T, 1.0 / math.sqrt(n))
            return (row_distribution(T, [(x, 0.5), (neg(x), 0.5)]),) * n

        arr = general_array(T, general_rows)
        report = check_theorem(arr, gauss_law(T, 1.0), VerifySettings(grid=grid))
        assert report.theorem == "gaiser"
        assert calls == Counter(grid)

        calls.clear()

        def iid_rows(n):
            calls[n] += 1
            x = from_angle(T, 1.0 / math.sqrt(n))
            return row_distribution(T, [(x, 0.5), (neg(x), 0.5)])

        arr = iid_symmetric_array(T, iid_rows, K=linear(1.0))
        report = check_theorem(arr, gauss_law(T, 1.0), VerifySettings(grid=grid))
        assert report.theorem == "symmetric-clt"
        assert calls == Counter(grid)

        # one character pass over the whole grid for the FT table and one for
        # the moment gaps, whatever the number of characters or grid points
        evals = []

        def counting(group, chars, values):
            evals.append(len(chars))
            return char_eval_block(group, chars, values)

        monkeypatch.setattr(measures, "char_eval_block", counting)
        for points in (grid, tuple(range(10, 410, 10))):
            for count in (1, 4, 16):
                evals.clear()
                chars = tuple(character(T, l) for l in range(1, count + 1))
                settings = VerifySettings(grid=points, characters=chars)
                check_theorem(arr, gauss_law(T, 1.0), settings)
                # two array passes (the moment gaps, the FT table) and two
                # law passes (chi(a), the generalized Poisson factor)
                assert evals == [count] * 4

    def test_dispatch_rejects_unsupported_pairs(self):
        # general array against a Haar law has no covering theorem here
        dist = row_distribution(T, [(identity(T), 1.0)])
        arr = general_array(T, lambda n: (dist,) * 3)
        with pytest.raises(ConfigError, match="idempotent"):
            check_theorem(arr, haar_law(full_subgroup(T)))

    def test_group_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="group"):
            check_theorem(clt_array(), gauss_law(solenoid_group(2, 4), 1.0))

    def test_ft_pass_hypotheses_fail_is_distinct(self):
        # correct limit law but a foreign neighborhood makes a tail target wrong:
        # take a Bernoulli-Poisson instance and a law whose eta has an extra
        # far atom that the FT barely sees but the tail condition does
        g = padic_group(2)
        arr = bernoulli_array(g, from_int(g, 1), p=power(2.0, -1.0), K=linear(1.0))
        eta_atoms = [(from_int(g, 1), 2.0), (from_int(g, 3), 1e-9)]
        from lcalim.measures import discrete_measure

        law = LimitLaw(
            trivial_subgroup(g),
            identity(g),
            QuadraticFormParam(g, 0.0),
            validate_levy(discrete_measure(g, eta_atoms)),
        )
        settings = VerifySettings(trend_tol=1e-12, ft_tol=1e-3)
        report = check_theorem(arr, law, settings)
        assert report.ft_passed
        assert report.overall == "ft_pass_hypotheses_fail"

    def test_report_deterministic(self):
        settings = VerifySettings(characters=tuple(character(T, l) for l in (1, 2)))
        r1 = check_theorem(clt_array(), gauss_law(T, 1.0), settings)
        r2 = check_theorem(clt_array(), gauss_law(T, 1.0), settings)
        assert r1 == r2

    def test_bernoulli_haar_on_a_padic_full_subgroup(self):
        # "full" and lambda(0) are one subgroup, so the closure of <1> is it
        g = padic_group(2)
        arr = bernoulli_array(g, from_int(g, 1), p=power(1.0, -0.5), K=linear(1.0))
        report = check_theorem(arr, haar_law(CompactSubgroup(g, "full")), VerifySettings(grid=WIDE))
        assert [c.passed for c in report.conditions if c.name == "subgroup"] == [True]
        assert (report.theorem, report.overall) == ("bernoulli-haar", "pass")

    def test_solenoid_clt_pass(self):
        g = solenoid_group(2)
        arr = rademacher_array(g, K=linear(1.0), angle=power(1.0, -0.5))
        chars = tuple(
            character(g, l, d) for d in (0, 1, 2) for l in (1, 2, 3)
        )
        report = check_theorem(arr, gauss_law(g, 1.0), VerifySettings(characters=chars))
        assert report.overall == "pass"


def _bundled_with_exp(example, schedule, exp):
    """The bundled example's config with the exponent of its array's
    schedule set to exp."""
    doc = json.loads(load_config_text(example))
    doc["array"][schedule]["exp"] = exp
    return parse_config(json.dumps(doc))


# ROADMAP item 9: a "-> infinity" target passes only once the window ends
# above the divergence threshold 1e3, while the FT is within tolerance once
# the gap passes ln 1000
ITEM_9 = "ROADMAP item 9: the pure-Haar divergence rule is stricter than the FT"


class TestPureHaarFalseFailures:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_9)
    def test_torus_haar_angle_exponent_minus_0_3(self):
        # char_gap[l:1] reads 125.6, 315.5, 792.4 at the top of the grid
        cfg = _bundled_with_exp("torus_haar", "angle", -0.3)
        assert check_theorem(cfg.array, cfg.law, cfg.settings).overall == "pass"

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_9)
    def test_padic_haar_rate_exponent_minus_0_64(self):
        # rate reads 144.5, 331.1, 758.6 at the top of the grid
        cfg = _bundled_with_exp("padic_haar", "p", -0.64)
        assert check_theorem(cfg.array, cfg.law, cfg.settings).overall == "pass"


def _two_point(x, lam):
    from lcalim.measures import discrete_measure

    return discrete_measure(x.group, [(x, lam / 2), (neg(x), lam / 2)])


def _routes(report) -> tuple[bool, bool, bool]:
    """The three equivalent routes of a symmetric-CLT report: the FT
    distance, the moment gaps (char_gap), and the Levy conditions (var_sum
    and tail_sum)."""

    def route(*families):
        return all(c.passed for c in report.conditions if c.name.partition("[")[0] in families)

    return report.ft_passed, route("char_gap"), route("var_sum", "tail_sum")


class TestCrosscheck:
    def test_clt_instance_all_pass(self):
        report = check_theorem(clt_array(), gauss_law(T, 1.0))
        assert report.theorem == "rademacher-clt"
        assert _routes(report) == (True, True, True)

    def test_haar_instance_all_fail(self):
        report = check_theorem(clt_array(exp=-0.25), gauss_law(T, 1.0))
        assert _routes(report) == (False, False, False)

    def test_degenerate_instance_b_zero(self):
        dist = row_distribution(T, [(identity(T), 1.0)])
        arr = iid_symmetric_array(T, lambda n: dist, K=linear(1.0))
        report = check_theorem(arr, gauss_law(T, 0.0))
        assert report.theorem == "symmetric-clt"
        assert _routes(report) == (True, True, True)
