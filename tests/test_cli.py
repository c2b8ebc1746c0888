import csv
import json
import math
import os
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcalim import arrays, cli
from lcalim.arrays import row_ft_exact
from lcalim.config import parse_config
from lcalim.groups import character
from lcalim.measures import limit_law_ft
from lcalim.runner import run_check, run_sample
from lcalim.verify import ConfigError, check_theorem

FAST_CLT = """
{
  "group": {"kind": "torus"},
  "array": {
    "kind": "rademacher",
    "angle": {"kind": "power", "coef": 1.0, "exp": -0.5},
    "K": {"kind": "linear", "coef": 1.0}
  },
  "law": {"H": {"kind": "trivial"}, "b": 1.0, "eta": []},
  "grid": [1000, 10000, 100000],
  "characters": [{"l": 1}, {"l": 2}],
  "mc": {"enabled": true, "replicates": 2000, "seed": 9, "n": [100]},
  "out": "out"
}
"""


class TestParseConfig:
    def test_minimal_torus_config(self):
        cfg = parse_config(FAST_CLT)
        assert cfg.group.kind == "torus"
        assert cfg.settings.grid == (1000, 10000, 100000)
        assert len(cfg.settings.characters) == 2
        assert cfg.mc.replicates == 2000

    def test_defaults_fill_in(self):
        cfg = parse_config(
            '{"group": {"kind": "torus"},'
            ' "array": {"kind": "rademacher", "angle": {"kind": "power", "coef": 1, "exp": -0.5},'
            ' "K": {"kind": "linear", "coef": 1}},'
            ' "law": {"b": 1.0}}'
        )
        assert cfg.settings.grid == (100, 1000, 10000, 100000, 1000000)
        assert len(cfg.settings.characters) == 17
        assert len(cfg.settings.neighborhoods) == 3

    def test_padic_positive_b_rejected(self):
        text = """
        {
          "group": {"kind": "padic", "p": 2},
          "array": {"kind": "bernoulli", "x": {"digits": [1]},
                    "p": {"kind": "power", "coef": 1.0, "exp": -1.0},
                    "K": {"kind": "linear", "coef": 1.0}},
          "law": {"b": 0.5}
        }
        """
        with pytest.raises(ConfigError, match="quadratic form must be 0 on p-adic"):
            parse_config(text)

    def test_missing_prime(self):
        with pytest.raises(ConfigError, match="prime"):
            parse_config('{"group": {"kind": "padic"}, "array": {}, "law": {}}')

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    def test_missing_fields_named(self):
        with pytest.raises(ConfigError, match="group"):
            parse_config("{}")
        with pytest.raises(ConfigError, match="missing field 'K'"):
            parse_config(
                '{"group": {"kind": "torus"}, "array": {"kind": "rademacher",'
                ' "angle": {"kind": "constant", "value": 0.1}}, "law": {}}'
            )

    def test_levy_identity_atom_rejected(self):
        text = """
        {
          "group": {"kind": "torus"},
          "array": {"kind": "rademacher", "angle": {"kind": "power", "coef": 1, "exp": -0.5},
                    "K": {"kind": "linear", "coef": 1}},
          "law": {"eta": [{"x": {"angle": 0.0}, "weight": 1.0}]}
        }
        """
        with pytest.raises(ConfigError, match="identity"):
            parse_config(text)

    def test_table_schedule_must_cover_grid(self):
        text = """
        {
          "group": {"kind": "torus"},
          "array": {"kind": "rademacher", "angle": {"kind": "table", "values": {"100": 0.1}},
                    "K": {"kind": "linear", "coef": 1}},
          "law": {"b": 0.0},
          "grid": [100, 1000, 10000]
        }
        """
        with pytest.raises(ConfigError, match="cover the grid"):
            parse_config(text)

    def test_law_mean_shift(self):
        text = """
        {
          "group": {"kind": "torus"},
          "array": {"kind": "bernoulli", "x": {"angle": 0.5},
                    "p": {"kind": "power", "coef": 1.0, "exp": -1.0},
                    "K": {"kind": "linear", "coef": 1.0}},
          "law": {"a": "mean", "eta": [{"x": {"angle": 0.5}, "weight": 1.0}]}
        }
        """
        cfg = parse_config(text)
        assert cfg.law.a.turns == pytest.approx(0.5 / (2 * math.pi), abs=1e-12)

    def test_bundled_examples_parse(self):
        for name in cli.bundled_example_names():
            cfg = parse_config(cli.load_config_text(name))
            assert cfg.settings.grid


class TestRunners:
    def test_verify_writes_reports_and_passes(self, tmp_path):
        cfg = parse_config(FAST_CLT)
        out = str(tmp_path / "r")
        assert run_check(cfg, out, "verify") == 0
        assert set(os.listdir(out)) == {"ft_table.csv", "conditions.csv", "summary.json"}
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["overall"] == "pass"
        assert summary["theorem"] == "rademacher-clt"

    def test_ft_table_round_trips_library_values(self, tmp_path):
        cfg = parse_config(FAST_CLT)
        out = str(tmp_path / "r")
        run_check(cfg, out, "verify")
        with open(os.path.join(out, "ft_table.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 2
        for row in rows:
            n = int(row["n"])
            ell = int(row["char_id"].split(":")[1])
            chi = character(cfg.group, ell)
            exact = row_ft_exact(cfg.array, (n,), (chi,))[0][0]
            (limit,) = limit_law_ft(cfg.law, (chi,))
            assert float(row["re_exact"]) == exact.real
            assert float(row["im_exact"]) == exact.imag
            assert float(row["re_limit"]) == limit.real
            assert float(row["abs_err"]) == abs(exact - limit)

    def test_conditions_table_round_trips_library_values(self, tmp_path):
        from lcalim.arrays import sum_var_g, symmetric_stat
        from lcalim.verify import ft_sup_distance

        cfg = parse_config(FAST_CLT)
        out = str(tmp_path / "r")
        run_check(cfg, out, "verify")
        with open(os.path.join(out, "conditions.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            n, value = int(row["n"]), float(row["value"])
            name = row["condition"]
            if name.startswith("char_gap"):
                ell = int(name.split("l:")[1].rstrip("]"))
                assert value == symmetric_stat(cfg.array, (n,), (character(cfg.group, ell),))[0][0]
            elif name.startswith("var_sum"):
                ell = int(name.split("l:")[1].rstrip("]"))
                assert value == sum_var_g(cfg.array, (n,), (character(cfg.group, ell),))[0][0]
            elif name == "ft_sup_distance":
                assert value == ft_sup_distance(
                    cfg.array, cfg.law, n, cfg.settings.characters
                )

    @pytest.mark.parametrize("name", cli.bundled_example_names())
    def test_every_output_round_trips(self, tmp_path, name):
        # padic and solenoid char_ids, neighbourhood labels and cylinder
        # names contain commas; every file must still parse field for field
        cfg = parse_config(cli.load_config_text(name))
        chars = {chi.char_id: chi for chi in cfg.settings.characters}
        out = tmp_path / name
        run_check(cfg, str(out / "verify"), "verify")
        run_check(cfg, str(out / "conditions"), "conditions")
        run_sample(cfg, str(out / "sample"))
        paths = sorted(out.rglob("*.csv"))
        assert [p.relative_to(out).as_posix() for p in paths] == [
            "conditions/conditions.csv",
            "sample/mc_table.csv",
            "verify/conditions.csv",
            "verify/ft_table.csv",
        ]
        for path in paths:
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) > 1
            assert all(len(row) == len(rows[0]) for row in rows), path
        for path in sorted(out.rglob("summary.json")):
            with open(path, encoding="utf-8") as fh:
                json.load(fh)

        with open(out / "verify" / "ft_table.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                chi = chars[row["char_id"]]
                exact = row_ft_exact(cfg.array, (int(row["n"]),), (chi,))[0][0]
                (limit,) = limit_law_ft(cfg.law, (chi,))
                assert float(row["re_exact"]) == exact.real
                assert float(row["im_exact"]) == exact.imag
                assert float(row["re_limit"]) == limit.real
                assert float(row["im_limit"]) == limit.imag

        report = check_theorem(cfg.array, cfg.law, cfg.settings)
        expected = [
            (cond.name, n, value) for cond in report.conditions for n, value in cond.sequence
        ]
        expected += [("ft_sup_distance", n, value) for n, value in report.ft_sup]
        for mode in ("verify", "conditions"):
            with open(out / mode / "conditions.csv", newline="") as fh:
                got = [
                    (row["condition"], int(row["n"]), float(row["value"]))
                    for row in csv.DictReader(fh)
                ]
            assert got == expected

        with open(out / "sample" / "mc_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["char_id"] for row in rows} == set(chars)
        for row in rows:
            chi = chars[row["char_id"]]
            if row["kind"] == "array":
                exact = row_ft_exact(cfg.array, (int(row["n"]),), (chi,))[0][0]
            else:
                (exact,) = limit_law_ft(cfg.law, (chi,))
            assert float(row["re_exact"]) == exact.real
            assert float(row["im_exact"]) == exact.imag
            assert int(row["replicates"]) == cfg.mc.replicates

    def test_reports_regenerate_bit_identically(self, tmp_path):
        cfg = parse_config(FAST_CLT)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_check(cfg, out1, "verify")
        run_check(cfg, out2, "verify")
        for name in ("ft_table.csv", "conditions.csv", "summary.json"):
            with open(os.path.join(out1, name), "rb") as fh:
                c1 = fh.read()
            with open(os.path.join(out2, name), "rb") as fh:
                c2 = fh.read()
            assert c1 == c2

    def test_csv_uses_lf_endings(self, tmp_path):
        cfg = parse_config(FAST_CLT)
        out = str(tmp_path / "r")
        run_check(cfg, out, "verify")
        with open(os.path.join(out, "ft_table.csv"), "rb") as fh:
            data = fh.read()
        assert b"\r" not in data

    def test_conditions_mode(self, tmp_path):
        cfg = parse_config(FAST_CLT)
        out = str(tmp_path / "c")
        assert run_check(cfg, out, "conditions") == 0
        assert set(os.listdir(out)) == {"conditions.csv", "summary.json"}
        with open(os.path.join(out, "conditions.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        names = {r["condition"] for r in rows}
        assert "ft_sup_distance" in names
        assert any(name.startswith("char_gap") for name in names)

    def test_sample_mode_passes_and_reruns_identically(self, tmp_path):
        cfg = parse_config(FAST_CLT)
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        assert run_sample(cfg, out1) == 0
        assert run_sample(cfg, out2) == 0
        with open(os.path.join(out1, "mc_table.csv"), "rb") as fh:
            c1 = fh.read()
        with open(os.path.join(out2, "mc_table.csv"), "rb") as fh:
            c2 = fh.read()
        assert c1 == c2
        with open(os.path.join(out1, "summary.json")) as fh:
            assert json.load(fh)["overall"] == "pass"

    def test_sample_seed_override_changes_estimates(self, tmp_path):
        cfg = parse_config(FAST_CLT)
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        run_sample(cfg, out1)
        run_sample(cfg, out2, seed_override=123)
        with open(os.path.join(out1, "mc_table.csv"), "rb") as fh:
            c1 = fh.read()
        with open(os.path.join(out2, "mc_table.csv"), "rb") as fh:
            c2 = fh.read()
        assert c1 != c2

    @pytest.mark.parametrize(
        "run",
        [
            lambda cfg, out: run_check(cfg, out, "verify"),
            lambda cfg, out: run_check(cfg, out, "conditions"),
            run_sample,
        ],
        ids=["verify", "conditions", "sample"],
    )
    def test_io_failure_exit_code(self, tmp_path, run):
        cfg = parse_config(FAST_CLT)
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        assert run(cfg, str(blocked)) == 3


class TestCLI:
    def test_verify_bundled_example_passes(self, tmp_path):
        rc = cli.main(["verify", "--config", "torus_clt", "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_mismatch_example_fails(self, tmp_path):
        rc = cli.main(
            ["verify", "--config", "bernoulli_mismatch", "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        with open(tmp_path / "o" / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["overall"] == "fail"

    def test_malformed_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = cli.main(["verify", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_semantic_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"group": {"kind": "padic", "p": 2},'
            ' "array": {"kind": "bernoulli", "x": {"digits": [1]},'
            ' "p": {"kind": "power", "coef": 1.0, "exp": -1.0},'
            ' "K": {"kind": "linear", "coef": 1.0}},'
            ' "law": {"b": 0.5}}'
        )
        rc = cli.main(["verify", "--config", str(bad)])
        assert rc == 2

    @pytest.mark.parametrize("name", ["torus_clt", "padic_poisson", "bernoulli_mismatch"])
    def test_null_rule_checked_once_per_verify(self, tmp_path, monkeypatch, name):
        # every binding of check_null_rule in the package counts
        calls = []
        real = arrays.check_null_rule

        def counting(array, grid):
            calls.append(grid)
            return real(array, grid)

        for module in [m for key, m in sys.modules.items() if key.startswith("lcalim")]:
            if getattr(module, "check_null_rule", None) is real:
                monkeypatch.setattr(module, "check_null_rule", counting)
        cli.main(["verify", "--config", name, "--out", str(tmp_path / "o")])
        assert len(calls) == 1

    def test_parser_built_once_per_process(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(FAST_CLT)
        cli.main(["conditions", "--config", str(cfg), "--out", str(tmp_path / "warm")])

        def rebuild():
            raise AssertionError("argparse parser rebuilt")

        monkeypatch.setattr(cli, "build_parser", rebuild)
        # one call's options do not leak into the next
        for seed, want in (("5", 5), (None, 9), ("7", 7), (None, 9)):
            out = tmp_path / f"o{seed}"
            argv = ["sample", "--config", str(cfg), "--out", str(out)]
            assert cli.main(argv + (["--seed", seed] if seed else [])) == 0
            with open(out / "summary.json") as fh:
                assert json.load(fh)["seed"] == want
        with pytest.raises(SystemExit):
            cli.main(["sample"])  # --config stays required

    def test_missing_config_exit_3(self, tmp_path):
        rc = cli.main(["verify", "--config", str(tmp_path / "nope.json")])
        assert rc == 3

    def test_conditions_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(FAST_CLT)
        rc = cli.main(["conditions", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "conditions.csv").exists()

    def test_sample_subcommand_with_seed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(FAST_CLT)
        rc = cli.main(
            ["sample", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "5"]
        )
        assert rc == 0
        with open(tmp_path / "o" / "summary.json") as fh:
            assert json.load(fh)["seed"] == 5

    def test_selftest_reports_lines(self, monkeypatch, capsys):
        import lcalim.acceptance as acceptance

        monkeypatch.setattr(
            acceptance, "run_all", lambda: [("criterion-x", True, "fine")]
        )
        rc = cli.main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS  criterion-x" in out

    def test_selftest_failure_exit_code(self, monkeypatch, capsys):
        import lcalim.acceptance as acceptance

        monkeypatch.setattr(
            acceptance, "run_all", lambda: [("criterion-x", False, "broken")]
        )
        rc = cli.main(["selftest"])
        assert rc == 1
        assert "FAIL  criterion-x" in capsys.readouterr().out

    def test_bundled_names_listed(self):
        names = cli.bundled_example_names()
        assert "torus_clt" in names
        assert "bernoulli_mismatch" in names


def _bundled_doc(name):
    with open(os.path.join(os.path.dirname(cli.__file__), "examples", f"{name}.json")) as fh:
        return json.load(fh)


def _key_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _key_paths(value, prefix + (key,))


def _mutated(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _run_cli(tmp_path, command, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])


def _general_rows(entry):
    return {str(n): [entry(n, k) for k in range(n)] for n in (3, 4, 5)}


# base documents of the fuzz: the bundled examples, none of which is a
# general array, and one small general array on the torus and on Z_2
_FUZZ_DOCS = {name: _bundled_doc(name) for name in cli.bundled_example_names()}
_FUZZ_DOCS["general_torus"] = {
    "group": {"kind": "torus"},
    "array": {
        "kind": "general",
        "rows": _general_rows(
            lambda n, k: [
                {"x": {"angle": (k + 1) / n}, "weight": 0.5},
                {"x": {"turns": -(k + 1) / (2 * math.pi * n)}, "weight": 0.5},
            ]
        ),
    },
    "law": {"H": {"kind": "trivial"}, "b": 0.5, "eta": []},
    "grid": [3, 4, 5],
    "characters": [{"l": 1}, {"l": 2}],
    "mc": {"replicates": 50, "seed": 3, "n": [4]},
}
_FUZZ_DOCS["general_padic"] = {
    "group": {"kind": "padic", "p": 2, "depth": 6},
    "array": {
        "kind": "general",
        "rows": _general_rows(
            lambda n, k: [
                {"x": {"digits": [1, k % 2]}, "weight": 1.0 / n},
                {"x": {"int": 0}, "weight": 1.0 - 1.0 / n},
            ]
        ),
    },
    "law": {"H": {"kind": "trivial"}, "b": 0.0, "eta": [{"x": {"int": 1}, "weight": 1.0}]},
    "grid": [3, 4, 5],
    "mc": {"replicates": 50, "seed": 3, "n": [4]},
}
_KEY_PATHS = [(name, path) for name, doc in _FUZZ_DOCS.items() for path in _key_paths(doc)]
_KEYS = sorted({key for _, path in _KEY_PATHS for key in path if isinstance(key, str)})
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)

_PADIC_RADEMACHER = {
    "group": {"kind": "padic", "p": 2},
    "array": {"kind": "rademacher", "K": {"kind": "linear", "coef": 1.0}},
    "law": {},
}
_GENERAL = {"group": {"kind": "torus"}, "array": {"kind": "general"}, "law": {}}
_INVALID = {
    "grid not a list": ("torus_clt", ("grid",), 5),
    "non-numeric grid entry": ("torus_clt", ("grid", 1), "x"),
    "non-numeric character index": ("torus_clt", ("characters", 0, "l"), "one"),
    "non-numeric replicates": ("torus_clt", ("mc", "replicates"), "many"),
    "fractional replicates": ("torus_clt", ("mc", "replicates"), 1.5),
    "string depth": ("padic_poisson", ("group", "depth"), "16"),
    "string nan trend tolerance": ("torus_clt", ("tolerances",), {"trend": "nan"}),
    "negative trend tolerance": ("torus_clt", ("tolerances",), {"trend": -1e-3}),
    "negative ft tolerance": ("torus_clt", ("tolerances",), {"ft": -1}),
    "padic Rademacher elements as a list": (
        _PADIC_RADEMACHER,
        ("array", "elements"),
        [{"int": 2}],
    ),
    "general rows as a list": (
        _GENERAL,
        ("array", "rows"),
        [[{"x": {"angle": 0.1}, "weight": 1.0}]],
    ),
    "law matching no theorem": ("torus_clt", ("law",), {"H": {"kind": "full"}, "b": 1.0}),
    "null out": ("torus_clt", ("out",), None),
    "numeric out": ("torus_clt", ("out",), 5),
    "object out": ("torus_clt", ("out",), {"a": 1}),
    "empty out": ("torus_clt", ("out",), ""),
}


class TestExitCodeContract:
    @pytest.mark.parametrize("command", ["verify", "conditions"])
    @pytest.mark.parametrize("case", sorted(_INVALID))
    def test_invalid_config_exit_2(self, tmp_path, capsys, command, case):
        base, path, value = _INVALID[case]
        doc = _mutated(_bundled_doc(base) if isinstance(base, str) else base, path, value)
        assert _run_cli(tmp_path, command, doc) == 2
        assert "error: invalid config" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "conditions", "sample"])
    @pytest.mark.parametrize("name, value", [("trend", -1e-3), ("ft", -1)])
    def test_negative_tolerance_exit_2(self, tmp_path, capsys, command, name, value):
        doc = _mutated(_bundled_doc("torus_clt"), ("tolerances",), {name: value})
        assert _run_cli(tmp_path, command, doc) == 2
        assert f"tolerances.{name} must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [None, 5, {"a": 1}, ""])
    def test_invalid_out_creates_nothing(self, tmp_path, monkeypatch, capsys, out):
        # without --out the config's `out` names the report directory
        monkeypatch.chdir(tmp_path)
        doc = _mutated(_bundled_doc("torus_clt"), ("out",), out)
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert cli.main(["conditions", "--config", "cfg.json"]) == 2
        assert "out must be a non-empty string" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_large_default_character_set_exit_2(self, tmp_path, capsys):
        group = {"kind": "padic", "p": 23, "depth": 4}
        doc = _mutated(_bundled_doc("padic_poisson"), ("group",), group)
        del doc["characters"]
        t0 = time.perf_counter()
        assert _run_cli(tmp_path, "verify", doc) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "list `characters` explicitly" in capsys.readouterr().err

    def test_deep_solenoid_exit_2(self, tmp_path, capsys):
        group = {"kind": "solenoid", "p": 101, "depth": 8}
        doc = _mutated(_bundled_doc("solenoid_clt"), ("group",), group)
        assert _run_cli(tmp_path, "verify", doc) == 2
        assert "group: solenoid p^depth exceeds 2^40" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "conditions", "sample"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, command):
        argv = [command, "--config", "torus_clt", "--out", str(tmp_path / "o"), "--seed", "-1"]
        assert cli.main(argv) == 2
        assert "--seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "conditions", "sample"])
    def test_non_utf8_config_exit_2(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert cli.main([command, "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "error: invalid config: config is not valid UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["verify", "conditions", "sample"])
    def test_deeply_nested_config_exit_2(self, tmp_path, capsys, command):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main([command, "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "error: invalid config: config is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "conditions", "sample"])
    @pytest.mark.parametrize("n", [0, -4])
    def test_nonpositive_mc_n_exit_2(self, tmp_path, capsys, command, n):
        doc = _mutated(_bundled_doc("torus_clt"), ("mc", "n"), [1000, n])
        assert _run_cli(tmp_path, command, doc) == 2
        err = capsys.readouterr().err
        assert "error: invalid config: mc.n entries must be positive integers" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["verify", "conditions", "sample"])
    @pytest.mark.parametrize("base", ["torus_clt", "padic_poisson"])
    @pytest.mark.parametrize("n", [2**63, 1e20], ids=["2to63", "1e20"])
    def test_mc_n_beyond_sampler_counts_exit_2(self, tmp_path, capsys, command, base, n):
        # numpy draws binomial and multinomial counts below 2^63 only
        doc = _mutated(_bundled_doc(base), ("mc", "n"), [n])
        assert _run_cli(tmp_path, command, doc) == 2
        err = capsys.readouterr().err
        assert f"error: invalid config: mc.n: K_n = {int(n)} at n = {int(n)}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["verify", "conditions", "sample"])
    @pytest.mark.parametrize(
        "replicates", [10**400, 1e300, 10**9 + 1], ids=["10to400", "1e300", "limit+1"]
    )
    def test_too_many_replicates_exit_2(self, tmp_path, capsys, command, replicates):
        doc = _mutated(_bundled_doc("torus_clt"), ("mc", "replicates"), replicates)
        t0 = time.perf_counter()
        assert _run_cli(tmp_path, command, doc) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "mc.replicates must be at most 1000000000" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["verify", "conditions", "sample"])
    def test_general_row_without_entries_exit_2(self, tmp_path, capsys, command):
        doc = _mutated(_FUZZ_DOCS["general_torus"], ("array", "rows", "4"), [])
        assert _run_cli(tmp_path, command, doc) == 2
        err = capsys.readouterr().err
        assert "error: invalid config: " in err
        assert "row count K_n must be a positive integer; got 0 at n=4" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["general_torus", "general_padic"])
    def test_general_fuzz_docs_run(self, tmp_path, name):
        # the general base documents are valid, so the fuzz mutates working configs
        for command in ("verify", "conditions", "sample"):
            assert _run_cli(tmp_path, command, _FUZZ_DOCS[name]) in (0, 1)

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(target=st.sampled_from(_KEY_PATHS), value=_JSON)
    def test_any_single_mutation_keeps_exit_codes(self, tmp_path_factory, target, value):
        # one key path of a base document set to an arbitrary JSON value
        name, path = target
        doc = _mutated(_FUZZ_DOCS[name], path, value)
        for command in ("verify", "conditions"):
            assert _run_cli(tmp_path_factory.mktemp("fuzz"), command, doc) in (0, 1, 2, 3)


# every subgroup kind the config grammar accepts on each group, and an atom
# of each group for the Levy measure
_LAW_H = {
    "torus_clt": [{"kind": "trivial"}, {"kind": "full"}, {"kind": "cyclic", "r": 3}],
    "padic_poisson": [{"kind": "trivial"}, {"kind": "full"}, {"kind": "lambda", "r": 2}],
    "solenoid_clt": [{"kind": "trivial"}, {"kind": "full"}],
}
_ETA_ATOM = {
    "torus_clt": {"angle": 0.9},
    "padic_poisson": {"digits": [1]},
    "solenoid_clt": {"base_angle": 0.9},
}


@pytest.mark.parametrize("rich", [False, True], ids=["bare", "b-eta-mean"])
@pytest.mark.parametrize(
    "base, H", [(base, H) for base, Hs in _LAW_H.items() for H in Hs],
    ids=lambda v: v if isinstance(v, str) else v["kind"],
)
def test_every_law_shape_samples(tmp_path, base, H, rich):
    # sample checks any law that parses, theorem or not, on every group;
    # at this seed every estimate is within its 4/sqrt(M) bound
    doc = _bundled_doc(base)
    law = {"H": H, "b": 0.0, "eta": []}
    if rich:
        law["b"] = 0.0 if base == "padic_poisson" else 0.6
        law["eta"] = [{"x": _ETA_ATOM[base], "weight": 1.3}]
        law["a"] = "mean"
    doc = dict(doc, law=law, mc={"replicates": 200, "seed": 1, "n": [100]})
    assert _run_cli(tmp_path, "sample", doc) == 0
    with open(tmp_path / "o" / "mc_table.csv", newline="") as fh:
        kinds = [row["kind"] for row in csv.DictReader(fh)]
    assert kinds == ["array"] * len(doc["characters"]) + ["law"] * len(doc["characters"])
