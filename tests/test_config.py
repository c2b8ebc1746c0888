"""The general-row parser against per-entry parsing.

config._general_row reads a row of a general array straight into a
PackedRow.  Its reference is the per-entry path it replaced: _row_law of
every entry in order, then pack_rows of the laws.  On valid rows the
tables must agree bit for bit; on invalid ones the ConfigError message
must be the one the per-entry path raises first.
"""

import gc
import json
import math
import re

import numpy as np
import pytest

from lcalim import config
from lcalim.arrays import PackedRow, pack_rows, plain_entries
from lcalim.config import (
    _FLOAT_MAX,
    _dict,
    _float,
    _general_row,
    _int,
    _ints,
    _row_law,
    parse_config,
    parse_element,
)
from lcalim.groups import (
    TWO_PI,
    block_dtype,
    element_value,
    padic_group,
    reduce_turns_block,
    solenoid_group,
    torus_group,
)
from lcalim.verify import ConfigError

GROUPS = {
    "torus": torus_group(),
    "padic": padic_group(2, 16),
    "padic-large": padic_group(101, 8),
    "solenoid": solenoid_group(3, 6),
}


def _reference(entries, group, context):
    """(row laws, None) of per-entry parsing, or (None, its first error)."""
    try:
        laws = tuple(_row_law(a, group, f"{context}[{k}]") for k, a in enumerate(entries))
    except ConfigError as exc:
        return None, str(exc)
    return laws, None


def _element(g, rng):
    """The JSON of a random element, in each form the group's parser takes."""
    form = int(rng.integers(0, 3))
    a, t = float(rng.uniform(-4, 4)), float(rng.uniform(-0.5, 0.5))
    if g.kind == "torus":
        return [{"angle": a}, {"turns": 2 * t}, {"turns": int(rng.integers(-2, 3))}][form]
    if g.kind == "solenoid":
        return [{"base_angle": a}, {"deep_angle": a}, {"turns": t}][form]
    if form == 0:
        return {"int": int(rng.integers(-g.p**3, g.p**3))}
    return {"digits": [int(d) for d in rng.integers(0, g.p, int(rng.integers(1, 5)))]}


def _shifted(g, x, delta):
    """Another JSON form of x, delta turns away (an equal residue on padic
    groups, where delta is ignored)."""
    y = parse_element(x, g)
    if g.kind == "padic":
        return {"int": y.residue + g.modulus}
    return {"turns": y.turns + delta}


# mutations of a valid entry: each maps (group, atoms, rng) to new atoms
def _zero(g, atoms, rng):
    return atoms + [{"x": _element(g, rng), "weight": [0.0, -0.0, 0][int(rng.integers(0, 3))]}]


def _split(delta):
    def mutate(g, atoms, rng):
        a = atoms[0]
        half = {"x": _shifted(g, a["x"], delta) if delta is not None else dict(a["x"])}
        half["weight"] = a["weight"] / 2
        return [dict(a, weight=a["weight"] / 2)] + atoms[1:] + [half]

    return mutate


def _weight(value):
    def mutate(g, atoms, rng):
        return [dict(atoms[0], weight=value)] + atoms[1:]

    return mutate


def _mass_off(delta):
    def mutate(g, atoms, rng):
        return [dict(atoms[0], weight=atoms[0]["weight"] + delta)] + atoms[1:]

    return mutate


def _replace_x(value):
    def mutate(g, atoms, rng):
        return [dict(atoms[0], x=value)] + atoms[1:]

    return mutate


def _integral_floats(g, atoms, rng):
    # parse_element takes an integral float as an integer
    x = atoms[0]["x"]
    if "int" in x:
        x = {"int": float(x["int"])}
    elif "digits" in x:
        x = {"digits": [float(d) for d in x["digits"]]}
    return [dict(atoms[0], x=x)] + atoms[1:]


def _around_half(delta):
    # two atoms delta turns apart across the point -1/2 = 1/2 of the circle
    def mutate(g, atoms, rng):
        if g.kind == "padic":
            xs = [{"int": 0}, {"int": g.modulus}]
        else:
            xs = [{"turns": -0.5 + delta / 2}, {"turns": 0.5 - delta / 2}]
        return [{"x": x, "weight": 0.5} for x in xs]

    return mutate


def _boundary_mass(weights):
    # masses within rounding of 1 +- 1e-12, where the order of the sum
    # decides: these sum in atom order to within the tolerance or not
    # (the flag), and the other way when summed from the last atom; the
    # parser must leave them to the per-entry path
    def mutate(g, atoms, rng):
        return [{"x": _element(g, rng), "weight": w} for w in weights]

    return mutate


MUTATIONS = [
    _around_half(0.5e-12),
    _around_half(3e-12),
    _boundary_mass((0.3885937630333074, 0.3133575309085839, 0.29804870605910866)),  # valid
    _boundary_mass((0.13754383470969397, 0.1085042429566019, 0.7539519223347041)),
    _boundary_mass((0.11017834439738433, 0.262423741838049, 0.6273979137655666)),
    _zero,
    _split(None),  # the same atom twice
    _split(0.5e-12),  # merged
    _split(1.5e-12),  # kept apart, though within twice the tolerance
    _split(3e-12),
    _split(-0.9e-12),
    _weight(-0.25),
    _weight(float("nan")),
    _weight(float("inf")),
    _weight("0.5"),
    _weight(True),
    _weight(None),
    _mass_off(2e-12),
    _mass_off(-2e-12),
    _mass_off(0.5e-12),
    _integral_floats,
    _replace_x([0.1]),
    _replace_x("x"),
    _replace_x({"angle": "0.1"}),
    _replace_x({"angle": float("inf")}),
    _replace_x({"turns": float("nan")}),
    _replace_x({"base_angle": 1e308}),
    _replace_x({"digits": [2**40]}),
    _replace_x({"digits": [1] * 18}),
    _replace_x({"digits": 5}),
    _replace_x({"int": True}),
    _replace_x({"int": 2.5}),
    _replace_x({}),
    lambda g, atoms, rng: [[a] for a in atoms],  # atoms that are lists
    lambda g, atoms, rng: [{"weight": a["weight"]} for a in atoms],  # no x
    lambda g, atoms, rng: [{"x": a["x"]} for a in atoms],  # no weight
    lambda g, atoms, rng: {"0": atoms},  # an entry that is no list
    lambda g, atoms, rng: [],
]


def _entries(g, rng, count=240):
    """Random entries of 1 to 4 atoms; about half are mutated."""
    out = []
    for _ in range(count):
        w = rng.random(int(rng.integers(1, 5)))
        atoms = [{"x": _element(g, rng), "weight": float(v)} for v in w / w.sum()]
        if rng.random() < 0.5:
            atoms = MUTATIONS[int(rng.integers(0, len(MUTATIONS)))](g, atoms, rng)
        out.append(json.loads(json.dumps(atoms)))  # as a config file carries it
    return out


def _assert_same_table(row, want):
    assert row.values.dtype == want.values.dtype
    if want.values.dtype == object:
        assert row.values.tolist() == want.values.tolist()
        assert all(type(v) is int for v in row.values.tolist())
    else:
        assert row.values.tobytes() == want.values.tobytes()
    assert row.weights.dtype == want.weights.dtype
    assert row.weights.tobytes() == want.weights.tobytes()
    assert row.starts.dtype == want.starts.dtype
    assert np.array_equal(row.starts, want.starts)


@pytest.mark.filterwarnings("error")  # a NaN or infinity must not warn
@pytest.mark.parametrize("name", sorted(GROUPS))
class TestGeneralRow:
    def test_valid_entries_pack_like_the_row_laws(self, name):
        g = GROUPS[name]
        entries = _entries(g, np.random.default_rng(11))
        valid = [a for a in entries if _reference([a], g, "row")[0] is not None]
        assert 0 < len(valid) < len(entries)
        laws, _ = _reference(valid, g, "row")
        row = _general_row(valid, g, "row")
        _assert_same_table(row, pack_rows(g, laws))
        assert row.laws == laws

    def test_invalid_entries_raise_the_first_error(self, name):
        g = GROUPS[name]
        entries = _entries(g, np.random.default_rng(12))
        errors = 0
        while True:
            laws, message = _reference(entries, g, "array.rows[7]")
            if message is None:
                break
            with pytest.raises(ConfigError) as info:
                _general_row(entries, g, "array.rows[7]")
            assert str(info.value) == message
            errors += 1
            # drop the entry that raised and look for the next error
            k = int(re.search(r"array\.rows\[7\]\[(\d+)\]", message).group(1))
            entries = entries[:k] + entries[k + 1 :]
        assert errors > 20
        _assert_same_table(_general_row(entries, g, "row"), pack_rows(g, laws))


def test_plain_masses_hold_in_any_summation_order():
    # total_mass is sum(), which adds in atom order up to Python 3.11 and
    # compensates from 3.12 on: an entry taken as given must have its mass
    # within 1e-12 of 1 either way
    rng = np.random.default_rng(13)
    counts = rng.integers(1, 40, 4000)
    weights = rng.random(counts.sum())
    entry = np.repeat(np.arange(len(counts)), counts)
    totals = np.bincount(entry, weights=weights)
    weights = weights / totals[entry]
    # masses a few rounding errors from 1 +- 1e-12
    last = np.cumsum(counts) - 1
    off = rng.choice([-1e-12, 1e-12], len(counts))
    weights[last] += off + rng.integers(-40, 41, len(counts)) * 1e-16
    values = reduce_turns_block(np.arange(len(weights)) * 0.618)  # no two close
    plain = plain_entries(torus_group(), values, weights, counts)
    bounds = np.append(np.cumsum(counts) - counts, len(weights)).tolist()
    sums = 0
    for k, ok in enumerate(plain.tolist()):
        w = weights[bounds[k] : bounds[k + 1]].tolist()
        if ok:
            for mass in (sum(w), sum(reversed(w)), math.fsum(w)):
                assert abs(mass - 1.0) <= 1e-12
            sums += 1
    assert 0 < sums < len(counts)


GENERAL_DOC = {
    "group": {"kind": "padic", "p": 3, "depth": 6},
    "law": {"H": {"kind": "trivial"}, "b": 0.0, "eta": []},
    "grid": [2, 3, 4],
    "characters": [{"d": 0, "l": 1}],
}


def _general_doc(rows):
    return json.dumps(dict(GENERAL_DOC, array={"kind": "general", "rows": rows}))


class TestParseGeneral:
    ROWS = {
        "2": [
            [{"x": {"int": 1}, "weight": 1}],
            [{"x": {"digits": [0, 2]}, "weight": 0.25}, {"x": {"int": -1}, "weight": 0.75}],
        ],
        "3": [[{"x": {"int": 2}, "weight": 1.0}]] * 3,
        # one atom twice: merged
        "4": [[{"x": {"digits": [1]}, "weight": 0.5}, {"x": {"int": 1}, "weight": 0.5}]] * 4,
    }

    def test_rows_equal_the_per_entry_laws(self):
        cfg = parse_config(_general_doc(self.ROWS))
        for key, entries in self.ROWS.items():
            n = int(key)
            laws, _ = _reference(entries, cfg.group, f"array.rows[{n}]")
            assert cfg.array.rows(n) == laws
            assert cfg.array.row_count(n) == len(laws)
            _assert_same_table(cfg.array.packed(n), pack_rows(cfg.group, laws))
        assert [len(law.atoms) for law in cfg.array.rows(4)] == [1] * 4

    def test_first_invalid_row_raises(self):
        rows = dict(self.ROWS, **{"3": [[{"x": {"int": 2}, "weight": 0.9}]], "4": [[]]})
        with pytest.raises(ConfigError, match=r"^array.rows\[3\]\[0\]: row distribution has"):
            parse_config(_general_doc(rows))

    def test_missing_row_names_n(self):
        rows = {"2": self.ROWS["2"], "3": self.ROWS["3"]}
        message = "^array rules do not cover the grid: array.rows has no entry for n=4$"
        with pytest.raises(ConfigError, match=message):
            parse_config(_general_doc(rows))


# The per-atom reader that the bulk _read_row replaced, kept as its
# reference: one _element_value call per atom, then the same table
# assembly as _general_row.
def _per_atom_element_value(doc, group, context):
    _dict(doc, context)
    if group.kind == "torus":
        if "angle" in doc:
            return _float(doc["angle"], f"{context}.angle") / TWO_PI
        if "turns" in doc:
            return _float(doc["turns"], f"{context}.turns")
        raise ConfigError(f"{context}: torus elements need 'angle' or 'turns'")
    if group.kind == "padic":
        p = group.p
        if "digits" in doc:
            digits = _ints(doc["digits"], f"{context}.digits")
            if len(digits) > group.depth + 1:
                raise ConfigError(f"{context}: more digits than the working depth allows")
            for d in digits:
                if not 0 <= d < p:
                    raise ConfigError(f"{context}: digit {d} out of range for p={p}")
            return sum(d * p**j for j, d in enumerate(digits))
        if "int" in doc:
            return _int(doc["int"], f"{context}.int") % group.modulus
        raise ConfigError(f"{context}: padic elements need 'digits' or 'int'")
    if "base_angle" in doc:
        return _float(doc["base_angle"], f"{context}.base_angle") / TWO_PI / group.p**group.depth
    if "deep_angle" in doc:
        return _float(doc["deep_angle"], f"{context}.deep_angle") / TWO_PI
    if "turns" in doc:
        return _float(doc["turns"], f"{context}.turns")
    raise ConfigError(f"{context}: solenoid elements need 'base_angle', 'deep_angle' or 'turns'")


def _per_atom_general_row(entries, group, context):
    raw, weights, counts = [], [], []
    for atoms in entries:
        start = len(raw)
        try:
            if type(atoms) is not list:
                raise TypeError("not a list")
            for atom in atoms:
                raw.append(_per_atom_element_value(atom["x"], group, "x"))
                w = atom["weight"]
                weights.append(w if type(w) is float else _float(w, "weight"))
        except (KeyError, TypeError, ValueError):
            del raw[start:], weights[start:]
        counts.append(len(raw) - start)
    if group.kind == "padic":
        values = np.array(raw, dtype=block_dtype(group))
    else:
        values = reduce_turns_block(np.array(raw, dtype=float))
    weights = np.array(weights, dtype=float)
    counts = np.array(counts, dtype=np.intp)
    plain = plain_entries(group, values, weights, counts)
    first = np.append(np.cumsum(counts) - counts, len(values))
    parts, done = [], 0
    for k in np.flatnonzero(~plain).tolist():
        law = config._row_law(entries[k], group, f"{context}[{k}]")
        parts.append((values[first[done] : first[k]], weights[first[done] : first[k]]))
        parts.append(
            (
                np.array([element_value(x) for x, _ in law.atoms], dtype=values.dtype),
                np.array([w for _, w in law.atoms], dtype=float),
            )
        )
        counts[k] = len(law.atoms)
        done = k + 1
    parts.append((values[first[done] :], weights[first[done] :]))
    return PackedRow(
        group,
        np.concatenate([v for v, _ in parts]),
        np.concatenate([w for _, w in parts]),
        np.cumsum(counts) - counts,
    )


def _read(reader, entries, group):
    """The table that reader makes of the row, or its ConfigError text."""
    try:
        return reader(entries, group, "array.rows[5]"), None
    except ConfigError as exc:
        return None, str(exc)


ELEMENT_KEYS = {
    "torus": ("angle", "turns"),
    "padic": ("int", "digits"),
    "padic-large": ("int", "digits"),
    "solenoid": ("base_angle", "deep_angle", "turns"),
}


def _keyed_element(g, key, rng):
    """A random element under the given key, its numbers of every JSON type
    the key takes: floats and ints, integral floats for padic integers."""
    if key == "digits":
        digits = [int(d) for d in rng.integers(0, g.p, int(rng.integers(0, g.depth + 2)))]
        return {key: [float(d) if rng.random() < 0.1 else d for d in digits]}
    if key == "int":
        value = int(rng.integers(-(2**62), 2**62)) * [1, g.modulus**3][int(rng.integers(0, 2))]
        return {key: float(value % 4096) if rng.random() < 0.1 else value}
    if rng.random() < 0.2:
        return {key: int(rng.integers(-5, 6))}
    return {key: float(rng.uniform(-1e3, 1e3)) * [1.0, 1e-9, 1e9][int(rng.integers(0, 3))]}


def _keyed_row(g, keys, rng, count=300):
    """Valid entries of two to four distinct atoms, their elements given
    under the keys in turn; the weights add to 1 (integral ones included)."""
    entries = []
    for k in range(count):
        width = int(rng.integers(1, 5))
        if width == 1:
            atoms = [{"x": _keyed_element(g, keys[k % len(keys)], rng), "weight": 1}]
        else:
            w = rng.random(width)
            atoms = [
                {"x": _keyed_element(g, keys[(k + i) % len(keys)], rng), "weight": float(v)}
                for i, v in enumerate(w / w.sum())
            ]
        entries.append(json.loads(json.dumps(atoms)))
    return entries


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(GROUPS))
class TestBulkRead:
    def test_every_key_reads_in_bulk_like_the_per_atom_reader(self, name, monkeypatch):
        g = GROUPS[name]
        rng = np.random.default_rng(21)
        rows = [_keyed_row(g, (key,), rng) for key in ELEMENT_KEYS[name]]
        rows.append(_keyed_row(g, ELEMENT_KEYS[name], rng))  # keys mixed in a row
        # every third element object also has the group's other keys and
        # one it does not read; _element_value reads the first key it knows
        extra = json.loads(json.dumps(rows[-1]))
        for i, atom in enumerate(a for entry in extra for a in entry):
            if i % 3 == 0:
                others = {k: [1] if k == "digits" else 1 for k in ELEMENT_KEYS[name]}
                atom["x"] = dict(others, **atom["x"], note="kept")
        rows.append(extra)
        calls = []
        monkeypatch.setattr(config, "_row_law", lambda *args: calls.append(args) or _row_law(*args))
        for entries in rows:
            assert config._read_row(entries, g) is not None
            calls.clear()
            want, _ = _read(_per_atom_general_row, entries, g)
            fallback = len(calls)
            calls.clear()
            row = _general_row(entries, g, "array.rows[5]")
            _assert_same_table(row, want)
            # only entries the per-atom reader could not take as given
            assert len(calls) == fallback

    @pytest.mark.parametrize(
        "atom",
        [
            {"x": {"N": True}, "weight": 0.5},
            {"x": {"N": 0}, "weight": True},
            {"x": {"N": "0.1"}, "weight": 0.5},
            {"x": {"N": 0}, "weight": "0.5"},
            {"x": {"N": float("nan")}, "weight": 0.5},
            {"x": {"N": 0}, "weight": float("nan")},
            {"x": {"N": 1e400}, "weight": 0.5},
            {"x": {"N": 0}, "weight": 1e400},
            {"x": {"N": 10**400}, "weight": 0.5},
            {"x": {"N": 0}, "weight": 10**400},
            {"x": {"N": int(_FLOAT_MAX) + 2**969}, "weight": 0.5},  # rounds to _FLOAT_MAX
            {"x": {"N": _FLOAT_MAX}, "weight": 0.5},
            {"x": {"N": 2.5}, "weight": 0.5},
            {"x": {"N": 7.0}, "weight": 0.5},
            {"weight": 0.5},
            {"x": {"N": 0}},
            {"x": {}, "weight": 0.5},
            {"x": {"N": 0, "turns": 0.25}, "weight": 0.5},
            {"x": {"N": 0, "angle": 0.25}, "weight": 0.5},
            {"x": {"N": 0, "int": 3}, "weight": 0.5},
            {"x": {"digits": [1, 2], "int": 5}, "weight": 0.5},
            {"x": {"spin": 0.1}, "weight": 0.5},
            {"x": {"N": 0}, "weight": 0.5, "note": "extra"},
            {"x": [0.1], "weight": 0.5},
            {"x": {"digits": [1] * 40}, "weight": 0.5},
            {"x": {"digits": [0, -1]}, "weight": 0.5},
            {"x": {"digits": [0, 2**40]}, "weight": 0.5},
            {"x": {"digits": [0, 1.5]}, "weight": 0.5},
            {"x": {"digits": [0, True]}, "weight": 0.5},
            {"x": {"digits": 5}, "weight": 0.5},
            [{"x": {"N": 0}, "weight": 0.5}],
            "atom",
        ],
    )
    def test_malformed_atoms_raise_the_per_atom_error(self, name, atom):
        # the atom sits in entry 3 of a clean row; "N" stands for the key
        # of the group's plain number form
        g = GROUPS[name]
        number = "int" if g.kind == "padic" else "turns"
        atom = json.loads(json.dumps(atom).replace('"N"', json.dumps(number)))
        rng = np.random.default_rng(22)
        entries = _keyed_row(g, ELEMENT_KEYS[name], rng, count=6)
        entries[3] = [atom, {"x": _keyed_element(g, ELEMENT_KEYS[name][0], rng), "weight": 0.5}]
        want, message = _read(_per_atom_general_row, entries, g)
        got, got_message = _read(_general_row, entries, g)
        assert got_message == message
        if message is None:
            _assert_same_table(got, want)

    @pytest.mark.parametrize(
        "entry",
        [
            {"0": [{"x": {"turns": 0.1}, "weight": 1.0}]},
            "entry",
            None,
            [],
            [{"x": {"turns": 0.1}, "weight": 0.5}, {"x": {"turns": 0.1}, "weight": 0.5}],
            [{"x": {"turns": 0.1}, "weight": 0.5}, {"x": {"turns": 0.1 + 1e-13}, "weight": 0.5}],
        ],
        ids=["object", "string", "null", "empty", "same-atom", "atoms-to-merge"],
    )
    def test_malformed_entries_raise_the_per_atom_error(self, name, entry):
        g = GROUPS[name]
        keys = ELEMENT_KEYS[name]
        if isinstance(entry, list) and g.kind == "padic":  # equal residues
            entry = [{"x": {"int": 1 + i * g.modulus}, "weight": 0.5} for i in range(len(entry))]
        entries = _keyed_row(g, keys, np.random.default_rng(23), count=6)
        entries[2] = entry
        want, message = _read(_per_atom_general_row, entries, g)
        got, got_message = _read(_general_row, entries, g)
        assert got_message == message
        if message is None:
            _assert_same_table(got, want)


class TestCollector:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_paused_while_parsing_and_restored(self, monkeypatch, enabled):
        seen = []
        real = config.parse_group

        def recording(doc):
            seen.append(gc.isenabled())
            return real(doc)

        monkeypatch.setattr(config, "parse_group", recording)
        (gc.enable if enabled else gc.disable)()
        try:
            parse_config(_general_doc(TestParseGeneral.ROWS))
            assert gc.isenabled() == enabled
            with pytest.raises(ConfigError):
                parse_config(_general_doc({"2": [[{"x": {"int": 1}, "weight": 0.5}]]}))
            assert gc.isenabled() == enabled
            with pytest.raises(ConfigError):
                parse_config("{broken")
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
        assert seen == [False, False]
