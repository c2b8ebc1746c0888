"""The general-row parser against per-entry parsing.

config._general_row reads a row of a general array straight into a
PackedRow.  It reads in bulk only an angle-group row whose element objects
all hold one key, the same one across the row, and whose entries are all
plain; every other row, padic rows included, goes through _row_law entry
by entry.  Its reference is the per-entry path: _row_law of every entry in
order, then pack_rows of the laws.  On valid rows the tables must agree
bit for bit; on invalid ones the ConfigError message must be the one the
per-entry path raises first.
"""

import gc
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcalim import config
from lcalim.arrays import PackedRow, pack_rows, plain_entries, row_distribution
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
    ATOM_TOL_TURNS,
    PADIC,
    TWO_PI,
    GroupId,
    block_dtype,
    padic_group,
    reduce_turns_block,
    same_block,
    solenoid_group,
    torus_group,
)
from lcalim.verify import ConfigError, default_neighborhoods

import reference as ref

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


def _plain(group, values, weights, counts):
    """plain_entries of the table whose entry k holds the next counts[k] atoms."""
    counts = np.asarray(counts, dtype=np.intp)
    return plain_entries(PackedRow(group, values, weights, np.cumsum(counts) - counts))


def test_near_bound_masses_are_plain_exactly_when_kept():
    # plain_entries tests each mass with _row_laws' own sum, so with masses
    # a few rounding errors from 1 +- 1e-12 an entry is plain exactly when
    # row_distribution keeps it as given
    rng = np.random.default_rng(13)
    counts = rng.integers(1, 40, 4000)
    weights = rng.random(counts.sum())
    entry = np.repeat(np.arange(len(counts)), counts)
    totals = np.bincount(entry, weights=weights)
    weights = weights / totals[entry]
    last = np.cumsum(counts) - 1
    off = rng.choice([-1e-12, 1e-12], len(counts))
    weights[last] += off + rng.integers(-40, 41, len(counts)) * 1e-16
    values = reduce_turns_block(np.arange(len(weights)) * 0.618)  # no two close
    g = torus_group()
    plain = _plain(g, values, weights, counts)
    bounds = np.append(np.cumsum(counts) - counts, len(weights)).tolist()
    for k, ok in enumerate(plain.tolist()):
        v, w = values[bounds[k] : bounds[k + 1]], weights[bounds[k] : bounds[k + 1]]
        try:
            law = row_distribution(g, [(ref.element(g, x), y) for x, y in zip(v, w)])
        except ValueError:
            assert not ok
        else:
            assert ok
            _assert_same_table(law, PackedRow(g, v, w, np.zeros(1, dtype=law.starts.dtype)))
    assert 0 < plain.sum() < len(counts)


def test_a_mass_inside_the_old_margin_is_plain():
    # mass - 1 is 9.9987e-13: within 1e-12, but inside the 2 * count * eps
    # margin that plain_entries once kept for other summation orders
    g, atoms = torus_group(), [(0.1, 0.5), (0.3, 0.5000000000009999)]
    row = _general_row([[{"x": {"turns": x}, "weight": w} for x, w in atoms]], g, "row")
    assert plain_entries(row).tolist() == [True]
    law = row_distribution(g, [(ref.element(g, x), w) for x, w in atoms])
    _assert_same_table(row, pack_rows(g, [law]))


def _argsort_plain_entries(group, values, weights, counts):
    """plain_entries with two stable argsorts for every table: the
    formulation that the sorts by atom count replaced, kept as their
    oracle.  It asks groups.same_block about every pair of an entry's
    atoms, not only its sorted neighbours and its first and last atoms."""
    counts = np.asarray(counts, dtype=np.intp)
    entry = np.repeat(np.arange(len(counts)), counts)
    first = np.append(np.cumsum(counts) - counts, len(weights)).tolist()
    # positive weights whose sum, added left to right from 0, is within 1e-12 of 1
    tables = [weights[a:b].tolist() for a, b in zip(first, first[1:])]
    plain = np.array(
        [all(w > 0.0 for w in t) and abs(ref._sum(t) - 1.0) <= 1e-12 for t in tables], dtype=bool
    )
    order = np.argsort(values, kind="stable")
    order = order[np.argsort(entry[order], kind="stable")]
    v, e = values[order], entry[order]
    # each entry's atoms are one run of v, so its pairs are s places apart
    for s in range(1, max(counts, default=0)):
        close = (e[s:] == e[:-s]) & same_block(group, v[s:], v[:-s])
        plain[e[s:][close]] = False
    return plain


# torus, solenoid, int64 residues and Python-int residues (101^9 > 2^31)
PLAIN_GROUPS = (torus_group(), solenoid_group(3, 6), padic_group(2, 16), padic_group(101, 8))
# solenoids whose same-element gap on the deepest coordinate is below eps
DEEP_SOLENOIDS = (solenoid_group(3, 25), solenoid_group(1021, 4))
# nudges that put an atom within, at or beyond ATOM_TOL_TURNS of another,
# in base turns: an angle group's atoms take them divided by p^depth
NUDGES = (0.0, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12, -2e-12, 2.5e-12, -2.5e-12, 1e-9, 0.5)


@st.composite
def _atom_tables(draw, groups=PLAIN_GROUPS):
    """(group, values, weights, counts): entries of equal or mixed widths,
    zero-atom entries included, with atoms that repeat or nearly repeat
    earlier ones, also across the +-1/2 wrap."""
    group = draw(st.sampled_from(groups))
    k = draw(st.integers(1, 10))
    if draw(st.booleans()):
        counts = [draw(st.integers(0, 5))] * k
    else:
        counts = draw(st.lists(st.integers(0, 5), min_size=k, max_size=k))
    raw = []
    for i in range(sum(counts)):
        if raw and draw(st.booleans()):
            j = draw(st.integers(0, len(raw) - 1))
            if group.kind == PADIC:
                raw.append(raw[j] + draw(st.sampled_from((0, 0, 1, group.modulus - 1))))
            else:
                raw.append(raw[j] + draw(st.sampled_from(NUDGES)) / group.base_scale)
        elif group.kind == PADIC:
            raw.append(draw(st.integers(0, group.modulus - 1)))
        else:
            s = group.base_scale
            edges = (-0.5, 0.5 - 1e-12 / s, 0.5 - 3e-12 / s, -0.5 + 1e-12 / s, 0.0, 0.5 - 2**-54)
            edge = st.sampled_from(edges)
            raw.append(draw(st.one_of(edge, st.floats(-0.5, 0.5, exclude_max=True))))
    if group.kind == PADIC:
        values = np.array([v % group.modulus for v in raw], dtype=block_dtype(group))
    else:
        values = reduce_turns_block(np.array(raw))
    weights = np.concatenate([np.full(m, 1.0 / max(m, 1)) for m in counts])
    return group, values, weights, np.array(counts, dtype=np.intp)


@settings(max_examples=400, deadline=None)
@given(_atom_tables())
def test_plain_entries_match_argsort_oracle(table):
    group, values, weights, counts = table
    got = _plain(group, values, weights, counts)
    want = _argsort_plain_entries(group, values, weights, counts)
    assert got.dtype == bool and got.tolist() == want.tolist()


@pytest.mark.parametrize("group", PLAIN_GROUPS, ids=["torus", "solenoid", "padic", "padic-object"])
def test_plain_entries_find_close_atoms_in_equal_widths(group):
    # the cases the oracle test must be able to tell apart, spelled out
    if group.kind == PADIC:
        rows = [[5, 7], [7, 7], [group.modulus - 1, 0], [3, 3]]
        want = [True, False, True, False]
    else:  # the same-element gap ATOM_TOL_TURNS / p^depth in deepest turns,
        # and one ulp either side; across the wrap, the 2^-54 steps below 1/2
        # closest to it on either side
        gap = ATOM_TOL_TURNS / group.base_scale
        wrap = math.floor(gap / 2**-54) * 2**-54
        rows = [[0.1, 0.2], [0.0, gap], [0.0, np.nextafter(gap, 0.0)],
                [0.0, np.nextafter(gap, 1.0)], [-0.5, 0.5 - wrap],
                [-0.5, 0.5 - wrap - 2**-54], [0.25, -0.5 + 3 * gap]]
        want = [True, False, False, True, False, True, True]
    values = np.array([v for row in rows for v in row], dtype=block_dtype(group))
    weights = np.full(len(values), 0.5)
    counts = np.full(len(rows), 2)
    assert _plain(group, values, weights, counts).tolist() == want
    assert _argsort_plain_entries(group, values, weights, counts).tolist() == want


@pytest.mark.parametrize("group", DEEP_SOLENOIDS + (solenoid_group(2, 8),), ids=GroupId.describe)
def test_far_atoms_on_deep_solenoids_are_plain(group):
    # atoms at base angles +-0.1k rad are 3.8e-14 k deepest turns apart on
    # solenoid_group(3, 25), far apart on y_0, so every entry reads in bulk
    entries = [
        [{"x": {"base_angle": sign * 0.1 * k}, "weight": 0.5} for sign in (1, -1)]
        for k in range(1, 11)
    ]
    assert plain_entries(_general_row(entries, group, "row")).tolist() == [True] * 10


@pytest.mark.parametrize("group", DEEP_SOLENOIDS, ids=GroupId.describe)
def test_atoms_across_the_wrap_stay_apart_and_plain(group):
    # -1/2 - (1/2 - 2^-54) rounds to -1, but the gap across the wrap,
    # 2^-54 * p^depth base turns, is far beyond ATOM_TOL_TURNS
    values = np.array([-0.5, 0.5 - 2**-54])
    law = row_distribution(group, [(ref.element(group, v), 0.5) for v in values])
    assert law.values.tolist() == values.tolist()
    assert _plain(group, values, np.full(2, 0.5), [2]).tolist() == [True]


@settings(max_examples=300, deadline=None)
@given(_atom_tables(PLAIN_GROUPS + DEEP_SOLENOIDS))
def test_plain_entries_are_kept_as_given(table):
    group, values, weights, counts = table
    first = np.append(np.cumsum(counts) - counts, len(values)).tolist()
    for k in np.flatnonzero(_plain(group, values, weights, counts)).tolist():
        v, w = values[first[k] : first[k + 1]], weights[first[k] : first[k + 1]]
        law = row_distribution(group, [(ref.element(group, x), y) for x, y in zip(v, w)])
        _assert_same_table(law, PackedRow(group, v, w, np.zeros(1, dtype=law.starts.dtype)))


@settings(max_examples=300, deadline=None)
@given(_atom_tables(PLAIN_GROUPS + DEEP_SOLENOIDS))
def test_an_entry_is_plain_exactly_when_kept_as_given(table):
    # the pre-filter has no margin: with valid weights, an entry is plain
    # exactly when it has atoms and no two of them are one element
    # (groups.same_block), and row_distribution then keeps them as given
    group, values, weights, counts = table
    first = np.append(np.cumsum(counts) - counts, len(values)).tolist()
    plain = _plain(group, values, weights, counts).tolist()
    for k, m in enumerate(counts.tolist()):
        v, w = values[first[k] : first[k + 1]], weights[first[k] : first[k + 1]]
        same_pair = np.triu(same_block(group, v[:, None], v[None, :]), 1).any()
        assert plain[k] == (m > 0 and not same_pair)
        if m:
            law = row_distribution(group, [(ref.element(group, x), y) for x, y in zip(v, w)])
            assert plain[k] == (len(law.values) == m)


@pytest.mark.parametrize("group", PLAIN_GROUPS, ids=["torus", "solenoid", "padic", "padic-object"])
def test_zero_atom_entries_are_not_plain(group):
    # a table of entries with no atoms is sorted as an entries x 0 array
    empty = np.empty(0, dtype=block_dtype(group))
    assert _plain(group, empty, np.empty(0), [0, 0]).tolist() == [False, False]
    with pytest.raises(ConfigError, match=r"^row\[0\]: row distribution has no atom$"):
        _general_row([[], []], group, "row")


def test_odd_turns_past_2_to_52_pack_as_the_identity():
    # read in bulk, the atom is reduced mod one turn like any other
    g = torus_group()
    row = _general_row([[{"x": {"turns": 2**52 + 1}, "weight": 1.0}]], g, "row")
    assert row.values.tolist() == [0.0]
    nbhds = default_neighborhoods(g)
    assert row.tail_masses(nbhds).tolist() == [[0.0]] * len(nbhds)


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
            assert cfg.array.row_count(n) == len(laws)
            _assert_same_table(cfg.array.packed(n), pack_rows(cfg.group, laws))
        row = cfg.array.packed(4)  # one atom per entry once merged
        assert row.starts.tolist() == [0, 1, 2, 3] and len(row.values) == 4

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
    plain = _plain(group, values, weights, counts)
    first = np.append(np.cumsum(counts) - counts, len(values))
    parts, done = [], 0
    for k in np.flatnonzero(~plain).tolist():
        law = config._row_law(entries[k], group, f"{context}[{k}]")
        parts.append((values[first[done] : first[k]], weights[first[done] : first[k]]))
        parts.append((law.values, law.weights))
        counts[k] = len(law.values)
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
        mixed = _keyed_row(g, ELEMENT_KEYS[name], rng)  # keys mixed in a row
        # every third element object also has the group's other keys and
        # one it does not read; _element_value reads the first key it knows
        extra = json.loads(json.dumps(mixed))
        for i, atom in enumerate(a for entry in extra for a in entry):
            if i % 3 == 0:
                others = {k: [1] if k == "digits" else 1 for k in ELEMENT_KEYS[name]}
                atom["x"] = dict(others, **atom["x"], note="kept")
        # the row of the first key, its last entry one atom given twice: it
        # reads in bulk on angle groups, but that entry is not plain
        key = ELEMENT_KEYS[name][0]
        twice = rows[0][:-1] + [[{"x": _keyed_element(g, key, rng), "weight": 0.5}] * 2]
        assert g.kind == PADIC or not _plain(g, *config._read_row(twice, g))[-1]
        calls = []
        monkeypatch.setattr(config, "_row_law", lambda *args: calls.append(args) or _row_law(*args))
        # in bulk only on angle groups, and when each element holds one key,
        # the same across the row
        angle = g.kind != PADIC
        cases = [(r, angle) for r in rows + [twice]] + [(mixed, False), (extra, False)]
        if angle:  # the plain entries of each row alone, last
            for r in rows:
                plain = _plain(g, *config._read_row(r, g))
                cases.append(([e for e, ok in zip(r, plain) if ok], True))
        kept = []  # whether each row is the table as read
        for entries, bulk in cases:
            read = config._read_row(entries, g)
            assert (read is not None) == bulk
            want, _ = _read(_per_atom_general_row, entries, g)
            calls.clear()
            row = _general_row(entries, g, "array.rows[5]")
            _assert_same_table(row, want)
            # the table as read when every entry is plain; otherwise every
            # entry through _row_law, in order
            as_read = bulk and _plain(g, *read).all()
            kept.append(as_read)
            contexts = [context for _, _, context in calls]
            every = [f"array.rows[5][{k}]" for k in range(len(entries))]
            assert contexts == ([] if as_read else every)
        assert kept[-len(rows) :] == [True] * len(rows) if angle else not any(kept)

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
