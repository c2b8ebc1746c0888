"""Experiment descriptions: a single JSON document naming the group, the
array, the candidate limit law, the evaluation grid and tolerances, and
the Monte Carlo block.  Everything a report contains is recomputable from
this document plus the master seed.
"""

from __future__ import annotations

import gc
import json
import sys
from dataclasses import dataclass

import numpy as np

from .arrays import (
    GeneralArray,
    PackedRow,
    Schedule,
    TriangularArraySpec,
    bernoulli_array,
    check_null_rule,
    iid_symmetric_array,
    plain_entries,
    rademacher_array,
    row_distribution,
)
from .groups import (
    PADIC,
    SOLENOID,
    TORUS,
    TWO_PI,
    Character,
    CompactSubgroup,
    GroupElement,
    GroupId,
    Neighborhood,
    block_dtype,
    character,
    cyclic_subgroup,
    element_value,
    from_turns,
    full_subgroup,
    identity,
    lambda_subgroup,
    reduce_turns_block,
    trivial_subgroup,
)
from .measures import (
    LimitLaw,
    QuadraticFormParam,
    discrete_measure,
    local_mean,
    validate_levy,
)
from .verify import ConfigError, VerifySettings


@dataclass(frozen=True)
class MonteCarloSettings:
    replicates: int = 10_000
    seed: int = 0
    n_points: tuple[int, ...] = ()
    sample_law: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    group: GroupId
    array: TriangularArraySpec
    law: LimitLaw
    settings: VerifySettings
    mc: MonteCarloSettings
    out_dir: str = "reports"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _get(doc: dict, key: str, context: str):
    if key not in doc:
        raise ConfigError(f"missing field {key!r} in {context}")
    return doc[key]


# Typed getters: each returns the value as the named field's type or
# raises ConfigError naming the field.  The bulk readers of general rows
# (_bulk_ints, _bulk_values) accept exactly the values they accept.
_FLOAT_MAX = sys.float_info.max


def _int(value, name: str) -> int:
    """A JSON integer; an integral float such as 1e6 counts as one."""
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is int:
        return value
    raise ConfigError(f"{name} must be an integer")


def _float(value, name: str) -> float:
    """A finite JSON number."""
    if type(value) in (float, int) and abs(value) <= _FLOAT_MAX:
        return float(value)
    raise ConfigError(f"{name} must be a finite number")


def _str(value, name: str) -> str:
    if isinstance(value, str) and value:
        return value
    raise ConfigError(f"{name} must be a non-empty string")


def _ints(value, name: str) -> list[int]:
    return [_int(v, f"{name}[{i}]") for i, v in enumerate(_list(value, name))]


def _int_key(key: str, name: str) -> int:
    """An object key naming a row index n."""
    _require(key.removeprefix("-").isdecimal(), f"{name}: key {key!r} is not an integer")
    return int(key)


def _dict(value, name: str) -> dict:
    if isinstance(value, dict):
        return value
    raise ConfigError(f"{name} must be an object")


def _list(value, name: str) -> list:
    if isinstance(value, list):
        return value
    raise ConfigError(f"{name} must be a list")


def parse_group(doc) -> GroupId:
    kind = _get(_dict(doc, "group"), "kind", "group")
    if kind == "torus":
        return GroupId(TORUS)
    _require(kind in (PADIC, SOLENOID), f"unknown group kind {kind!r}")
    _require("p" in doc, f"missing prime p for {kind} group")
    p = _int(doc["p"], "prime p")
    depth = _int(doc.get("depth", 16 if kind == PADIC else 8), "group.depth")
    # keeps trial-division primality and exact residue arithmetic cheap
    _require(p < 2**32 and depth <= 1024, "group: need p < 2^32 and depth <= 1024")
    try:
        group = GroupId(kind, p, depth)
    except ValueError as exc:
        raise ConfigError(f"group: {exc}") from exc
    return group


# the keys of an element object, in the order _element_value looks for them
_ELEMENT_KEYS = {
    TORUS: ("angle", "turns"),
    PADIC: ("digits", "int"),
    SOLENOID: ("base_angle", "deep_angle", "turns"),
}


def _turns(group: GroupId, key: str, value):
    """The turns that a number, or an array of numbers, under a torus or
    solenoid element key stands for."""
    if key == "turns":
        return value
    if key == "base_angle":
        # the branch-0 tower over arg y_0, as in from_base_angle
        return value / TWO_PI / group.p**group.depth
    return value / TWO_PI


def _element_value(doc, group: GroupId, context: str):
    """The block entry of the element that doc describes, before turn
    reduction: its turns on angle groups, its residue on padic groups."""
    _dict(doc, context)
    keys = _ELEMENT_KEYS[group.kind]
    key = next((k for k in keys if k in doc), None)
    if key is None:
        names = ", ".join(map(repr, keys[:-1]))
        raise ConfigError(f"{context}: {group.kind} elements need {names} or {keys[-1]!r}")
    name = f"{context}.{key}"
    if key == "digits":
        # short digit vectors are padded with zeros up to the depth
        p = group.p
        digits = _ints(doc[key], name)
        _require(
            len(digits) <= group.depth + 1,
            f"{context}: more digits than the working depth allows",
        )
        for d in digits:
            _require(0 <= d < p, f"{context}: digit {d} out of range for p={p}")
        return sum(d * p**j for j, d in enumerate(digits))
    if key == "int":
        return _int(doc[key], name) % group.modulus
    return _turns(group, key, _float(doc[key], name))


def parse_element(doc, group: GroupId, context: str = "element") -> GroupElement:
    value = _element_value(doc, group, context)
    if group.kind == PADIC:
        return GroupElement(group, residue=value)
    return from_turns(group, value)


def parse_schedule(doc, context: str) -> Schedule:
    _require(isinstance(doc, dict), f"{context} must be a schedule object")
    kind = _get(doc, "kind", context)

    def num(key: str) -> float:
        return _float(_get(doc, key, context), f"{context}.{key}")

    if kind == "constant":
        return Schedule("constant", coef=num("value"))
    if kind == "linear":
        return Schedule("linear", coef=num("coef"))
    if kind == "power":
        return Schedule("power", coef=num("coef"), exp=num("exp"))
    if kind == "table":
        name = f"{context}.values"
        values = _dict(_get(doc, "values", context), name)
        table = ((_int_key(k, name), _float(v, f"{name}[{k}]")) for k, v in values.items())
        return Schedule("table", table=tuple(sorted(table)))
    raise ConfigError(f"{context}: unknown schedule kind {kind!r}")


def _parse_atoms(doc, group: GroupId, context: str):
    _require(isinstance(doc, list), f"{context} must be a list of atoms")
    atoms = []
    for i, entry in enumerate(doc):
        name = f"{context}[{i}]"
        x = parse_element(_get(_dict(entry, name), "x", name), group, f"{name}.x")
        atoms.append((x, _float(_get(entry, "weight", name), f"{name}.weight")))
    return atoms


def _row_law(doc, group: GroupId, context: str):
    atoms = _parse_atoms(doc, group, context)
    try:
        return row_distribution(group, atoms)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _bulk_ints(values: list):
    """The values as Python ints when each is a JSON integer (see _int),
    else None."""
    types = set(map(type, values))
    if types <= {int}:
        return values
    if types <= {int, float} and all(v.is_integer() for v in values if type(v) is float):
        return [*map(int, values)]
    return None


def _bulk_values(group: GroupId, key: str, raw: list):
    """_element_value of the elements {key: raw[i]}, as one array before
    turn reduction, or None when some raw[i] is not one that
    _element_value accepts."""
    if group.kind != PADIC:
        if set(map(type, raw)) - {float, int}:
            return None
        try:
            t = np.array(raw, dtype=float)
        except OverflowError:  # an int beyond the float range
            return None
        # < rather than <=: an int may round down to the largest float
        return _turns(group, key, t) if (np.abs(t) < _FLOAT_MAX).all() else None
    if key == "int":
        ints = _bulk_ints(raw)
        return None if ints is None else np.array(ints, dtype=object) % group.modulus
    if set(map(type, raw)) - {list}:
        return None
    lengths = [*map(len, raw)]
    width = max(lengths, default=0)
    digits = _bulk_ints([d for ds in raw for d in ds])
    if digits is None or width > group.depth + 1:
        return None
    if digits and not 0 <= min(digits) <= max(digits) < group.p:
        return None
    # one row per element: its digits, then zeros up to the widest
    table = np.zeros((len(raw), width), dtype=object)
    element = np.repeat(np.arange(len(raw)), lengths)
    place = np.arange(len(digits)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    table[element, place] = np.array(digits, dtype=object)
    return table @ np.array([group.p**j for j in range(width)], dtype=object)


def _read_row(entries: list, group: GroupId):
    """The atoms of a general row read in bulk: (block values, weights,
    atom count of each entry), or None unless every entry is a list of
    {"x": element, "weight": number} objects and every element has a key
    that _element_value reads, with a value that it accepts."""
    if set(map(type, entries)) - {list}:
        return None
    atoms = [atom for entry in entries for atom in entry]
    if set(map(type, atoms)) - {dict}:
        return None
    try:
        xs = [atom["x"] for atom in atoms]
        weights = [atom["weight"] for atom in atoms]
    except KeyError:
        return None
    if set(map(type, xs)) - {dict} or set(map(type, weights)) - {float, int}:
        return None
    order = _ELEMENT_KEYS[group.kind]
    if set(map(len, xs)) == {1}:
        keys = [*map(next, map(iter, xs))]
    else:  # the key that _element_value reads, or None
        keys = [next((k for k in order if k in x), None) for x in xs]
    names = set(keys)
    if names - set(order):
        return None
    raw = [*map(dict.__getitem__, xs, keys)]
    if len(names) == 1:
        values = _bulk_values(group, keys[0], raw)
    else:  # keys mixed in the row (or no atoms): each key's values scattered
        values = np.empty(len(raw), dtype=float if group.kind != PADIC else object)
        key_of = np.array(keys)
        for key in names:
            at = np.flatnonzero(key_of == key)
            part = _bulk_values(group, key, [raw[i] for i in at.tolist()])
            if part is None:
                return None
            values[at] = part
    if values is None:
        return None
    try:
        weights = np.array(weights, dtype=float)
    except OverflowError:
        return None
    if group.kind == PADIC:
        values = values.astype(block_dtype(group))
    else:
        values = reduce_turns_block(values)
    return values, weights, np.array([*map(len, entries)], dtype=np.intp)


def _general_row(entries: list, group: GroupId, context: str) -> PackedRow:
    """One row of a general array, read from its JSON entries straight
    into a PackedRow.

    _read_row reads every atom in bulk, and numpy checks the weights and
    masses (plain_entries).  An entry that this fast path does not take as
    given (an atom to merge or drop, or a failed check) goes through
    _row_law, in entry order, so the first invalid entry raises exactly
    the error that per-entry parsing would; when the row does not read
    cleanly, every entry does."""
    read = _read_row(entries, group)
    if read is None:
        values, weights = np.empty(0, dtype=block_dtype(group)), np.empty(0)
        counts = np.zeros(len(entries), dtype=np.intp)
        plain = np.zeros(len(entries), dtype=bool)
    else:
        values, weights, counts = read
        plain = plain_entries(group, values, weights, counts)
    starts = np.cumsum(counts) - counts
    if plain.all():
        return PackedRow(group, values, weights, starts)
    first = np.append(starts, len(values))  # entry k's atoms start at first[k]
    parts, done = [], 0  # the table is rebuilt from entry done on
    for k in np.flatnonzero(~plain).tolist():
        law = _row_law(entries[k], group, f"{context}[{k}]")
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


def _row_rule(table: dict):
    """The rule n -> table[n] of array.rows."""

    def rule(n: int):
        if n not in table:
            raise ConfigError(f"array.rows has no entry for n={n}")
        return table[n]

    return rule


def parse_array(doc, group: GroupId) -> TriangularArraySpec:
    kind = _get(_dict(doc, "array"), "kind", "array")
    if kind == "rademacher":
        K = parse_schedule(_get(doc, "K", "array"), "array.K")
        if group.kind == PADIC:
            elements = _dict(_get(doc, "elements", "array (padic rademacher)"), "array.elements")
            pairs = tuple(
                sorted(
                    (_int_key(n, "array.elements"), parse_element(e, group, f"array.elements[{n}]"))
                    for n, e in elements.items()
                )
            )
            return rademacher_array(group, K, elements=pairs)
        angle = parse_schedule(_get(doc, "angle", "array"), "array.angle")
        return rademacher_array(group, K, angle=angle)
    if kind == "bernoulli":
        x = parse_element(_get(doc, "x", "array"), group, "array.x")
        p = parse_schedule(_get(doc, "p", "array"), "array.p")
        K = parse_schedule(_get(doc, "K", "array"), "array.K")
        try:
            return bernoulli_array(group, x, p, K)
        except ValueError as exc:
            raise ConfigError(f"array: {exc}") from exc
    if kind == "iid_symmetric":
        K = parse_schedule(_get(doc, "K", "array"), "array.K")
        rows = _dict(_get(doc, "rows", "array"), "array.rows")
        dists = {
            _int_key(n, "array.rows"): _row_law(atoms, group, f"array.rows[{n}]")
            for n, atoms in rows.items()
        }
        return iid_symmetric_array(group, _row_rule(dists), K)
    if kind == "general":
        rows = _dict(_get(doc, "rows", "array"), "array.rows")
        per_n = {
            _int_key(n, "array.rows"): _general_row(
                _list(row_list, f"array.rows[{n}]"), group, f"array.rows[{n}]"
            )
            for n, row_list in rows.items()
        }
        return GeneralArray(group, table_rule=_row_rule(per_n))
    raise ConfigError(f"unknown array kind {kind!r}")


def parse_subgroup(doc, group: GroupId) -> CompactSubgroup:
    if doc is None:
        return trivial_subgroup(group)
    _require(isinstance(doc, dict), "law.H must be an object")
    kind = _get(doc, "kind", "law.H")
    try:
        if kind == "trivial":
            return trivial_subgroup(group)
        if kind == "full":
            return full_subgroup(group)
        if kind == "cyclic":
            return cyclic_subgroup(group, _int(_get(doc, "r", "law.H"), "r"))
        if kind == "lambda":
            return lambda_subgroup(group, _int(_get(doc, "r", "law.H"), "r"))
    except ValueError as exc:
        raise ConfigError(f"law.H: {exc}") from exc
    raise ConfigError(f"law.H: unknown subgroup kind {kind!r}")


def parse_law(doc, group: GroupId) -> LimitLaw:
    H = parse_subgroup(_dict(doc, "law").get("H"), group)
    try:
        b = QuadraticFormParam(group, _float(doc.get("b", 0.0), "law.b"))
    except ValueError as exc:
        raise ConfigError(f"law.b: {exc}") from exc
    eta_doc = doc.get("eta", [])
    try:
        eta = validate_levy(
            discrete_measure(group, _parse_atoms(eta_doc, group, "law.eta"))
        )
    except ValueError as exc:
        raise ConfigError(f"law.eta: {exc}") from exc
    a_doc = doc.get("a")
    if a_doc is None:
        a = identity(group)
    elif a_doc == "mean":
        a = local_mean(eta.measure)
    else:
        a = parse_element(a_doc, group, "law.a")
    try:
        return LimitLaw(H, a, b, eta)
    except ValueError as exc:
        raise ConfigError(f"law: {exc}") from exc


def parse_characters(doc, group: GroupId) -> tuple[Character, ...]:
    out = []
    for i, entry in enumerate(_list(doc, "characters")):
        name = f"characters[{i}]"
        ell = _int(_get(_dict(entry, name), "l", name), f"{name}.l")
        d = _int(entry.get("d", 0), f"{name}.d")
        _require(0 <= d <= group.depth, f"{name}.d must lie in [0, {group.depth}]")
        # torus and solenoid phases ell * turns are floats
        _require(group.kind == PADIC or abs(ell) <= 2**53, f"{name}.l exceeds 2^53")
        try:
            out.append(character(group, ell, d))
        except ValueError as exc:
            raise ConfigError(f"characters[{i}]: {exc}") from exc
    return tuple(out)


def parse_neighborhoods(doc, group: GroupId) -> tuple[Neighborhood, ...]:
    out = []
    for i, entry in enumerate(_list(doc, "neighborhoods")):
        name = f"neighborhoods[{i}]"
        _dict(entry, name)
        try:  # the getters' ConfigErrors are ValueErrors and get the prefix too
            if group.kind == PADIC:
                out.append(Neighborhood(group, rank=_int(_get(entry, "rank", name), "rank")))
            else:
                eps = _float(_get(entry, "eps", name), "eps")
                d = _int(entry.get("d", 0), "d") if group.kind == SOLENOID else 0
                out.append(Neighborhood(group, eps=eps, d=d))
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    return tuple(out)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate an experiment document; raises ConfigError
    with the offending field named.

    The cyclic garbage collector is paused meanwhile, and left as the
    caller had it: the JSON document and the tables built from it hold no
    reference cycles, so its passes over their many new objects would
    free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_config(text)
    finally:
        if enabled:
            gc.enable()


def _parse_config(text: str) -> ExperimentConfig:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "config must be a JSON object")

    group = parse_group(_get(doc, "group", "config"))
    array = parse_array(_get(doc, "array", "config"), group)
    law = parse_law(_get(doc, "law", "config"), group)

    grid = tuple(_ints(doc.get("grid", []), "grid"))
    tol_doc = _dict(doc.get("tolerances", {}), "tolerances")
    default = VerifySettings()
    settings = VerifySettings(
        grid=grid or default.grid,
        characters=parse_characters(doc["characters"], group)
        if "characters" in doc
        else (),
        neighborhoods=parse_neighborhoods(doc["neighborhoods"], group)
        if "neighborhoods" in doc
        else (),
        trend_tol=_float(tol_doc.get("trend", default.trend_tol), "tolerances.trend"),
        window=_int(tol_doc.get("window", default.window), "tolerances.window"),
        divergence_threshold=_float(
            tol_doc.get("divergence", default.divergence_threshold), "tolerances.divergence"
        ),
        ft_tol=_float(tol_doc.get("ft", default.ft_tol), "tolerances.ft"),
    )
    settings = settings.resolved(group)

    mc_doc = _dict(doc.get("mc", {}), "mc")
    sample_law = mc_doc.get("sample_law", group.kind != SOLENOID)
    _require(isinstance(sample_law, bool), "mc.sample_law must be true or false")
    mc = MonteCarloSettings(
        replicates=_int(mc_doc.get("replicates", 10_000), "mc.replicates"),
        seed=_int(mc_doc.get("seed", 0), "mc.seed"),
        n_points=tuple(_ints(mc_doc.get("n", []), "mc.n")) or (settings.grid[0],),
        sample_law=sample_law,
    )
    _require(mc.replicates >= 1, "mc.replicates must be at least 1")
    _require(mc.seed >= 0, "mc.seed must be non-negative")

    # fail early on table schedules that do not cover the grid
    _probe_array(array, settings.grid, mc.n_points)

    return ExperimentConfig(
        group=group,
        array=array,
        law=law,
        settings=settings,
        mc=mc,
        out_dir=_str(doc.get("out", "reports"), "out"),
    )


def _probe_array(array: TriangularArraySpec, grid, n_points) -> None:
    try:
        for n in tuple(grid) + tuple(n_points):
            array.packed(n)
    except (KeyError, ValueError, OverflowError) as exc:
        raise ConfigError(f"array rules do not cover the grid: {exc}") from exc
    try:
        check_null_rule(array, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

