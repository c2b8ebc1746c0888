"""Experiment descriptions: a single JSON document naming the group, the
array, the candidate limit law, the evaluation grid and tolerances, and
the Monte Carlo block.  Everything a report contains is recomputable from
this document plus the master seed.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .arrays import (
    PackedRow,
    Schedule,
    TriangularArray,
    bernoulli_array,
    check_null_rule,
    constant,
    iid_symmetric_array,
    linear,
    pack_rows,
    plain_entries,
    power,
    rademacher_array,
    row_distribution,
    table,
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
    base_turns,
    character,
    cyclic_subgroup,
    from_digits,
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


@dataclass(frozen=True)
class ExperimentConfig:
    group: GroupId
    array: TriangularArray
    law: LimitLaw
    settings: VerifySettings
    mc: MonteCarloSettings
    out_dir: str = "reports"


# The bundled examples and acceptance criterion 10 draw 1e5 replicates.  The
# sampler draws 1.5-2.5 million replicates a second on the bundled examples
# (2 CPUs, Python 3.11), so 10^9 already takes 7-11 minutes per mc.n point.
MAX_REPLICATES = 10**9


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _checked(context: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError raised as a ConfigError that
    names context, the field of the object it builds.  Read every field
    before the call: a getter's ConfigError is a ValueError, and its
    message already names its field."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _get(doc: dict, key: str, context: str):
    if key not in doc:
        raise ConfigError(f"missing field {key!r} in {context}")
    return doc[key]


# Typed getters: each returns the value as the named field's type or
# raises ConfigError naming the field.
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


def _path(value, name: str) -> str:
    """A non-empty string that the file system takes as a path."""
    path = _str(value, name)
    try:
        valid = b"\0" not in os.fsencode(path)
    except UnicodeEncodeError:  # a lone surrogate
        valid = False
    _require(valid, f"{name} is not a valid path")
    return path


def _ints(value, name: str) -> list[int]:
    return [_int(v, f"{name}[{i}]") for i, v in enumerate(_list(value, name))]


def _by_index(doc, name: str, read) -> dict:
    """{n: read(value, f"{name}[{key}]")} of the object doc, whose keys
    name row indices n; two keys that name one n (such as "100" and
    "0100") raise ConfigError."""
    out, keys = {}, {}
    for key, value in _dict(doc, name).items():
        _require(key.removeprefix("-").isdecimal(), f"{name}: key {key!r} is not an integer")
        try:
            n = int(key)
        except ValueError:  # past the interpreter's limit on integer digits
            raise ConfigError(f"{name}: key of {len(key)} characters is too long") from None
        if n in keys:
            raise ConfigError(f"{name}: keys {keys[n]!r} and {key!r} name the same n")
        keys[n] = key
        out[n] = read(value, f"{name}[{key}]")
    return out


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
    return _checked("group", GroupId, kind, p, depth)


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
        return base_turns(group, value)
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
        digits = _ints(doc[key], name)
        padding = group.depth + 1 - len(digits)
        _require(padding >= 0, f"{context}: more digits than the working depth allows")
        return _checked(context, from_digits, group, digits + [0] * padding).residue
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
        return constant(num("value"))
    if kind == "linear":
        return linear(num("coef"))
    if kind == "power":
        return power(num("coef"), num("exp"))
    if kind == "table":
        return table(_by_index(_get(doc, "values", context), f"{context}.values", _float))
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
    return _checked(context, row_distribution, group, _parse_atoms(doc, group, context))


def _floats(values: list):
    """The values as a float array when each is a number that _float
    accepts, else None."""
    if set(map(type, values)) - {float, int}:
        return None
    try:
        array = np.array(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    # < rather than <=: an int may round down to the largest float
    return array if (np.abs(array) < _FLOAT_MAX).all() else None


def _read_row(entries: list, group: GroupId):
    """The atoms of an angle-group general row read in bulk: (reduced
    turns, weights, atom count of each entry), or None on padic groups and
    unless every entry is a list of {"x": element, "weight": number}
    objects whose elements each hold one key, the same one across the row,
    that _element_value reads, with numbers that _float accepts."""
    if group.kind == PADIC or set(map(type, entries)) - {list}:
        return None
    atoms = [atom for entry in entries for atom in entry]
    if set(map(type, atoms)) - {dict}:
        return None
    try:
        xs = [atom["x"] for atom in atoms]
        weights = [atom["weight"] for atom in atoms]
    except KeyError:
        return None
    if set(map(type, xs)) - {dict} or set(map(len, xs)) != {1}:
        return None
    keys = set(map(next, map(iter, xs)))
    if len(keys) != 1 or not keys <= set(_ELEMENT_KEYS[group.kind]):
        return None
    (key,) = keys
    turns, weights = _floats([x[key] for x in xs]), _floats(weights)
    if turns is None or weights is None:
        return None
    turns = reduce_turns_block(_turns(group, key, turns))
    return turns, weights, np.array([*map(len, entries)], dtype=np.intp)


def _general_row(entries: list, group: GroupId, context: str) -> PackedRow:
    """One row of a general array, read from its JSON entries straight
    into a PackedRow.

    A row that _read_row reads in bulk, and whose entries plain_entries
    all finds plain, is the table as read.  Every other row (a padic one,
    one that does not read in bulk, or one with an atom to merge or drop
    or a failed check) is pack_rows of the _row_law tables of all its
    entries, in entry order, so the first invalid entry raises exactly the
    error that per-entry parsing would."""
    read = _read_row(entries, group)
    if read is not None:
        values, weights, counts = read
        row = PackedRow(group, values, weights, np.cumsum(counts) - counts)
        if plain_entries(row).all():
            return row
    laws = [_row_law(entry, group, f"{context}[{k}]") for k, entry in enumerate(entries)]
    return pack_rows(group, laws)


def _row_rule(table: dict):
    """The rule n -> table[n] of array.rows."""

    def rule(n: int):
        if n not in table:
            raise KeyError(f"array.rows has no entry for n={n}")
        return table[n]

    return rule


def parse_array(doc, group: GroupId) -> TriangularArray:
    kind = _get(_dict(doc, "array"), "kind", "array")
    if kind == "rademacher":
        K = parse_schedule(_get(doc, "K", "array"), "array.K")
        if group.kind == PADIC:
            elements = _by_index(
                _get(doc, "elements", "array (padic rademacher)"),
                "array.elements",
                lambda e, context: parse_element(e, group, context),
            )
            return rademacher_array(group, K, elements=tuple(sorted(elements.items())))
        angle = parse_schedule(_get(doc, "angle", "array"), "array.angle")
        return rademacher_array(group, K, angle=angle)
    if kind == "bernoulli":
        x = parse_element(_get(doc, "x", "array"), group, "array.x")
        p = parse_schedule(_get(doc, "p", "array"), "array.p")
        K = parse_schedule(_get(doc, "K", "array"), "array.K")
        return _checked("array", bernoulli_array, group, x, p, K)
    if kind == "iid_symmetric":
        K = parse_schedule(_get(doc, "K", "array"), "array.K")
        dists = _by_index(
            _get(doc, "rows", "array"),
            "array.rows",
            lambda atoms, context: _row_law(atoms, group, context),
        )
        return iid_symmetric_array(group, _row_rule(dists), K)
    if kind == "general":
        per_n = _by_index(
            _get(doc, "rows", "array"),
            "array.rows",
            lambda entries, context: _general_row(_list(entries, context), group, context),
        )
        return TriangularArray(group, "general", _row_rule(per_n))
    raise ConfigError(f"unknown array kind {kind!r}")


def parse_subgroup(doc, group: GroupId) -> CompactSubgroup:
    if doc is None:
        return trivial_subgroup(group)
    _require(isinstance(doc, dict), "law.H must be an object")
    kind = _get(doc, "kind", "law.H")
    if kind in ("trivial", "full"):
        return _checked("law.H", trivial_subgroup if kind == "trivial" else full_subgroup, group)
    _require(kind in ("cyclic", "lambda"), f"law.H: unknown subgroup kind {kind!r}")
    r = _int(_get(doc, "r", "law.H"), "law.H.r")
    return _checked("law.H", cyclic_subgroup if kind == "cyclic" else lambda_subgroup, group, r)


def parse_law(doc, group: GroupId) -> LimitLaw:
    H = parse_subgroup(_dict(doc, "law").get("H"), group)
    b = _checked("law.b", QuadraticFormParam, group, _float(doc.get("b", 0.0), "law.b"))
    atoms = _parse_atoms(doc.get("eta", []), group, "law.eta")
    eta = _checked("law.eta", lambda: validate_levy(discrete_measure(group, atoms)))
    a_doc = doc.get("a")
    if a_doc is None:
        a = identity(group)
    elif a_doc == "mean":
        a = local_mean(eta)
    else:
        a = parse_element(a_doc, group, "law.a")
    return _checked("law", LimitLaw, H, a, b, eta)


def parse_characters(doc, group: GroupId) -> tuple[Character, ...]:
    out = []
    for i, entry in enumerate(_list(doc, "characters")):
        name = f"characters[{i}]"
        ell = _int(_get(_dict(entry, name), "l", name), f"{name}.l")
        d = _int(entry.get("d", 0), f"{name}.d")
        _require(0 <= d <= group.depth, f"{name}.d must lie in [0, {group.depth}]")
        # torus and solenoid phases ell * turns are floats
        _require(group.kind == PADIC or abs(ell) <= 2**53, f"{name}.l exceeds 2^53")
        out.append(_checked(name, character, group, ell, d))
    return tuple(out)


def parse_neighborhoods(doc, group: GroupId) -> tuple[Neighborhood, ...]:
    out = []
    for i, entry in enumerate(_list(doc, "neighborhoods")):
        name = f"neighborhoods[{i}]"
        _dict(entry, name)
        if group.kind == PADIC:
            rank = _int(_get(entry, "rank", name), f"{name}.rank")
            out.append(_checked(name, Neighborhood, group, rank=rank))
        else:
            eps = _float(_get(entry, "eps", name), f"{name}.eps")
            d = _int(entry.get("d", 0), f"{name}.d")
            out.append(_checked(name, Neighborhood, group, eps=eps, d=d))
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
    except ValueError as exc:  # an integer past the interpreter's limit on digits
        limit = f"an integer literal is longer than {sys.get_int_max_str_digits()} digits"
        raise ConfigError(f"config is not valid JSON: {limit}") from exc
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
    mc = MonteCarloSettings(
        replicates=_int(mc_doc.get("replicates", 10_000), "mc.replicates"),
        seed=_int(mc_doc.get("seed", 0), "mc.seed"),
        n_points=tuple(_ints(mc_doc.get("n", []), "mc.n")) or (settings.grid[0],),
    )
    _require(mc.replicates >= 1, "mc.replicates must be at least 1")
    _require(mc.replicates <= MAX_REPLICATES, f"mc.replicates must be at most {MAX_REPLICATES}")
    _require(mc.seed >= 0, "mc.seed must be non-negative")
    _require(min(mc.n_points) >= 1, "mc.n entries must be positive integers")

    # fail early on table schedules that do not cover the grid
    _probe_array(array, settings.grid, mc.n_points)
    for n in mc.n_points:  # numpy's binomial and multinomial draws take counts below 2^63
        K = array.row_count(n)
        _require(K < 2**63, f"mc.n: K_n = {K} at n = {n} is 2^63 or more")

    return ExperimentConfig(
        group=group,
        array=array,
        law=law,
        settings=settings,
        mc=mc,
        out_dir=_path(doc.get("out", "reports"), "out"),
    )


def _probe_array(array: TriangularArray, grid, n_points) -> None:
    # a rule without row n (a KeyError) does not cover the grid
    for n in tuple(grid) + tuple(n_points):
        try:
            array.packed(n)
        except KeyError as exc:
            raise ConfigError(f"array rules do not cover the grid: {exc.args[0]}") from exc
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{array.kind} array at n={n}: {exc}") from exc
    try:
        check_null_rule(array, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

