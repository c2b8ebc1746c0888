"""Experiment descriptions: a single JSON document naming the group, the
array, the candidate limit law, the evaluation grid and tolerances, and
the Monte Carlo block.  Everything a report contains is recomputable from
this document plus the master seed.
"""

from __future__ import annotations

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
# raises ConfigError naming the field.  They run once per atom of large
# general arrays, so they check inline instead of through _require.
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


def _element_value(doc, group: GroupId, context: str):
    """The block entry of the element that doc describes, before turn
    reduction: its turns on angle groups, its residue on padic groups."""
    _dict(doc, context)
    if group.kind == TORUS:
        if "angle" in doc:
            return _float(doc["angle"], f"{context}.angle") / TWO_PI
        if "turns" in doc:
            return _float(doc["turns"], f"{context}.turns")
        raise ConfigError(f"{context}: torus elements need 'angle' or 'turns'")
    if group.kind == PADIC:
        p = group.p
        if "digits" in doc:
            # short digit vectors are padded with zeros up to the depth
            digits = _ints(doc["digits"], f"{context}.digits")
            _require(
                len(digits) <= group.depth + 1,
                f"{context}: more digits than the working depth allows",
            )
            for d in digits:
                _require(0 <= d < p, f"{context}: digit {d} out of range for p={p}")
            return sum(d * p**j for j, d in enumerate(digits))
        if "int" in doc:
            return _int(doc["int"], f"{context}.int") % group.modulus
        raise ConfigError(f"{context}: padic elements need 'digits' or 'int'")
    if "base_angle" in doc:
        # the branch-0 tower over arg y_0, as in from_base_angle
        return _float(doc["base_angle"], f"{context}.base_angle") / TWO_PI / group.p**group.depth
    if "deep_angle" in doc:
        return _float(doc["deep_angle"], f"{context}.deep_angle") / TWO_PI
    if "turns" in doc:
        return _float(doc["turns"], f"{context}.turns")
    raise ConfigError(f"{context}: solenoid elements need 'base_angle', 'deep_angle' or 'turns'")


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


def _general_row(entries: list, group: GroupId, context: str) -> PackedRow:
    """One row of a general array, read from its JSON entries straight
    into a PackedRow.

    One Python pass collects every atom's block value and weight; numpy
    reduces the turns and checks the weights and masses (plain_entries).
    An entry that this fast path does not take as given (a malformed
    atom, an atom to merge or drop, or a failed check) goes through
    _row_law, in entry order, so the first invalid entry raises exactly
    the error that per-entry parsing would."""
    raw, weights, counts = [], [], []
    for atoms in entries:
        start = len(raw)
        try:
            if type(atoms) is not list:
                raise TypeError("not a list")
            for atom in atoms:
                # the context only names an error that _row_law raises again
                raw.append(_element_value(atom["x"], group, "x"))
                w = atom["weight"]
                weights.append(w if type(w) is float else _float(w, "weight"))
        except (KeyError, TypeError, ValueError):
            del raw[start:], weights[start:]  # an empty entry fails the mass check
        counts.append(len(raw) - start)
    if group.kind == PADIC:
        values = np.array(raw, dtype=block_dtype(group))
    else:
        values = reduce_turns_block(np.array(raw, dtype=float))
    weights = np.array(weights, dtype=float)
    counts = np.array(counts, dtype=np.intp)
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
    with the offending field named."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
        out_dir=str(doc.get("out", "reports")),
    )


def _probe_array(array: TriangularArraySpec, grid, n_points) -> None:
    try:
        for n in tuple(grid) + tuple(n_points):
            array.row_count(n)
            if array.kind != "general":  # general rows are packed on first use
                array.iid_dist(n)
    except (KeyError, ValueError, OverflowError) as exc:
        raise ConfigError(f"array rules do not cover the grid: {exc}") from exc
    try:
        check_null_rule(array, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

