"""JSON cover-specification files and the bundled worked examples.

A spec file holds an odd prime, labeled vertices, and one record per
undirected edge carrying the voltage in the from->to direction.  Files
round-trip losslessly through ``load``/``dump``.
"""

from __future__ import annotations

import json
from importlib import resources

from .serre import SerreGraph
from .voltage import VoltageSpec

BUNDLED = ("example1", "example2", "example3", "example4")


class SpecFileError(ValueError):
    """Malformed or inconsistent cover-specification input."""


def _integer(value) -> int:
    """A JSON integer as is; ``int()`` would truncate 2.5 and parse "2"."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _prime(doc: dict) -> int:
    try:
        return _integer(doc["p"])
    except (KeyError, TypeError) as exc:
        raise SpecFileError(f"missing or malformed field 'p': {exc}") from exc


def _graph(doc: dict) -> tuple[SerreGraph, list]:
    """The labeled graph of a spec or base document, and its edge records.

    Both fields are JSON arrays.  Labels are strings or integers, and an edge
    names its ends by label and type (true and 1.0 do not name vertex 1).
    Labels are compared as the strings the graph stores, so 1 and "1" clash.
    """
    try:
        vertices, edges = doc["vertices"], doc["edges"]
    except (KeyError, TypeError) as exc:
        raise SpecFileError(f"missing or malformed field: {exc}") from exc
    if type(vertices) is not list or type(edges) is not list:
        raise SpecFileError("fields 'vertices' and 'edges' must be JSON arrays")
    if any(type(label) not in (str, int) for label in vertices):
        raise SpecFileError("vertex labels must be strings or integers")
    index = {(type(label), label): i for i, label in enumerate(vertices)}
    if len({str(label) for label in vertices}) != len(vertices):
        raise SpecFileError("vertex labels must be unique")
    pairs = []
    for rec in edges:
        try:
            pairs.append(tuple(index[type(end), end] for end in (rec["from"], rec["to"])))
        except (KeyError, TypeError) as exc:
            raise SpecFileError(
                f"bad edge record {rec!r}: missing field or unknown vertex {exc}"
            ) from exc
    return SerreGraph(len(vertices), pairs, labels=vertices), edges


def spec_from_dict(doc: dict) -> VoltageSpec:
    p = _prime(doc)
    base, edges = _graph(doc)
    voltages = []
    for rec in edges:
        try:
            voltages.append(_integer(rec["voltage"]))
        except (KeyError, TypeError) as exc:
            raise SpecFileError(f"bad edge record {rec!r}") from exc
    try:
        return VoltageSpec(base, p, tuple(voltages))
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc


def spec_to_dict(spec: VoltageSpec) -> dict:
    base = spec.base
    return {
        "p": spec.p,
        "vertices": [base.label_of(v) for v in base.vertices],
        "edges": [
            {
                "from": base.label_of(u),
                "to": base.label_of(v),
                "voltage": spec.voltages[k],
            }
            for k, (u, v) in enumerate(base.edge_pairs)
        ],
    }


def _parse(text: bytes, path: str):
    """The JSON document a file holds, or SpecFileError."""
    try:
        return json.loads(text.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise SpecFileError(f"invalid JSON in {path}: {exc}") from exc


def load_spec(path_or_name: str) -> VoltageSpec:
    """Load a spec from a filesystem path, or by bundled example name."""
    text = None
    try:
        with open(path_or_name, "rb") as fh:
            text = fh.read()
    except OSError:
        name = path_or_name.removesuffix(".json")
        if name in BUNDLED:
            text = resources.files("coverzeta").joinpath(f"data/{name}.json").read_bytes()
    if text is None:
        raise SpecFileError(f"cannot read {path_or_name}: no such file or bundled example")
    return spec_from_dict(_parse(text, path_or_name))


def dump_spec(spec: VoltageSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")


def bundled_spec(name: str) -> VoltageSpec:
    if name not in BUNDLED:
        raise SpecFileError(f"unknown bundled example {name!r}")
    return load_spec(name)


def base_from_dict(doc: dict) -> tuple[SerreGraph, int | None]:
    """Parse a voltage-free base description (for census runs)."""
    base, _ = _graph(doc)
    return base, _prime(doc) if "p" in doc else None


def load_base(path: str) -> tuple[SerreGraph, int | None]:
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    return base_from_dict(_parse(text, path))
