"""Instance files, spec files and table imports.

An instance is one JSON document with sections ``sets``, ``supply``,
``processing``, ``arcs`` and ``policy``; a ``scenario`` section is allowed
and read by nothing.  The writer is ``dataclasses.asdict`` of the instance,
reshaped in two places only: the id sets (:data:`rlnd.domain.SETS`) sit
under ``sets``, and each tier's entries directly under ``processing``.  So
it writes every field, defaults and nulls included, and a saved instance
loads back equal.  The reader reads each record from its dataclass
(:func:`read_record`), and the per-tier parts of ``processing`` and
``arcs`` in one loop over :data:`rlnd.domain.TIERS`.  Instances and the
scenario and uncertainty spec files are all read through :class:`Node`, so
a missing key, a key that names no field or a value of the wrong type
raises one :class:`DocumentError` naming the file and the key's path, such
as ``supply.trips_per_year``.  A number must be a JSON number, not a string
such as ``"500"`` nor ``true``, and a flag such as an arc's ``forbidden``
must be ``true`` or ``false``; a null reads as an absent key.  The CSV
importer reads coordinate points, ``id, lat, lon[, population]``; a header
(the first non-blank row, when its ``lat`` cell is not numeric) is detected
and skipped, so both bare and titled exports load.  :func:`write_csv`
writes every CSV export, floats with six decimals.
"""

from __future__ import annotations

import csv
import json
from dataclasses import MISSING, asdict, fields
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, NoReturn

from .domain import (SETS, TIERS, Arc, InstanceError, NetworkInstance, PolicyData,
                     ProcessingData, ProcessingEntry, SupplyData)
from .geo import GeoPoint


# ----------------------------------------------------------------------
# JSON documents
# ----------------------------------------------------------------------

class DocumentError(InstanceError):
    """A JSON document lacks a key or holds a value of the wrong type."""


# the types json.load gives a number; bool, a subclass of int, is not one.
# The bulk readers pass a float through without this lookup, which keeps a
# load as fast as the float() it replaces.
_AS_FLOAT = {int: float, float: float}


class Node:
    """One value of a JSON document, with the file and the keys that lead
    to it, so that a missing key or a mistyped value is reported where it is."""

    __slots__ = ("value", "path", "source")

    def __init__(self, value: Any, path: tuple[str, ...] = (), source: str = ""):
        self.value, self.path, self.source = value, path, source

    def fail(self, problem: str) -> NoReturn:
        where = ".".join(self.path)
        message = f"{where}: {problem}" if where else problem
        raise DocumentError(f"{self.source}: {message}" if self.source else message)

    def table(self) -> dict[str, Any]:
        if not isinstance(self.value, dict):
            self.fail(f"expected an object, got {type(self.value).__name__}")
        return self.value

    def __getitem__(self, key: str) -> Node:
        if key not in self.table():
            Node(None, (), self.source).fail(f"missing key '{'.'.join(self.path + (key,))}'")
        return Node(self.value[key], self.path + (key,), self.source)

    def only(self, known: Collection[str]) -> Node:
        """This object, once each of its keys is one of the set ``known``."""
        if not self.table().keys() <= known:
            key = next(k for k in self.value if k not in known)
            Node(None, (), self.source).fail(f"unknown key '{'.'.join(self.path + (key,))}'")
        return self

    def get(self, key: str, convert: Callable[[Node], Any], default: Any = None) -> Any:
        """``convert`` of the value under ``key``; ``default`` when it is absent or null."""
        return default if self.table().get(key) is None else convert(self[key])

    def map(self, convert: Callable[[Node], Any]) -> dict[str, Any]:
        return {k: convert(Node(v, self.path + (k,), self.source))
                for k, v in self.table().items()}

    def number(self) -> float:
        """A JSON number as a float; not a string, nor ``true`` or ``false``."""
        try:
            return _AS_FLOAT[type(self.value)](self.value)
        except (KeyError, OverflowError):
            self.fail(f"expected a number, got {self.value!r}")

    def integer(self) -> int:
        if not self.number().is_integer():  # nor are NaN and the infinities
            self.fail(f"expected an integer, got {self.value!r}")
        return int(self.value)

    def flag(self) -> bool:
        if not isinstance(self.value, bool):
            self.fail(f"expected true or false, got {self.value!r}")
        return self.value

    def text(self) -> str:
        if not isinstance(self.value, str):
            self.fail(f"expected a string, got {self.value!r}")
        return self.value

    def texts(self) -> tuple[str, ...]:
        if not (isinstance(self.value, list) and all(isinstance(v, str) for v in self.value)):
            self.fail("expected a list of strings")
        return tuple(self.value)

    def numbers(self) -> dict[str, float]:
        try:
            return {k: v if type(v) is float else _AS_FLOAT[type(v)](v)
                    for k, v in self.table().items()}
        except (KeyError, OverflowError):
            return self.map(Node.number)  # raises, naming the value

    def fields(self, names: tuple[str, ...]) -> list[float]:
        """The numbers under ``names``, in that order."""
        table = self.table()
        try:
            return [v if type(v := table[k]) is float else _AS_FLOAT[type(v)](v)
                    for k in names]
        except (KeyError, OverflowError):
            return [self[k].number() for k in names]  # raises, naming the key


def read_document(path: str | Path) -> Node:
    """The JSON document in ``path``, as the root :class:`Node`."""
    with open(path, "r", encoding="utf-8") as f:
        return Node(json.load(f), source=str(path))


# ----------------------------------------------------------------------
# instance documents
# ----------------------------------------------------------------------

# the reader of each type a record's field may have, by its annotation's text
# (``from __future__ import annotations`` keeps it text) without ``| None``
_READERS: dict[str, Callable[[Node], Any]] = {
    "float": Node.number, "str": Node.text, "dict[str, float]": Node.numbers,
    "dict[str, int]": lambda n: n.map(Node.integer),
    "dict[str, str]": lambda n: n.map(Node.text),
    "dict[str, dict[str, float]]": lambda n: n.map(Node.numbers),
}


def read_record(cls: type, node: Node, given: dict[str, Any] | None = None,
                extra: Collection[str] = ()) -> Any:
    """The dataclass ``cls`` from the object at ``node``: each field not in
    ``given`` from the key of its name, by the reader of its type (looked up
    even when the key is absent).  A field without a default is required,
    any other may be absent or null.  A key that names no field read here
    and is not in ``extra`` raises a DocumentError naming its path, so a
    caller that reads a given field from this object's key of its name
    lists that name in ``extra``."""
    values = dict(given or {})
    record = [f for f in fields(cls) if f.name not in values]
    table = node.only({f.name for f in record}.union(extra)).value
    for f in record:
        read = _READERS[f.type.removesuffix(" | None")]
        if f.default is f.default_factory is MISSING or table.get(f.name) is not None:
            values[f.name] = read(node[f.name])
    return cls(**values)


# an entry's and an arc's keys are their fields; the required ones are those
# without a default, and an arc's `forbidden` frees the rest
_ENTRY_KEYS, _ARC_KEYS = (frozenset(f.name for f in fields(r)) for r in (ProcessingEntry, Arc))
_ENTRY_FIELDS, _ARC_FIELDS = (tuple(f.name for f in fields(record) if f.default is MISSING)
                              for record in (ProcessingEntry, Arc))
_ENTRY_DEFAULTS = {f.name: f.default for f in fields(ProcessingEntry) if f.default is not MISSING}


def _entry_from(node: Node) -> ProcessingEntry:
    return ProcessingEntry(*node.only(_ENTRY_KEYS).fields(_ENTRY_FIELDS),
                           **{k: node.get(k, Node.number, v) for k, v in _ENTRY_DEFAULTS.items()})


def _arc_from(node: Node) -> Arc:
    forbidden = node.only(_ARC_KEYS).value.get("forbidden")
    if forbidden is True:
        return Arc(*(node.get(k, Node.number, 0.0) for k in _ARC_FIELDS), forbidden=True)
    if forbidden is not None and forbidden is not False:
        node["forbidden"].flag()  # raises, naming the key
    return Arc(*node.fields(_ARC_FIELDS))


def _instance_from(doc: Node) -> NetworkInstance:
    sup, proc, tiers = doc["supply"], doc["processing"], {t.name for t in TIERS}
    resale = proc["resale"].only(tiers)
    # an empty population reads as none, as a null one does
    population = sup.get("population", Node.numbers) or None
    supply = read_record(SupplyData, sup, {"population": population}, extra=("population",))
    processing = read_record(ProcessingData, proc, {
        "entries": {t.name: proc[t.name].map(lambda row: row.map(_entry_from)) for t in TIERS},
        "resale": {t.name: resale[t.name].numbers() for t in TIERS},
    }, extra={"resale", *tiers})
    sets, arcs = doc["sets"].only(set(SETS)), doc["arcs"].only({t.lane for t in TIERS})
    return read_record(NetworkInstance, doc, {
        "name": doc.get("name", Node.text, "instance"),
        **{k: sets[k].texts() for k in SETS},
        "supply": supply, "processing": processing,
        "arcs": {t.lane: arcs[t.lane].map(lambda row: row.map(_arc_from)) for t in TIERS},
        # so does an empty policy
        "policy": doc.get("policy", lambda n: read_record(PolicyData, n) if n.table() else None),
    }, extra=("name", "supply", "processing", "arcs", "policy", "sets", "scenario"))


def instance_from_dict(data: dict[str, Any]) -> NetworkInstance:
    """The instance in a JSON document's layout; a missing or unknown key or
    a value of the wrong type raises a DocumentError that names its path."""
    return _instance_from(Node(data))


def instance_to_dict(instance: NetworkInstance) -> dict[str, Any]:
    """The instance in its JSON document's layout (see the module docstring)."""
    doc = asdict(instance)
    doc["sets"] = {k: list(doc.pop(k)) for k in SETS}
    doc["processing"].update(doc["processing"].pop("entries"))
    return doc


def load_instance(path: str | Path) -> NetworkInstance:
    """An instance file; a missing or unknown key or a value of the wrong type
    raises a DocumentError that names the file and the key."""
    return _instance_from(read_document(path))


def save_instance(instance: NetworkInstance, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(instance_to_dict(instance), f, indent=2)
        f.write("\n")


def load_bundled_instance() -> NetworkInstance:
    """The two-area example instance shipped with the package."""
    text = resources.files("rlnd.data").joinpath("two_area_example.json").read_text("utf-8")
    return instance_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# CSV tables
# ----------------------------------------------------------------------

def _data_rows(path: str | Path, numeric_col: int) -> Iterable[tuple[int, list[str]]]:
    """Each nonblank row, its cells stripped, with the line it ends on; a
    first row whose ``numeric_col`` is no number is a header and skipped."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        rows = (row for row in reader if any(cell.strip() for cell in row))
        for k, row in enumerate(rows):
            if k == 0:
                try:
                    float(row[numeric_col])
                except (ValueError, IndexError):
                    continue  # header row
            yield reader.line_num, [cell.strip() for cell in row]


def read_points_csv(path: str | Path) -> dict[str, GeoPoint]:
    """Geo points: id, lat, lon[, population].  A malformed row or an id
    given twice raises ValueError naming the file, the lines and the problem."""
    points: dict[str, GeoPoint] = {}
    lines: dict[str, int] = {}
    for line, row in _data_rows(path, 1):
        try:
            if len(row) < 3:
                raise ValueError(f"{len(row)} field(s) where id, lat, lon[, population] "
                                 "are expected")
            population = float(row[3]) if len(row) > 3 and row[3] else None
            point = GeoPoint(float(row[1]), float(row[2]), population)
        except ValueError as exc:
            raise ValueError(f"{path}, line {line}: {exc}") from None
        if row[0] in lines:
            raise ValueError(f"{path}, lines {lines[row[0]]} and {line}: id {row[0]!r} repeated")
        points[row[0]], lines[row[0]] = point, line
    return points


def write_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable[Any]]) -> None:
    """A header, then the rows; floats are written with six decimals."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([f"{v:.6f}" if isinstance(v, float) else v for v in row]
                         for row in rows)
