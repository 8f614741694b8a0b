"""Instance files, spec files and table imports.

An instance is one JSON document with sections ``sets``, ``supply``,
``processing``, ``arcs`` and ``policy`` (a ``scenario`` section is allowed
and ignored here; the scenario engine reads it separately).  The writer is
``dataclasses.asdict`` of the instance, reshaped in two places only: the id
sets (:data:`rlnd.domain.SETS`) sit under ``sets``, and each tier's entries
directly under ``processing``.  So it writes every field, defaults and
nulls included, and a saved instance loads back equal.  The reader fills
in the optional keys and reads the per-tier parts of ``processing`` and
``arcs`` in one loop over :data:`rlnd.domain.TIERS`.  Instances and the
scenario and uncertainty spec files are all read through :class:`Node`, so
a missing key or a value of the wrong type raises one
:class:`DocumentError` naming the file and the key's path, such as
``supply.trips_per_year``.  The CSV importer reads coordinate points,
``id, lat, lon[, population]``; a header (the first non-blank row, when its
``lat`` cell is not numeric) is detected and skipped, so both bare and
titled exports load.  :func:`write_csv` writes every CSV export, floats
with six decimals.
"""

from __future__ import annotations

import csv
import json
from dataclasses import MISSING, asdict, fields
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, NoReturn

from .domain import (SETS, TIERS, Arc, InstanceError, NetworkInstance, PolicyData,
                     ProcessingData, ProcessingEntry, SupplyData,
                     DEFAULT_CITY_POPULATION_THRESHOLD)
from .geo import GeoPoint


# ----------------------------------------------------------------------
# JSON documents
# ----------------------------------------------------------------------

class DocumentError(InstanceError):
    """A JSON document lacks a key or holds a value of the wrong type."""


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

    def get(self, key: str, convert: Callable[[Node], Any], default: Any = None) -> Any:
        """``convert`` of the value under ``key``; ``default`` when it is absent or null."""
        return default if self.table().get(key) is None else convert(self[key])

    def map(self, convert: Callable[[Node], Any]) -> dict[str, Any]:
        return {k: convert(Node(v, self.path + (k,), self.source))
                for k, v in self.table().items()}

    def number(self) -> float:
        try:
            return float(self.value)
        except (TypeError, ValueError):
            self.fail(f"expected a number, got {self.value!r}")

    def integer(self) -> int:
        if not self.number().is_integer():  # nor are NaN and the infinities
            self.fail(f"expected an integer, got {self.value!r}")
        return int(float(self.value))

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
            return {k: float(v) for k, v in self.table().items()}
        except (TypeError, ValueError):
            return self.map(Node.number)  # raises, naming the value

    def fields(self, names: tuple[str, ...]) -> list[float]:
        """The numbers under ``names``, in that order."""
        table = self.table()
        try:
            return [float(table[k]) for k in names]
        except (KeyError, TypeError, ValueError):
            return [self[k].number() for k in names]  # raises, naming the key


def read_document(path: str | Path) -> Node:
    """The JSON document in ``path``, as the root :class:`Node`."""
    with open(path, "r", encoding="utf-8") as f:
        return Node(json.load(f), source=str(path))


# ----------------------------------------------------------------------
# instance documents
# ----------------------------------------------------------------------

# a record's required keys are its fields without a default, and each other
# key is read as its default when absent; an arc's, `forbidden`, frees the rest
_ENTRY_FIELDS, _ARC_FIELDS = (tuple(f.name for f in fields(record) if f.default is MISSING)
                              for record in (ProcessingEntry, Arc))
_ENTRY_DEFAULTS = {f.name: f.default for f in fields(ProcessingEntry) if f.default is not MISSING}


def _entry_from(node: Node) -> ProcessingEntry:
    return ProcessingEntry(*node.fields(_ENTRY_FIELDS),
                           **{k: node.get(k, Node.number, v) for k, v in _ENTRY_DEFAULTS.items()})


def _arc_from(node: Node) -> Arc:
    if node.table().get("forbidden"):
        return Arc(*(node.get(k, Node.number, 0.0) for k in _ARC_FIELDS), forbidden=True)
    return Arc(*node.fields(_ARC_FIELDS))


def _policy_from(node: Node) -> PolicyData | None:
    if not node.table():
        return None
    names = lambda n: n.map(Node.text)
    return PolicyData(
        county_of=node.get("county_of", names, {}),
        city_of=node.get("city_of", names, {}),
        city_population=node.get("city_population", Node.numbers, {}),
        city_county=node.get("city_county", names, {}),
        population_threshold=node.get("population_threshold", Node.number,
                                      DEFAULT_CITY_POPULATION_THRESHOLD),
    )


def _instance_from(doc: Node) -> NetworkInstance:
    sup = doc["supply"]
    proc = doc["processing"]

    supply = SupplyData(
        mass=sup["mass"].map(Node.numbers),
        trips_per_year=sup["trips_per_year"].number(),
        dedicated_fraction=sup["dedicated_fraction"].numbers(),
        population=sup.get("population", Node.numbers) or None,
        household_size=sup.get("household_size", Node.number),
        participation=sup.get("participation", Node.number),
        trip_factor=sup.get("trip_factor", Node.numbers, {}),
    )
    processing = ProcessingData(
        entries={t.name: proc[t.name].map(lambda row: row.map(_entry_from)) for t in TIERS},
        resale={t.name: proc["resale"][t.name].numbers() for t in TIERS},
        fixed_cost=proc["fixed_cost"].numbers(),
        min_open=proc["min_open"].map(Node.integer),
        composition=proc["composition"].map(Node.numbers),
        efficiency=proc.get("efficiency", lambda n: n.map(Node.numbers), {}),
        total_capacity=proc.get("total_capacity", Node.numbers, {}),
    )
    return NetworkInstance(
        name=doc.get("name", Node.text, "instance"),
        **{k: doc["sets"][k].texts() for k in SETS},
        supply=supply,
        processing=processing,
        arcs={t.lane: doc["arcs"][t.lane].map(lambda row: row.map(_arc_from)) for t in TIERS},
        policy=doc.get("policy", _policy_from),
        description=doc.get("description", Node.text, ""),
    )


def instance_from_dict(data: dict[str, Any]) -> NetworkInstance:
    """The instance in a JSON document's layout; a missing key or a value of
    the wrong type raises a DocumentError that names its path."""
    return _instance_from(Node(data))


def instance_to_dict(instance: NetworkInstance) -> dict[str, Any]:
    """The instance in its JSON document's layout (see the module docstring)."""
    doc = asdict(instance)
    doc["sets"] = {k: list(doc.pop(k)) for k in SETS}
    doc["processing"].update(doc["processing"].pop("entries"))
    return doc


def load_instance(path: str | Path) -> NetworkInstance:
    """An instance file; a missing key or a value of the wrong type raises a
    DocumentError that names the file and the key."""
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
    """Geo points: id, lat, lon[, population].  A malformed row raises
    ValueError naming the file, the row's line and the problem."""
    points: dict[str, GeoPoint] = {}
    for line, row in _data_rows(path, 1):
        try:
            if len(row) < 3:
                raise ValueError(f"{len(row)} field(s) where id, lat, lon[, population] "
                                 "are expected")
            population = float(row[3]) if len(row) > 3 and row[3] else None
            points[row[0]] = GeoPoint(float(row[1]), float(row[2]), population)
        except ValueError as exc:
            raise ValueError(f"{path}, line {line}: {exc}") from None
    return points


def write_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable[Any]]) -> None:
    """A header, then the rows; floats are written with six decimals."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([f"{v:.6f}" if isinstance(v, float) else v for v in row]
                         for row in rows)
