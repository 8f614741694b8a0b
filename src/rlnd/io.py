"""Instance files and table imports.

An instance is one JSON document with sections ``sets``, ``supply``,
``processing``, ``arcs`` and ``policy`` (a ``scenario`` section is allowed
and ignored here; the scenario engine reads it separately).  The CSV
importer reads coordinate points, ``id, lat, lon[, population]``; a header
row is detected (its ``lat`` cell not numeric) and skipped, so both bare and
titled exports load.
"""

from __future__ import annotations

import csv
import json
from importlib import resources
from pathlib import Path
from typing import Any, Iterable

from .domain import (Arc, ArcData, NetworkInstance, PolicyData, ProcessingData,
                     ProcessingEntry, SupplyData, DEFAULT_CITY_POPULATION_THRESHOLD)
from .geo import GeoPoint

BUNDLED_INSTANCE = "ewaste-two-area-example"


# ----------------------------------------------------------------------
# JSON instance documents
# ----------------------------------------------------------------------

def _entry_from_dict(d: dict[str, Any]) -> ProcessingEntry:
    return ProcessingEntry(cost=float(d["cost"]), credit=float(d["credit"]),
                           emission=float(d["emission"]), offset=float(d["offset"]),
                           capacity=float(d["capacity"]),
                           min_shipment=float(d.get("min_shipment", 0.0)))


def _entry_to_dict(e: ProcessingEntry) -> dict[str, Any]:
    d = {"cost": e.cost, "credit": e.credit, "emission": e.emission,
         "offset": e.offset, "capacity": e.capacity}
    if e.min_shipment:
        d["min_shipment"] = e.min_shipment
    return d


def _arc_from_dict(d: dict[str, Any]) -> Arc:
    if d.get("forbidden"):
        return Arc(distance=float(d.get("distance", 0.0)), cost=float(d.get("cost", 0.0)),
                   emission=float(d.get("emission", 0.0)), forbidden=True)
    return Arc(distance=float(d["distance"]), cost=float(d["cost"]),
               emission=float(d["emission"]))


def _arc_to_dict(a: Arc) -> dict[str, Any]:
    d = {"distance": a.distance, "cost": a.cost, "emission": a.emission}
    if a.forbidden:
        d["forbidden"] = True
    return d


def _float_table(d: dict[str, Any]) -> dict[str, float]:
    return {k: float(v) for k, v in d.items()}


def _nested_float(d: dict[str, Any]) -> dict[str, dict[str, float]]:
    return {k: _float_table(v) for k, v in d.items()}


def instance_from_dict(data: dict[str, Any]) -> NetworkInstance:
    sets = data["sets"]
    sup = data["supply"]
    proc = data["processing"]
    arcs = data["arcs"]

    supply = SupplyData(
        mass=_nested_float(sup["mass"]),
        trips_per_year=float(sup["trips_per_year"]),
        dedicated_fraction=_float_table(sup["dedicated_fraction"]),
        population=_float_table(sup["population"]) if sup.get("population") else None,
        household_size=(float(sup["household_size"])
                        if sup.get("household_size") is not None else None),
        participation=(float(sup["participation"])
                       if sup.get("participation") is not None else None),
        trip_factor=_float_table(sup.get("trip_factor", {})),
    )
    resale = proc["resale"]
    processing = ProcessingData(
        dropoff={f: {i: _entry_from_dict(e) for i, e in row.items()}
                 for f, row in proc["dropoff"].items()},
        primary={f: {i: _entry_from_dict(e) for i, e in row.items()}
                 for f, row in proc["primary"].items()},
        secondary={f: {j: _entry_from_dict(e) for j, e in row.items()}
                   for f, row in proc["secondary"].items()},
        resale_dropoff=_float_table(resale["dropoff"]),
        resale_primary=_float_table(resale["primary"]),
        resale_secondary=_float_table(resale["secondary"]),
        fixed_cost=_float_table(proc["fixed_cost"]),
        min_open={k: int(v) for k, v in proc["min_open"].items()},
        composition=_nested_float(proc["composition"]),
        efficiency=_nested_float(proc.get("efficiency", {})),
        total_capacity=_float_table(proc.get("total_capacity", {})),
    )
    arc_data = ArcData(
        res_drop={a: {b: _arc_from_dict(x) for b, x in row.items()}
                  for a, row in arcs["res_drop"].items()},
        drop_pri={a: {b: _arc_from_dict(x) for b, x in row.items()}
                  for a, row in arcs["drop_pri"].items()},
        pri_sec={a: {b: _arc_from_dict(x) for b, x in row.items()}
                 for a, row in arcs["pri_sec"].items()},
    )
    pol = data.get("policy")
    policy = None
    if pol:
        policy = PolicyData(
            county_of=dict(pol.get("county_of", {})),
            city_of=dict(pol.get("city_of", {})),
            city_population=_float_table(pol.get("city_population", {})),
            city_county=dict(pol.get("city_county", {})),
            population_threshold=float(pol.get("population_threshold",
                                               DEFAULT_CITY_POPULATION_THRESHOLD)),
        )
    return NetworkInstance(
        name=data.get("name", "instance"),
        products=tuple(sets["products"]),
        materials=tuple(sets["materials"]),
        areas=tuple(sets["areas"]),
        dropoffs=tuple(sets["dropoffs"]),
        primaries=tuple(sets["primaries"]),
        secondaries=tuple(sets["secondaries"]),
        supply=supply,
        processing=processing,
        arcs=arc_data,
        policy=policy,
        description=data.get("description", ""),
    )


def instance_to_dict(instance: NetworkInstance) -> dict[str, Any]:
    sup = instance.supply
    proc = instance.processing
    supply: dict[str, Any] = {
        "mass": {i: dict(row) for i, row in sup.mass.items()},
        "trips_per_year": sup.trips_per_year,
        "dedicated_fraction": dict(sup.dedicated_fraction),
    }
    if sup.population is not None:
        supply["population"] = dict(sup.population)
    if sup.household_size is not None:
        supply["household_size"] = sup.household_size
    if sup.participation is not None:
        supply["participation"] = sup.participation
    if sup.trip_factor:
        supply["trip_factor"] = dict(sup.trip_factor)

    processing = {
        "dropoff": {f: {i: _entry_to_dict(e) for i, e in row.items()}
                    for f, row in proc.dropoff.items()},
        "primary": {f: {i: _entry_to_dict(e) for i, e in row.items()}
                    for f, row in proc.primary.items()},
        "secondary": {f: {j: _entry_to_dict(e) for j, e in row.items()}
                      for f, row in proc.secondary.items()},
        "resale": {"dropoff": dict(proc.resale_dropoff),
                   "primary": dict(proc.resale_primary),
                   "secondary": dict(proc.resale_secondary)},
        "fixed_cost": dict(proc.fixed_cost),
        "min_open": dict(proc.min_open),
        "composition": {j: dict(row) for j, row in proc.composition.items()},
    }
    if proc.efficiency:
        processing["efficiency"] = {j: dict(row) for j, row in proc.efficiency.items()}
    if proc.total_capacity:
        processing["total_capacity"] = dict(proc.total_capacity)

    arcs = {
        "res_drop": {a: {b: _arc_to_dict(x) for b, x in row.items()}
                     for a, row in instance.arcs.res_drop.items()},
        "drop_pri": {a: {b: _arc_to_dict(x) for b, x in row.items()}
                     for a, row in instance.arcs.drop_pri.items()},
        "pri_sec": {a: {b: _arc_to_dict(x) for b, x in row.items()}
                    for a, row in instance.arcs.pri_sec.items()},
    }
    out: dict[str, Any] = {
        "name": instance.name,
        "description": instance.description,
        "sets": {"products": list(instance.products),
                 "materials": list(instance.materials),
                 "areas": list(instance.areas),
                 "dropoffs": list(instance.dropoffs),
                 "primaries": list(instance.primaries),
                 "secondaries": list(instance.secondaries)},
        "supply": supply,
        "processing": processing,
        "arcs": arcs,
        "policy": None,
    }
    if instance.policy is not None:
        pol = instance.policy
        out["policy"] = {
            "county_of": dict(pol.county_of),
            "city_of": dict(pol.city_of),
            "city_population": dict(pol.city_population),
            "city_county": dict(pol.city_county),
            "population_threshold": pol.population_threshold,
        }
    return out


def load_instance(path: str | Path) -> NetworkInstance:
    with open(path, "r", encoding="utf-8") as f:
        return instance_from_dict(json.load(f))


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

def _data_rows(path: str | Path, numeric_col: int) -> Iterable[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        for k, row in enumerate(csv.reader(f)):
            if not row or all(not cell.strip() for cell in row):
                continue
            if k == 0:
                try:
                    float(row[numeric_col])
                except (ValueError, IndexError):
                    continue  # header row
            yield [cell.strip() for cell in row]


def read_points_csv(path: str | Path) -> dict[str, GeoPoint]:
    """Geo points: id, lat, lon[, population]."""
    points: dict[str, GeoPoint] = {}
    for row in _data_rows(path, 1):
        population = float(row[3]) if len(row) > 3 and row[3] else None
        points[row[0]] = GeoPoint(float(row[1]), float(row[2]), population)
    return points


def write_breakdown_csv(rows: Iterable[tuple[str, str, float]], path: str | Path) -> None:
    """Serialize StageBreakdown.rows(): metric, stage, value."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["metric", "stage", "value"])
        for metric, stage, value in rows:
            writer.writerow([metric, stage, f"{value:.6f}"])
