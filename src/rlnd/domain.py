"""Typed network instance for the e-waste take-back system.

The network has four tiers: residence areas generate used products, drop-off
sites collect them, primary processors dismantle them into materials, and
secondary processors recover the materials.  Every tier can resell a fraction
of its inflow, which earns revenue and avoids emissions.

The three processing tiers share one shape, declared once in :data:`TIERS`:
each tier's name, the id sets of its facilities, items and sources, its
inbound arc lane, its validation symbols, the stage-report name of its
inbound leg and the model's names for its flow and open variables.
Per-tier data is keyed by tier as the instance JSON nests it
(``ProcessingData.entries[tier][facility][item]``,
``ProcessingData.resale[tier][item]``, ``NetworkInstance.arcs[lane][tail][head]``),
and validation, the :mod:`rlnd.io` codec and the model layer loop over the layout.
The six id sets are named once too, in :data:`SETS`.

:func:`validate` checks every number by one rule: present, finite and in
its range, else one violation naming its symbol and index.  The numbers of a
processing entry and of an arc are their dataclasses' fields.

An instance is declarative data only; model assembly lives in
:mod:`rlnd.builders`.  Instances are treated as immutable once validated —
derived scenarios build modified copies instead of mutating.  That is also
what keeps built models correct: the builders keep each model they built
for as long as its instance lives and hand out copies of it without
validating or building again, so change a copy (``dataclasses.replace``,
:func:`with_trip_factor`, ...), never an instance a model was built from.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Iterable

DEFAULT_CITY_POPULATION_THRESHOLD = 10_000.0


class InstanceError(ValueError):
    """Raised when an instance is structurally unusable."""


@dataclass(frozen=True)
class Arc:
    """One directed transport lane. Costs are per km (trip lanes) or per
    kg-km (mass lanes); a forbidden arc has no physical route."""

    distance: float
    cost: float
    emission: float
    forbidden: bool = False


@dataclass(frozen=True)
class ProcessingEntry:
    """Per (item, facility) processing economics, all per kg of inflow."""

    cost: float
    credit: float
    emission: float
    offset: float
    capacity: float
    min_shipment: float = 0.0


@dataclass(frozen=True)
class SupplyData:
    mass: dict[str, dict[str, float]]          # [product][area] kg available
    trips_per_year: float
    dedicated_fraction: dict[str, float]       # [dropoff] share of trip dedicated
    population: dict[str, float] | None = None         # [area] people
    household_size: float | None = None                # people per household
    participation: float | None = None                 # participating share
    trip_factor: dict[str, float] = field(default_factory=dict)  # lumped per area

    @property
    def demographic(self) -> bool:
        return (self.population is not None and self.household_size is not None
                and self.participation is not None)


@dataclass(frozen=True)
class ProcessingData:
    entries: dict[str, dict[str, dict[str, ProcessingEntry]]]  # [tier][facility][item]
    resale: dict[str, dict[str, float]]                # [tier][item]
    fixed_cost: dict[str, float]                       # [facility]
    min_open: dict[str, int]                           # per tier name
    composition: dict[str, dict[str, float]]           # [material][product] kg/kg
    efficiency: dict[str, dict[str, float]] = field(default_factory=dict)
    total_capacity: dict[str, float] = field(default_factory=dict)

    def eff(self, material: str, primary: str) -> float:
        return self.efficiency.get(material, {}).get(primary, 1.0)


@dataclass(frozen=True)
class PolicyData:
    """County/city siting floors for drop-off candidates."""

    county_of: dict[str, str] = field(default_factory=dict)      # [dropoff]
    city_of: dict[str, str] = field(default_factory=dict)        # [dropoff]
    city_population: dict[str, float] = field(default_factory=dict)
    city_county: dict[str, str] = field(default_factory=dict)
    population_threshold: float = DEFAULT_CITY_POPULATION_THRESHOLD

    def qualifying_cities(self) -> list[str]:
        return [c for c, pop in self.city_population.items()
                if pop > self.population_threshold]


@dataclass(frozen=True)
class NetworkInstance:
    name: str
    products: tuple[str, ...]
    materials: tuple[str, ...]
    areas: tuple[str, ...]
    dropoffs: tuple[str, ...]
    primaries: tuple[str, ...]
    secondaries: tuple[str, ...]
    supply: SupplyData
    processing: ProcessingData
    arcs: dict[str, dict[str, dict[str, Arc]]]        # [lane][tail][head]
    policy: PolicyData | None = None
    description: str = ""

    def facilities(self) -> tuple[str, ...]:
        return tuple(f for tier in TIERS for f in getattr(self, tier.facilities))

    def total_supply(self, product: str) -> float:
        return sum(self.supply.mass[product][h] for h in self.areas)


@dataclass(frozen=True)
class TierLayout:
    """Where one processing tier's data sits in an instance and a model:
    ``name`` keys ``ProcessingData.entries``, ``resale`` and ``min_open``,
    ``lane`` keys its inbound arcs, ``leg`` names that lane in stage
    reports, ``flows`` and ``opens`` name its ``VariableMap`` fields (and,
    upper-cased, its variables), and the rest name ``NetworkInstance`` id
    sets."""

    name: str
    facilities: str
    items: str         # products or materials
    sources: str       # where the inflow comes from: areas or the tier before
    lane: str
    symbol: str        # of its processing entries; ``re^`` + symbol of its resale shares
    lane_symbol: str   # of its inbound arcs
    leg: str
    flows: str
    opens: str

    def sets(self, instance: NetworkInstance) -> tuple[tuple[str, ...], ...]:
        """The tier's facilities, items and sources in ``instance``."""
        return (getattr(instance, self.facilities), getattr(instance, self.items),
                getattr(instance, self.sources))


# the id sets, as ``NetworkInstance`` fields and the instance JSON's ``sets`` keys
SETS = ("products", "materials", "areas", "dropoffs", "primaries", "secondaries")

TIERS = (
    TierLayout("dropoff", "dropoffs", "products", "areas", "res_drop", "drp", "d^res",
               "residence-dropoff", "rtd", "x"),
    TierLayout("primary", "primaries", "products", "dropoffs", "drop_pri", "pri", "d^drp",
               "dropoff-primary", "dtp", "y"),
    TierLayout("secondary", "secondaries", "materials", "primaries", "pri_sec", "sec", "d^pri",
               "primary-secondary", "pts", "r"),
)


@dataclass(frozen=True)
class Violation:
    symbol: str
    index: tuple[str, ...]
    message: str

    def __str__(self) -> str:
        where = f"[{','.join(self.index)}]" if self.index else ""
        return f"{self.symbol}{where}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, symbol: str, index: tuple[str, ...], message: str) -> None:
        self.violations.append(Violation(symbol, index, message))

    def assert_valid(self) -> None:
        if not self.ok:
            summary = "; ".join(str(v) for v in self.violations[:10])
            raise InstanceError(f"{len(self.violations)} violation(s): {summary}")


def trip_multiplier(instance: NetworkInstance, area: str, dropoff: str) -> float:
    """Annual dedicated-trip count scaling the residence->dropoff lane.

    Demographic form: (population/household size) * participation * trips/yr
    * dedicated fraction.  When demographics are absent the per-area lumped
    factor (default 1) stands in for (population/household size)*participation.
    """
    s = instance.supply
    ty = s.trips_per_year
    df = s.dedicated_fraction[dropoff]
    if s.demographic:
        if s.household_size == 0:
            raise InstanceError("household_size is zero; trip multiplier undefined")
        return (s.population[area] / s.household_size) * s.participation * ty * df
    return s.trip_factor.get(area, 1.0) * ty * df


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

# the ranges a number may take, each (lowest, highest, as written): an open
# end is the next float inward, so an infinity falls outside as NaN does
_AT_LEAST_0 = (0.0, sys.float_info.max, "[0, inf)")
_ABOVE_0 = (math.ulp(0.0), sys.float_info.max, "(0, inf)")
_SHARE, _POSITIVE_SHARE = (0.0, 1.0, "[0, 1]"), (math.ulp(0.0), 1.0, "(0, 1]")

# the numbers of a processing entry and of an arc, each with its symbol per tier
_ENTRY_SYMBOLS = {tier.name: {f.name: f"{tier.symbol}.{f.name}" for f in fields(ProcessingEntry)}
                  for tier in TIERS}
_ARC_SYMBOLS = {tier.name: {f.name: f"{tier.lane_symbol}.{f.name}" for f in fields(Arc)
                            if f.type == "float"} for tier in TIERS}


def _in_range(r: ValidationReport, symbol: str, index: tuple[str, ...], value: float | None,
              name: str, allowed: tuple[float, float, str]) -> bool:
    """Whether ``value`` is a number in ``allowed``; if it is missing (None)
    or not, adds the one violation that says so."""
    low, high, text = allowed
    if value is not None and low <= value <= high:
        return True
    r.add(symbol, index, f"missing {name}" if value is None else f"{name} {value} outside {text}")
    return False


def validate(instance: NetworkInstance) -> ValidationReport:
    """Structural and range validation; returns all violations found, one per
    bad scalar, so reports stay readable on badly broken inputs."""
    r = ValidationReport()
    _check_sets(instance, r)
    if r.violations:
        return r  # index checks below assume coherent id sets
    _check_supply(instance, r)
    _check_processing(instance, r)
    _check_arcs(instance, r)
    _check_policy(instance, r)
    return r


def _check_sets(inst: NetworkInstance, r: ValidationReport) -> None:
    for symbol in SETS:
        ids = getattr(inst, symbol)
        if not ids:
            r.add(symbol, (), "identifier list is empty")
        for d in sorted({x for x in ids if ids.count(x) > 1}):
            r.add(symbol, (d,), "duplicate identifier")
    seen: dict[str, str] = {}
    for symbol in (tier.facilities for tier in TIERS):
        for f in getattr(inst, symbol):
            if f in seen and seen[f] != symbol:
                r.add("facilities", (f,), f"id reused across tiers ({seen[f]}, {symbol})")
            seen.setdefault(f, symbol)


def _check_keys(r: ValidationReport, symbol: str, index: tuple[str, ...],
                keys: Iterable[str], known: tuple[str, ...], what: str) -> None:
    """One violation per key that no ``known`` id matches: no entry is ignored."""
    for key in keys:
        if key not in known:
            r.add(symbol, (*index, key), f"unknown {what}")


# what one id of each id set is called in a violation
_ID_WORDS = dict(zip(SETS, ("product", "material", "residence area", "dropoff", "primary",
                            "secondary")))


def _check_grid(r: ValidationReport, inst: NetworkInstance, symbol: str,
                table: dict[str, dict], rows: str, columns: str) -> None:
    """:func:`_check_keys` of a table keyed by the id sets named ``rows``,
    then ``columns``: its rows, then the keys of each declared row."""
    _check_keys(r, symbol, (), table, getattr(inst, rows), _ID_WORDS[rows])
    for k in getattr(inst, rows):
        _check_keys(r, symbol, (k,), table.get(k, {}), getattr(inst, columns), _ID_WORDS[columns])


def _check_supply(inst: NetworkInstance, r: ValidationReport) -> None:
    s = inst.supply
    _check_grid(r, inst, "r", s.mass, "products", "areas")
    for i in inst.products:
        for h in inst.areas:
            _in_range(r, "r", (i, h), s.mass.get(i, {}).get(h), "supply mass", _AT_LEAST_0)
    _in_range(r, "ty", (), s.trips_per_year, "trips per year", _AT_LEAST_0)
    _check_keys(r, "df", (), s.dedicated_fraction, inst.dropoffs, "dropoff")
    for c in inst.dropoffs:
        _in_range(r, "df", (c,), s.dedicated_fraction.get(c), "dedicated fraction", _POSITIVE_SHARE)
    if s.population is not None:
        _check_keys(r, "pp", (), s.population, inst.areas, "residence area")
        for h in inst.areas:
            _in_range(r, "pp", (h,), s.population.get(h), "population", _AT_LEAST_0)
    if s.household_size is not None:
        _in_range(r, "hs", (), s.household_size, "household size", _ABOVE_0)
    if s.participation is not None:
        _in_range(r, "pt", (), s.participation, "participation", _SHARE)
    for h, tm in s.trip_factor.items():
        if h not in inst.areas:
            r.add("tm", (h,), "unknown residence area")
        else:
            _in_range(r, "tm", (h,), tm, "trip factor", _AT_LEAST_0)


def _check_processing(inst: NetworkInstance, r: ValidationReport) -> None:
    p = inst.processing
    for tier in TIERS:
        facilities, items, _ = tier.sets(inst)
        table, symbols = p.entries.get(tier.name, {}), _ENTRY_SYMBOLS[tier.name]
        _check_grid(r, inst, tier.symbol, table, tier.facilities, tier.items)
        for f in facilities:
            for it in items:
                e = table.get(f, {}).get(it)
                if e is None:
                    r.add(tier.symbol, (it, f), "missing processing entry")
                    continue
                passed = {name for name, symbol in symbols.items()
                          if _in_range(r, symbol, (it, f), getattr(e, name), name, _AT_LEAST_0)}
                if {"capacity", "min_shipment"} <= passed and e.min_shipment > e.capacity:
                    r.add(symbols["min_shipment"], (it, f),
                          f"minimum shipment {e.min_shipment} exceeds capacity {e.capacity}")
        resale = p.resale.get(tier.name, {})
        _check_keys(r, f"re^{tier.symbol}", (), resale, items, _ID_WORDS[tier.items])
        for it in items:
            _in_range(r, f"re^{tier.symbol}", (it,), resale.get(it), "resale fraction", _SHARE)
        _in_range(r, "nof", (tier.name,), p.min_open.get(tier.name, 0), "minimum open count",
                  (0, len(facilities), f"[0, {len(facilities)}]"))
    _check_keys(r, "nof", (), p.min_open, tuple(tier.name for tier in TIERS), "tier")
    _check_keys(r, "fc", (), p.fixed_cost, inst.facilities(), "facility")
    for f in inst.facilities():
        _in_range(r, "fc", (f,), p.fixed_cost.get(f), "fixed cost", _AT_LEAST_0)
    _check_grid(r, inst, "q", p.composition, "materials", "products")
    for i in inst.products:
        total = 0.0
        for j in inst.materials:
            q = p.composition.get(j, {}).get(i)
            if _in_range(r, "q", (j, i), q, "material fraction", _AT_LEAST_0):
                total += q
        if total > 1.0 + 1e-9:
            r.add("q", (i,), f"material fractions sum to {total:.6g} > 1")
    _check_grid(r, inst, "eff", p.efficiency, "materials", "primaries")
    for j, row in p.efficiency.items():
        for pr, v in row.items():
            _in_range(r, "eff", (j, pr), v, "efficiency", _SHARE)
    for f, cap in p.total_capacity.items():
        if f not in inst.facilities():
            r.add("capTotal", (f,), "unknown facility")
        else:
            _in_range(r, "capTotal", (f,), cap, "total capacity", _AT_LEAST_0)


def _check_arcs(inst: NetworkInstance, r: ValidationReport) -> None:
    for tier in TIERS:
        heads, _, tails = tier.sets(inst)
        table, symbols = inst.arcs.get(tier.lane, {}), _ARC_SYMBOLS[tier.name]
        _check_grid(r, inst, tier.lane_symbol, table, tier.sources, tier.facilities)
        for a in tails:
            row = table.get(a, {})
            for b in heads:
                arc = row.get(b)
                if arc is None:
                    r.add(tier.lane_symbol, (a, b), "missing arc (mark forbidden explicitly)")
                elif not arc.forbidden:
                    for name, symbol in symbols.items():  # one violation per arc at most
                        if not _in_range(r, symbol, (a, b), getattr(arc, name), name, _AT_LEAST_0):
                            break


def _check_policy(inst: NetworkInstance, r: ValidationReport) -> None:
    pol = inst.policy
    if pol is None:
        return
    for symbol in ("county_of", "city_of"):
        _check_keys(r, symbol, (), getattr(pol, symbol), inst.dropoffs, "dropoff")
    for city in pol.city_of.values():
        if city not in pol.city_population:
            r.add("city_population", (city,), "city referenced but population missing")
    for city, pop in pol.city_population.items():
        _in_range(r, "city_population", (city,), pop, "city population", _AT_LEAST_0)
        if city not in pol.city_county:
            r.add("city_county", (city,), "city has no county assignment")
    _in_range(r, "population_threshold", (), pol.population_threshold,
              "population threshold", _AT_LEAST_0)


def with_trip_factor(instance: NetworkInstance, factor: float) -> NetworkInstance:
    """Copy of the instance in lumped-trip mode with one shared factor."""
    supply = replace(instance.supply,
                     population=None, household_size=None, participation=None,
                     trip_factor={h: factor for h in instance.areas})
    return replace(instance, supply=supply)


def with_supply_mass(instance: NetworkInstance,
                     mass: dict[str, dict[str, float]]) -> NetworkInstance:
    merged = {i: dict(instance.supply.mass[i]) for i in instance.products}
    for i, row in mass.items():
        merged.setdefault(i, {}).update(row)
    return replace(instance, supply=replace(instance.supply, mass=merged))


def with_total_capacity(instance: NetworkInstance,
                        caps: dict[str, float]) -> NetworkInstance:
    merged = dict(instance.processing.total_capacity)
    merged.update(caps)
    return replace(instance, processing=replace(instance.processing, total_capacity=merged))
