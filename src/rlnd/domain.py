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
from dataclasses import dataclass, field, replace

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

def validate(instance: NetworkInstance) -> ValidationReport:
    """Structural and range validation; returns all violations found.

    Each bad scalar produces exactly one entry naming the symbol and index it
    belongs to, so reports stay readable on badly broken inputs.
    """
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
        dupes = {x for x in ids if list(ids).count(x) > 1}
        for d in sorted(dupes):
            r.add(symbol, (d,), "duplicate identifier")
    seen: dict[str, str] = {}
    for symbol in (tier.facilities for tier in TIERS):
        for f in getattr(inst, symbol):
            if f in seen and seen[f] != symbol:
                r.add("facilities", (f,), f"id reused across tiers ({seen[f]}, {symbol})")
            seen.setdefault(f, symbol)


def _check_supply(inst: NetworkInstance, r: ValidationReport) -> None:
    s = inst.supply
    for i in inst.products:
        for h in inst.areas:
            v = s.mass.get(i, {}).get(h)
            if v is None:
                r.add("r", (i, h), "missing supply mass")
            elif v < 0:
                r.add("r", (i, h), f"negative supply mass {v}")
    if s.trips_per_year < 0:
        r.add("ty", (), f"trips per year {s.trips_per_year} < 0")
    for c in inst.dropoffs:
        df = s.dedicated_fraction.get(c)
        if df is None:
            r.add("df", (c,), "missing dedicated fraction")
        elif not 0.0 < df <= 1.0:
            r.add("df", (c,), f"dedicated fraction {df} outside (0, 1]")
    if s.population is not None:
        for h in inst.areas:
            pp = s.population.get(h)
            if pp is None:
                r.add("pp", (h,), "missing population")
            elif pp < 0:
                r.add("pp", (h,), f"negative population {pp}")
    if s.household_size is not None and s.household_size <= 0:
        r.add("hs", (), f"household size {s.household_size} must be > 0")
    if s.participation is not None and not 0.0 <= s.participation <= 1.0:
        r.add("pt", (), f"participation {s.participation} outside [0, 1]")
    for h, tm in s.trip_factor.items():
        if h not in inst.areas:
            r.add("tm", (h,), "unknown residence area")
        elif tm < 0:
            r.add("tm", (h,), f"negative trip factor {tm}")


def _check_entry(symbol: str, index: tuple[str, ...], e: ProcessingEntry,
                 r: ValidationReport) -> None:
    for fieldname in ("cost", "credit", "emission", "offset"):
        v = getattr(e, fieldname)
        if v < 0:
            r.add(f"{symbol}.{fieldname}", index, f"negative value {v}")
    if not (math.isfinite(e.capacity) and e.capacity >= 0):
        r.add(f"{symbol}.capacity", index, f"capacity {e.capacity} must be finite and >= 0")
    if e.min_shipment < 0:
        r.add(f"{symbol}.min_shipment", index, f"negative minimum shipment {e.min_shipment}")
    elif e.min_shipment > e.capacity:
        r.add(f"{symbol}.min_shipment", index,
              f"minimum shipment {e.min_shipment} exceeds capacity {e.capacity}")


def _check_processing(inst: NetworkInstance, r: ValidationReport) -> None:
    p = inst.processing
    for tier in TIERS:
        facilities, items, _ = tier.sets(inst)
        table = p.entries.get(tier.name, {})
        for f in facilities:
            for it in items:
                e = table.get(f, {}).get(it)
                if e is None:
                    r.add(tier.symbol, (it, f), "missing processing entry")
                else:
                    _check_entry(tier.symbol, (it, f), e, r)
    for tier in TIERS:
        resale = p.resale.get(tier.name, {})
        for it in getattr(inst, tier.items):
            v = resale.get(it)
            if v is None:
                r.add(f"re^{tier.symbol}", (it,), "missing resale fraction")
            elif not 0.0 <= v <= 1.0:
                r.add(f"re^{tier.symbol}", (it,), f"resale fraction {v} outside [0, 1]")
    for f in inst.facilities():
        fc = p.fixed_cost.get(f)
        if fc is None:
            r.add("fc", (f,), "missing fixed cost")
        elif fc < 0:
            r.add("fc", (f,), f"negative fixed cost {fc}")
    for tier in TIERS:
        size = len(getattr(inst, tier.facilities))
        nof = p.min_open.get(tier.name, 0)
        if not 0 <= nof <= size:
            r.add("nof", (tier.name,), f"minimum open count {nof} outside [0, {size}]")
    for i in inst.products:
        total = 0.0
        for j in inst.materials:
            q = p.composition.get(j, {}).get(i)
            if q is None:
                r.add("q", (j, i), "missing material fraction")
            elif q < 0:
                r.add("q", (j, i), f"negative material fraction {q}")
            else:
                total += q
        if total > 1.0 + 1e-9:
            r.add("q", (i,), f"material fractions sum to {total:.6g} > 1")
    for j, row in p.efficiency.items():
        for pr, v in row.items():
            if not 0.0 <= v <= 1.0:
                r.add("eff", (j, pr), f"efficiency {v} outside [0, 1]")
    for f, cap in p.total_capacity.items():
        if f not in inst.facilities():
            r.add("capTotal", (f,), "unknown facility")
        elif not (math.isfinite(cap) and cap >= 0):
            r.add("capTotal", (f,), f"total capacity {cap} must be finite and >= 0")


def _check_arcs(inst: NetworkInstance, r: ValidationReport) -> None:
    for tier in TIERS:
        heads, _, tails = tier.sets(inst)
        table, symbol = inst.arcs.get(tier.lane, {}), tier.lane_symbol
        for a in tails:
            for b in heads:
                arc = table.get(a, {}).get(b)
                if arc is None:
                    r.add(symbol, (a, b), "missing arc (mark forbidden explicitly)")
                    continue
                if arc.forbidden:
                    continue
                for fieldname in ("distance", "cost", "emission"):
                    v = getattr(arc, fieldname)
                    if not (math.isfinite(v) and v >= 0):
                        r.add(f"{symbol}.{fieldname}", (a, b), f"bad value {v}")
                        break


def _check_policy(inst: NetworkInstance, r: ValidationReport) -> None:
    pol = inst.policy
    if pol is None:
        return
    for c in pol.county_of:
        if c not in inst.dropoffs:
            r.add("county_of", (c,), "unknown dropoff")
    for c in pol.city_of:
        if c not in inst.dropoffs:
            r.add("city_of", (c,), "unknown dropoff")
    for city in pol.city_of.values():
        if city not in pol.city_population:
            r.add("city_population", (city,), "city referenced but population missing")
    for city in pol.city_population:
        if city not in pol.city_county:
            r.add("city_county", (city,), "city has no county assignment")


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
