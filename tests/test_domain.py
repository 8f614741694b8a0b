import dataclasses
import math

import pytest

from rlnd.domain import (TIERS, Arc, InstanceError, PolicyData, ProcessingEntry,
                         trip_multiplier, validate, with_supply_mass,
                         with_total_capacity, with_trip_factor)
from rlnd.io import instance_from_dict, instance_to_dict


def mutable_copy(instance):
    return instance_from_dict(instance_to_dict(instance))


def test_bundled_instance_is_valid(bundled):
    assert validate(bundled).ok


def test_total_supply(bundled):
    assert bundled.total_supply("prod1") == pytest.approx(2100.0)
    assert bundled.total_supply("prod2") == pytest.approx(1200.0)


def test_trip_multiplier_lumped(bundled):
    # factor 1.0 * 500 trips/yr * 0.5 dedicated
    assert trip_multiplier(bundled, "area1", "drop1") == pytest.approx(250.0)


def test_trip_multiplier_demographic(bundled):
    supply = dataclasses.replace(
        bundled.supply, population={"area1": 1000.0, "area2": 800.0},
        household_size=2.5, participation=0.625)
    inst = dataclasses.replace(bundled, supply=supply)
    assert inst.supply.demographic
    # (1000 / 2.5) * 0.625 * 500 * 0.5 = 62500
    assert trip_multiplier(inst, "area1", "drop1") == pytest.approx(62500.0)


def test_trip_multiplier_zero_household_size(bundled):
    supply = dataclasses.replace(
        bundled.supply, population={"area1": 10.0, "area2": 10.0},
        household_size=0.0, participation=0.5)
    inst = dataclasses.replace(bundled, supply=supply)
    with pytest.raises(InstanceError):
        trip_multiplier(inst, "area1", "drop1")


@pytest.mark.parametrize("breaker,symbol", [
    (lambda i: i.supply.mass["prod1"].__setitem__("area1", -5.0), "r"),
    (lambda i: i.supply.dedicated_fraction.__setitem__("drop1", 1.5), "df"),
    (lambda i: i.processing.resale["dropoff"].__setitem__("prod1", 1.2), "re^drp"),
    (lambda i: i.processing.resale["primary"].__setitem__("prod2", -0.1), "re^pri"),
    (lambda i: i.processing.resale["secondary"].__setitem__("mat3", 1.5), "re^sec"),
    (lambda i: i.processing.fixed_cost.__setitem__("prim2", -1.0), "fc"),
    (lambda i: i.processing.composition["mat2"].__setitem__("prod2", -0.1), "q"),
    (lambda i: i.processing.min_open.__setitem__("primary", 9), "nof"),
    (lambda i: i.processing.total_capacity.__setitem__("ghost", 10.0), "capTotal"),
])
def test_single_bad_scalar_is_reported_once(bundled, breaker, symbol):
    inst = mutable_copy(bundled)
    breaker(inst)
    report = validate(inst)
    assert not report.ok
    assert len(report.violations) == 1
    assert report.violations[0].symbol == symbol


def _every_number_set(bundled):
    """The bundled network with each optional number set to a valid value:
    demographics, an efficiency, a total capacity and a siting policy."""
    inst = mutable_copy(bundled)
    supply = dataclasses.replace(inst.supply, population={"area1": 1000.0, "area2": 800.0},
                                 household_size=2.5, participation=0.625)
    inst.processing.efficiency["mat1"] = {"prim1": 0.9}
    inst.processing.total_capacity["prim1"] = 1000.0
    policy = PolicyData(county_of={"drop1": "u1"}, city_of={"drop1": "t1"},
                        city_population={"t1": 50000.0}, city_county={"t1": "u1"})
    return dataclasses.replace(inst, supply=supply, policy=policy)


def _set_supply(**change):
    return lambda i: dataclasses.replace(i, supply=dataclasses.replace(i.supply, **change))


def _replace_first(table, name, value):
    """A breaker that sets ``name`` of the first record in ``table(inst)``'s
    first row to ``value``."""
    def breaker(inst):
        row = next(iter(table(inst).values()))
        key = next(iter(row))
        row[key] = dataclasses.replace(row[key], **{name: value})
    return breaker


def _number_cases(value):
    """(breaker, symbol) for every number of an instance, each set to ``value``."""
    cases = [
        (lambda i: i.supply.mass["prod1"].__setitem__("area1", value), "r"),
        (_set_supply(trips_per_year=value), "ty"),
        (lambda i: i.supply.dedicated_fraction.__setitem__("drop2", value), "df"),
        (lambda i: i.supply.population.__setitem__("area2", value), "pp"),
        (_set_supply(household_size=value), "hs"),
        (_set_supply(participation=value), "pt"),
        (lambda i: i.supply.trip_factor.__setitem__("area1", value), "tm"),
        *((lambda i, t=t: i.processing.resale[t.name].__setitem__(
            next(iter(i.processing.resale[t.name])), value), f"re^{t.symbol}") for t in TIERS),
        (lambda i: i.processing.fixed_cost.__setitem__("prim2", value), "fc"),
        (lambda i: i.processing.composition["mat2"].__setitem__("prod2", value), "q"),
        (lambda i: i.processing.efficiency["mat1"].__setitem__("prim1", value), "eff"),
        (lambda i: i.processing.total_capacity.__setitem__("prim1", value), "capTotal"),
        (lambda i: i.policy.city_population.__setitem__("t1", value), "city_population"),
        (lambda i: dataclasses.replace(
            i, policy=dataclasses.replace(i.policy, population_threshold=value)),
         "population_threshold"),
    ]
    cases += [(_replace_first(lambda i, t=t: i.processing.entries[t.name], f.name, value),
               f"{t.symbol}.{f.name}") for t in TIERS for f in dataclasses.fields(ProcessingEntry)]
    cases += [(_replace_first(lambda i, t=t: i.arcs[t.lane], f.name, value),
               f"{t.lane_symbol}.{f.name}")
              for t in TIERS for f in dataclasses.fields(Arc) if f.name != "forbidden"]
    return cases


BAD_NUMBERS = [(value, breaker, symbol) for value in (math.nan, math.inf, -math.inf, -1.0)
               for breaker, symbol in _number_cases(value)]


@pytest.mark.parametrize("value,breaker,symbol", BAD_NUMBERS,
                         ids=[f"{symbol}={value}" for value, _, symbol in BAD_NUMBERS])
def test_a_bad_number_is_reported_once(bundled, value, breaker, symbol):
    """NaN, either infinity or a number below its range gives one violation
    with that number's symbol."""
    inst = _every_number_set(bundled)
    assert validate(inst).ok
    inst = breaker(inst) or inst
    assert [v.symbol for v in validate(inst).violations] == [symbol]


TIER_IDS = ["dropoff", "primary", "secondary"]


@pytest.mark.parametrize("tier,facility,item,symbol", [
    ("dropoff", "drop2", "prod1", "drp"),
    ("primary", "prim1", "prod1", "pri"),
    ("secondary", "sec1", "mat2", "sec"),
], ids=TIER_IDS)
def test_bad_processing_entry_flagged(bundled, tier, facility, item, symbol):
    inst = mutable_copy(bundled)
    row = inst.processing.entries[tier][facility]
    row[item] = dataclasses.replace(row[item], capacity=100.0, min_shipment=200.0)
    report = validate(inst)
    assert [v.symbol for v in report.violations] == [f"{symbol}.min_shipment"]
    del row[item]
    report = validate(inst)
    assert [v.symbol for v in report.violations] == [symbol]
    assert report.violations[0].index == (item, facility)


@pytest.mark.parametrize("lane,tail,head,symbol", [
    ("res_drop", "area2", "drop1", "d^res"),
    ("drop_pri", "drop1", "prim3", "d^drp"),
    ("pri_sec", "prim2", "sec1", "d^pri"),
], ids=TIER_IDS)
def test_missing_arc_flagged(bundled, lane, tail, head, symbol):
    inst = mutable_copy(bundled)
    del inst.arcs[lane][tail][head]
    report = validate(inst)
    assert [v.symbol for v in report.violations] == [symbol]
    assert report.violations[0].index == (tail, head)


def test_forbidden_arc_is_allowed(bundled):
    inst = mutable_copy(bundled)
    arc = inst.arcs["res_drop"]["area1"]["drop2"]
    inst.arcs["res_drop"]["area1"]["drop2"] = dataclasses.replace(arc, forbidden=True)
    assert validate(inst).ok


def test_empty_set_short_circuits(bundled):
    inst = dataclasses.replace(mutable_copy(bundled), products=())
    report = validate(inst)
    assert [v.symbol for v in report.violations] == ["products"]


def test_duplicate_facility_across_tiers(bundled):
    inst = dataclasses.replace(mutable_copy(bundled),
                               secondaries=("prim1",))
    report = validate(inst)
    assert any(v.symbol == "facilities" for v in report.violations)


def test_assert_valid_raises(bundled):
    inst = mutable_copy(bundled)
    inst.supply.mass["prod1"]["area1"] = -1.0
    with pytest.raises(InstanceError):
        validate(inst).assert_valid()


def test_policy_validation(bundled):
    policy = PolicyData(county_of={"drop1": "u1", "drop2": "u1"},
                        city_of={"drop1": "t1"},
                        city_population={"t1": 50000.0},
                        city_county={"t1": "u1"})
    inst = dataclasses.replace(mutable_copy(bundled), policy=policy)
    assert validate(inst).ok
    assert policy.qualifying_cities() == ["t1"]
    below = dataclasses.replace(policy, city_population={"t1": 500.0})
    assert below.qualifying_cities() == []
    bad = dataclasses.replace(policy, county_of={"ghost": "u1"})
    inst = dataclasses.replace(inst, policy=bad)
    assert [v.symbol for v in validate(inst).violations] == ["county_of"]


def _with_population(inst, population):
    return dataclasses.replace(inst, supply=dataclasses.replace(inst.supply,
                                                                population=population))


@pytest.mark.parametrize("breaker, violations", [
    (lambda i: with_supply_mass(i, {"prod1": {"area1": 600.0, "aera2": 1050.0}}),
     ["r[prod1,aera2]: unknown residence area"]),
    (lambda i: with_supply_mass(i, {"prod1": {"aera2": 1.0}, "prod9": {"area1": 1.0}}),
     ["r[prod9]: unknown product", "r[prod1,aera2]: unknown residence area"]),
    (lambda i: dataclasses.replace(i, supply=dataclasses.replace(
        i.supply, dedicated_fraction={**i.supply.dedicated_fraction, "drop9": 0.5})),
     ["df[drop9]: unknown dropoff"]),
    (lambda i: dataclasses.replace(i, supply=dataclasses.replace(
        i.supply, population={"area1": 10.0, "area2": 10.0, "area9": 1.0})),
     ["pp[area9]: unknown residence area"]),
])
def test_unknown_supply_keys_are_reported(bundled, breaker, violations):
    """An entry keyed by an id the instance lacks is data the model would
    silently ignore; unknown products are named before unknown areas."""
    assert [str(v) for v in validate(breaker(bundled)).violations] == violations


def test_unknown_processing_and_arc_keys_are_reported(bundled):
    """Each id the instance does not declare, one violation per key, under
    its table's symbol and indexed as the table nests it."""
    data = instance_to_dict(bundled)
    proc, arcs = data["processing"], data["arcs"]
    proc["efficiency"] = {"mat9": {"prim1": 0.5}, "mat1": {"prim9": 0.5}}
    proc["composition"]["mat1"]["prod9"] = 0.1
    proc["fixed_cost"]["drp9"] = 1.0
    proc["primary"]["prim1"]["prod9"] = proc["primary"]["prim1"]["prod1"]
    proc["secondary"]["sec9"] = proc["secondary"]["sec1"]
    proc["resale"]["dropoff"]["prod9"] = 0.1
    proc["min_open"]["dropof"] = 1
    arcs["res_drop"]["area9"] = arcs["res_drop"]["area1"]
    arcs["pri_sec"]["prim1"]["sec9"] = arcs["pri_sec"]["prim1"]["sec1"]
    assert [str(v) for v in validate(instance_from_dict(data)).violations] == [
        "re^drp[prod9]: unknown product",
        "pri[prim1,prod9]: unknown product",
        "sec[sec9]: unknown secondary",
        "nof[dropof]: unknown tier",
        "fc[drp9]: unknown facility",
        "q[mat1,prod9]: unknown product",
        "eff[mat9]: unknown material",
        "eff[mat1,prim9]: unknown primary",
        "d^res[area9]: unknown residence area",
        "d^pri[prim1,sec9]: unknown secondary",
    ]


def test_with_trip_factor(bundled):
    scaled = with_trip_factor(bundled, 0.5)
    assert trip_multiplier(scaled, "area1", "drop1") == pytest.approx(125.0)
    assert not scaled.supply.demographic
    # original untouched
    assert trip_multiplier(bundled, "area1", "drop1") == pytest.approx(250.0)


def test_with_supply_mass(bundled):
    swapped = with_supply_mass(bundled, {"prod1": {"area1": 10.0}})
    assert swapped.supply.mass["prod1"]["area1"] == 10.0
    assert swapped.supply.mass["prod1"]["area2"] == bundled.supply.mass["prod1"]["area2"]
    assert bundled.supply.mass["prod1"]["area1"] == 1050.0


def test_with_total_capacity(bundled):
    capped = with_total_capacity(bundled, {"prim1": 123.0})
    assert capped.processing.total_capacity == {"prim1": 123.0}
    assert bundled.processing.total_capacity == {}
    assert validate(capped).ok
