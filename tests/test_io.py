import dataclasses
import functools
import json
import random
import re

import pytest

from helpers import netgen_instance, random_network_instance
from rlnd import io
from rlnd.domain import PolicyData
from rlnd.io import (DocumentError, Node, instance_from_dict, instance_to_dict,
                     load_bundled_instance, load_instance, read_points_csv, read_record,
                     save_instance, write_csv)
from rlnd.robust import RowUncertainty, UncertaintySpec, load_uncertainty_spec
from rlnd.scenarios import ScenarioSpec, load_scenario_spec


def test_bundled_loads(bundled):
    assert bundled.name == "ewaste-two-area-example"
    assert bundled.products == ("prod1", "prod2")
    assert bundled.materials == ("mat1", "mat2", "mat3")
    assert bundled.dropoffs == ("drop1", "drop2")
    assert bundled.primaries == ("prim1", "prim2", "prim3")
    assert bundled.secondaries == ("sec1",)
    assert bundled.arcs["res_drop"]["area2"]["drop2"].distance == 80.0
    assert bundled.processing.entries["secondary"]["sec1"]["mat2"].credit == 11.5


def test_dict_round_trip(bundled):
    assert instance_from_dict(instance_to_dict(bundled)) == bundled


def test_file_round_trip(bundled, tmp_path):
    path = tmp_path / "inst.json"
    save_instance(bundled, path)
    assert load_instance(path) == bundled


def _bundled_variant():
    """The bundled network with a forbidden arc, a policy and demographics,
    so every optional field holds a value."""
    inst = load_bundled_instance()
    lane = inst.arcs["drop_pri"]
    row = {**lane["drop1"], "prim2": dataclasses.replace(lane["drop1"]["prim2"], forbidden=True)}
    policy = PolicyData(county_of={"drop1": "u1"}, city_of={"drop2": "t2"},
                        city_population={"t2": 20000.0}, city_county={"t2": "u1"})
    supply = dataclasses.replace(inst.supply, population={h: 5000.0 for h in inst.areas},
                                 household_size=2.5, participation=0.4)
    return dataclasses.replace(inst, arcs={**inst.arcs, "drop_pri": {**lane, "drop1": row}},
                               policy=policy, supply=supply)


# with the bundled network above, the instances a saved file must give back
ROUND_TRIP_CORPUS = {
    **{f"netgen-5x4x3-{seed}": functools.partial(netgen_instance, 5, 4, 3, seed)
       for seed in range(3)},
    **{f"random-{seed}": lambda seed=seed: random_network_instance(random.Random(seed))
       for seed in range(20)},
    "bundled-variant": _bundled_variant,
}


@pytest.mark.parametrize("name", ROUND_TRIP_CORPUS)
def test_corpus_file_round_trip(name, tmp_path):
    instance = ROUND_TRIP_CORPUS[name]()
    path = tmp_path / "inst.json"
    save_instance(instance, path)
    assert load_instance(path) == instance


def test_policy_round_trip(bundled):
    policy = PolicyData(county_of={"drop1": "u1"}, city_of={"drop2": "t2"},
                        city_population={"t2": 20000.0}, city_county={"t2": "u1"},
                        population_threshold=15000.0)
    inst = dataclasses.replace(bundled, policy=policy)
    again = instance_from_dict(instance_to_dict(inst))
    assert again.policy == policy


def test_scenario_section_tolerated(bundled):
    data = instance_to_dict(bundled)
    data["scenario"] = {"anything": 1}
    assert instance_from_dict(data) == bundled


def test_defaults_backfilled(bundled):
    data = instance_to_dict(bundled)
    # min_shipment, efficiency, total_capacity are all optional
    del data["processing"]["dropoff"]["drop1"]["prod1"]["min_shipment"]
    del data["processing"]["efficiency"]
    del data["processing"]["total_capacity"]
    inst = instance_from_dict(data)
    assert inst.processing.entries["dropoff"]["drop1"]["prod1"].min_shipment == 0.0
    assert inst.processing.eff("mat1", "prim1") == 1.0
    assert inst.processing.total_capacity == {}


def test_a_nameless_instance_is_called_instance(bundled):
    data = instance_to_dict(bundled)
    del data["name"]
    assert instance_from_dict(data) == dataclasses.replace(bundled, name="instance")


def test_empty_population_and_policy_read_as_none(bundled):
    data = instance_to_dict(bundled)
    data["supply"]["population"], data["policy"] = {}, {}
    assert instance_from_dict(data) == bundled


ROW = "capacity[dropoff,prod1,drop1]"

# a valid document of each kind, its loader, and what it loads as
DOCUMENTS = {
    "instance": (lambda: {**instance_to_dict(load_bundled_instance()),
                          "policy": {"population_threshold": PolicyData().population_threshold}},
                 load_instance, dataclasses.replace(load_bundled_instance(), policy=PolicyData())),
    "scenario": (lambda: {"name": "typo"}, load_scenario_spec, ScenarioSpec("typo")),
    "uncertainty": (lambda: {"rows": {ROW: {"gamma": 1, "deviations": {"X[drop1]": 1.0}}}},
                    load_uncertainty_spec,
                    UncertaintySpec({ROW: RowUncertainty(1.0, {"X[drop1]": 1.0})})),
}

# (document, the path of an object in it, a key that names no field read there)
MISSPELT_KEYS = [
    # fields the document keeps elsewhere: under `sets`, and per tier
    ("instance", (), "products"),
    ("instance", ("processing",), "entries"),
    ("instance", (), "arc"),
    ("instance", ("sets",), "product"),
    ("instance", ("supply",), "trip_factr"),
    ("instance", ("processing",), "fixed_cst"),
    ("instance", ("processing",), "secundary"),
    ("instance", ("processing", "resale"), "primay"),
    ("instance", ("processing", "dropoff", "drop1", "prod1"), "min_shipmnet"),
    ("instance", ("arcs",), "res_dorp"),
    ("instance", ("arcs", "res_drop", "area1", "drop1"), "forbiden"),
    ("instance", ("policy",), "populaton_threshold"),
    ("scenario", (), "trip_factr"),
    ("uncertainty", (), "row"),
    ("uncertainty", ("rows", ROW), "gama"),
]


@pytest.mark.parametrize("kind, path, key", MISSPELT_KEYS,
                         ids=lambda x: ".".join(x) if isinstance(x, tuple) else x)
def test_a_key_that_names_no_field_is_named(kind, path, key, tmp_path):
    document, load, expected = DOCUMENTS[kind]
    file = tmp_path / "doc.json"
    data = document()
    file.write_text(json.dumps(data), encoding="utf-8")
    assert load(file) == expected
    functools.reduce(dict.__getitem__, path, data)[key] = 2.0
    file.write_text(json.dumps(data), encoding="utf-8")
    where = ".".join((*path, key))
    with pytest.raises(DocumentError, match=f"^{re.escape(f'{file}: unknown key {where!r}')}$"):
        load(file)


def test_every_field_type_a_document_holds_has_a_reader(monkeypatch, tmp_path):
    """read_record looks up the reader of each field it may read, key or no
    key, so loading a document of each kind meets every type it holds."""
    met = set()

    class Recorded(dict):
        def __getitem__(self, annotation):
            met.add(annotation)
            return super().__getitem__(annotation)

    monkeypatch.setattr(io, "_READERS", Recorded(io._READERS))
    for document, load, expected in DOCUMENTS.values():
        file = tmp_path / "doc.json"
        file.write_text(json.dumps(document()), encoding="utf-8")
        assert load(file) == expected
    assert met == set(io._READERS)


def test_a_field_type_without_a_reader_fails_though_its_key_is_absent():
    @dataclasses.dataclass
    class Tagged:
        tags: "set[str]" = dataclasses.field(default_factory=set)

    with pytest.raises(KeyError, match=re.escape("set[str]")):
        read_record(Tagged, Node({}))


def test_read_points_csv(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("id,lat,lon,population\n"
                    "blk1,47.6,-122.33,1200\n"
                    "site1,47.5,-122.3,\n", encoding="utf-8")
    points = read_points_csv(path)
    assert points["blk1"].population == 1200.0
    assert points["site1"].population is None
    assert points["site1"].lat == 47.5
    # headerless variant parses identically
    bare = tmp_path / "bare.csv"
    bare.write_text("blk1,47.6,-122.33,1200\n", encoding="utf-8")
    assert read_points_csv(bare) == {"blk1": points["blk1"]}
    # a header after blank lines is still the header
    late = tmp_path / "late.csv"
    late.write_text("\n  ,\nid,lat,lon,population\nblk1,47.6,-122.33,1200\n", encoding="utf-8")
    assert read_points_csv(late) == {"blk1": points["blk1"]}


def test_a_repeated_point_id_is_an_error(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("id,lat,lon\na,47.6,-122.3\nb,47.5,-122.3\n\nc,47.4,-122.3\n"
                    "a,10.0,10.0\n", encoding="utf-8")
    message = f"{path}, lines 2 and 6: id 'a' repeated"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_points_csv(path)


def test_write_breakdown_csv(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ("metric", "stage", "value"), [("total_cost", "all", 1.5)])
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "metric,stage,value"
    assert lines[1].startswith("total_cost,all,1.5")


def test_malformed_json_raises(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError):
        load_instance(path)


def test_bundled_identity():
    a = load_bundled_instance()
    b = load_bundled_instance()
    assert a == b


# (key path, a value of the wrong type): numbers read one at a time, in a
# table, in a record's required fields and as integers, and a lane's flag
STRICT_CASES = [
    (("supply", "trips_per_year"), True),
    (("supply", "trips_per_year"), "500"),
    (("supply", "mass", "prod1", "area2"), "1050"),
    (("supply", "dedicated_fraction", "drop1"), False),
    (("processing", "primary", "prim1", "prod1", "capacity"), True),
    (("processing", "primary", "prim1", "prod1", "min_shipment"), "0"),
    (("processing", "min_open", "dropoff"), True),
    (("arcs", "drop_pri", "drop1", "prim2", "distance"), "12.5"),
    (("arcs", "res_drop", "area1", "drop1", "forbidden"), "no"),
    (("arcs", "res_drop", "area1", "drop1", "forbidden"), 1),
    (("arcs", "res_drop", "area1", "drop1", "forbidden"), 0.0),
]


@pytest.mark.parametrize("path, value", STRICT_CASES,
                         ids=lambda x: ".".join(x) if isinstance(x, tuple) else repr(x))
def test_only_json_numbers_and_booleans_are_read(bundled, path, value):
    data = instance_to_dict(bundled)
    table = functools.reduce(dict.__getitem__, path[:-1], data)
    table[path[-1]] = value
    with pytest.raises(DocumentError, match=f"^{'[.]'.join(path)}: expected .*, got {value!r}$"):
        instance_from_dict(data)


@pytest.mark.parametrize("value, forbidden", [(True, True), (False, False), (None, False)])
def test_a_lane_is_forbidden_only_by_true(bundled, value, forbidden):
    data = instance_to_dict(bundled)
    data["arcs"]["res_drop"]["area1"]["drop1"]["forbidden"] = value
    assert instance_from_dict(data).arcs["res_drop"]["area1"]["drop1"].forbidden is forbidden
