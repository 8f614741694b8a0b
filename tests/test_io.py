import dataclasses
import functools
import json
import random

import pytest

from helpers import netgen_instance, random_network_instance
from rlnd.domain import PolicyData
from rlnd.io import (instance_from_dict, instance_to_dict, load_bundled_instance,
                     load_instance, read_points_csv, save_instance, write_csv)


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
