import json

import pytest

from rlnd.domain import PolicyData
from rlnd.io import (instance_from_dict, instance_to_dict, load_bundled_instance,
                     load_instance, read_points_csv, save_instance, write_breakdown_csv)


def test_bundled_loads(bundled):
    assert bundled.name == "ewaste-two-area-example"
    assert bundled.products == ("prod1", "prod2")
    assert bundled.materials == ("mat1", "mat2", "mat3")
    assert bundled.dropoffs == ("drop1", "drop2")
    assert bundled.primaries == ("prim1", "prim2", "prim3")
    assert bundled.secondaries == ("sec1",)
    assert bundled.arcs.res_drop["area2"]["drop2"].distance == 80.0
    assert bundled.processing.secondary["sec1"]["mat2"].credit == 11.5


def test_dict_round_trip(bundled):
    assert instance_from_dict(instance_to_dict(bundled)) == bundled


def test_file_round_trip(bundled, tmp_path):
    path = tmp_path / "inst.json"
    save_instance(bundled, path)
    assert load_instance(path) == bundled


def test_policy_round_trip(bundled):
    import dataclasses

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
    entry = data["processing"]["dropoff"]["drop1"]["prod1"]
    assert "min_shipment" not in entry
    assert "efficiency" not in data["processing"]
    inst = instance_from_dict(data)
    assert inst.processing.dropoff["drop1"]["prod1"].min_shipment == 0.0
    assert inst.processing.eff("mat1", "prim1") == 1.0


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


def test_write_breakdown_csv(tmp_path):
    path = tmp_path / "rows.csv"
    write_breakdown_csv([("total_cost", "all", 1.5)], path)
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
