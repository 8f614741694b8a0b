import math
import random

import pytest
from hypothesis import given, strategies as st

from rlnd.geo import EARTH_RADIUS_KM, GeoPoint, grid_to_areas, haversine, pairwise_km

SEATTLE = GeoPoint(47.6062, -122.3321)
TACOMA = GeoPoint(47.2529, -122.4443)


def law_of_cosines_km(a: GeoPoint, b: GeoPoint, r: float = EARTH_RADIUS_KM) -> float:
    # independent spherical distance formula for cross-checking
    pa, pb = math.radians(a.lat), math.radians(b.lat)
    dlam = math.radians(b.lon - a.lon)
    c = math.sin(pa) * math.sin(pb) + math.cos(pa) * math.cos(pb) * math.cos(dlam)
    return r * math.acos(max(-1.0, min(1.0, c)))


def test_zero_distance():
    assert haversine(SEATTLE, SEATTLE) == 0.0


def test_antipodal_is_half_circumference():
    a = GeoPoint(10.0, 20.0)
    b = GeoPoint(-10.0, -160.0)
    # asin is ill-conditioned at the antipode; a metre of slack covers it
    assert haversine(a, b) == pytest.approx(math.pi * EARTH_RADIUS_KM, abs=1e-3)


def test_agrees_with_law_of_cosines():
    pairs = [(SEATTLE, TACOMA),
             (GeoPoint(40.7128, -74.0060), GeoPoint(34.0522, -118.2437)),
             (GeoPoint(51.5074, -0.1278), GeoPoint(48.8566, 2.3522))]
    for a, b in pairs:
        assert haversine(a, b) == pytest.approx(law_of_cosines_km(a, b), abs=0.1)


def test_seattle_tacoma_plausible():
    d = haversine(SEATTLE, TACOMA)
    assert 38.0 < d < 42.0  # straight-line, well under the ~50 km drive


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 181.0)
    with pytest.raises(ValueError):
        GeoPoint(float("nan"), 0.0)


def test_symmetry_and_triangle_on_random_triples():
    rng = random.Random(20240817)
    for _ in range(1000):
        pts = [GeoPoint(rng.uniform(-90, 90), rng.uniform(-179.999, 180))
               for _ in range(3)]
        ab = haversine(pts[0], pts[1])
        ba = haversine(pts[1], pts[0])
        assert ab == pytest.approx(ba, abs=1e-9)
        ac = haversine(pts[0], pts[2])
        cb = haversine(pts[2], pts[1])
        assert ab <= ac + cb + 1e-6


@given(st.floats(-90, 90), st.floats(-179.99, 180), st.floats(-90, 90),
       st.floats(-179.99, 180))
def test_haversine_bounds(lat1, lon1, lat2, lon2):
    d = haversine(GeoPoint(lat1, lon1), GeoPoint(lat2, lon2))
    assert 0.0 <= d <= math.pi * EARTH_RADIUS_KM + 1e-9


def test_pairwise_matches_scalar():
    pts = [SEATTLE, TACOMA, GeoPoint(45.5152, -122.6784)]
    m = pairwise_km(pts, pts)
    assert m.shape == (3, 3)
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            assert m[i, j] == pytest.approx(haversine(a, b), abs=1e-9)


def test_grid_to_areas_tables():
    residences = {"blk1": GeoPoint(47.60, -122.33, population=1200.0),
                  "blk2": GeoPoint(47.25, -122.44, population=900.0)}
    drops = {"d1": GeoPoint(47.50, -122.30)}
    prims = {"p1": GeoPoint(47.40, -122.20)}
    secs = {"s1": GeoPoint(47.00, -122.90)}
    grid = grid_to_areas(residences, drops, prims, secs)
    assert list(grid.lanes) == ["res_drop", "drop_pri", "pri_sec"]
    assert set(grid.lanes["res_drop"]) == {"blk1", "blk2"}
    assert grid.lanes["res_drop"]["blk1"]["d1"] == pytest.approx(
        haversine(residences["blk1"], drops["d1"]), abs=1e-9)
    assert grid.lanes["drop_pri"]["d1"]["p1"] == pytest.approx(
        haversine(drops["d1"], prims["p1"]), abs=1e-9)
    assert grid.lanes["pri_sec"]["p1"]["s1"] == pytest.approx(
        haversine(prims["p1"], secs["s1"]), abs=1e-9)
    assert grid.population == {"blk1": 1200.0, "blk2": 900.0}
    with pytest.raises(ValueError):
        grid_to_areas(residences, {}, prims, secs)
