"""Great-circle distances and coordinate-grid ingestion.

Converts point coordinates (census block groups, candidate facility sites)
into the dense distance tables the network model needs, one per inbound
lane of :data:`rlnd.domain.TIERS` and keyed like the instance's arcs.
Distances use the haversine form, which stays accurate for nearby points
where the spherical law of cosines loses precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import TIERS

EARTH_RADIUS_KM = 6371.0088  # IUGG mean Earth radius


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float
    population: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"non-finite coordinates ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 < self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside (-180, 180]")
        if self.population is not None and not 0.0 <= self.population < math.inf:
            raise ValueError(f"population {self.population} outside [0, inf)")


def haversine(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in km between two points given in degrees."""
    phi_a, phi_b = math.radians(a.lat), math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    s = math.sin(dphi / 2.0) ** 2 + math.cos(phi_a) * math.cos(phi_b) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def pairwise_km(origins: Sequence[GeoPoint], destinations: Sequence[GeoPoint]) -> np.ndarray:
    """|origins| x |destinations| matrix of great-circle distances in km."""
    if len(origins) == 0 or len(destinations) == 0:
        return np.zeros((len(origins), len(destinations)))
    o = np.radians([[p.lat, p.lon] for p in origins])
    d = np.radians([[p.lat, p.lon] for p in destinations])
    phi1 = o[:, 0][:, None]
    phi2 = d[:, 0][None, :]
    dphi = phi2 - phi1
    dlam = d[:, 1][None, :] - o[:, 1][:, None]
    s = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


@dataclass
class GriddedDistances:
    """Distance tables (km) ``lanes[lane][tail][head]`` into each tier, keyed
    by :attr:`~rlnd.domain.TierLayout.lane`, plus area populations."""

    lanes: dict[str, dict[str, dict[str, float]]]
    population: dict[str, float]


def grid_to_areas(points: dict[str, GeoPoint], dropoffs: dict[str, GeoPoint],
                  primaries: dict[str, GeoPoint], secondaries: dict[str, GeoPoint]
                  ) -> GriddedDistances:
    """Turn coordinate lists into the three tier-adjacent distance tables.

    Each point becomes one residence area (keyed by its id) carrying its
    population attribute; facility tiers must be non-empty.
    """
    sites = {"areas": points, "dropoffs": dropoffs, "primaries": primaries,
             "secondaries": secondaries}
    for tier in TIERS:
        if not sites[tier.facilities]:
            raise ValueError(f"empty facility tier: {tier.facilities}")
    if not points:
        raise ValueError("no residence points")

    def table_of(origins: dict[str, GeoPoint], dests: dict[str, GeoPoint]) -> dict:
        okeys, dkeys = list(origins), list(dests)
        m = pairwise_km([origins[k] for k in okeys], [dests[k] for k in dkeys])
        return {a: {b: float(m[i, j]) for j, b in enumerate(dkeys)}
                for i, a in enumerate(okeys)}

    return GriddedDistances(
        {tier.lane: table_of(sites[tier.sources], sites[tier.facilities]) for tier in TIERS},
        {k: (p.population or 0.0) for k, p in points.items()})
