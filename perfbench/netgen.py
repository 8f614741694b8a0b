"""Deterministic generator of take-back networks by tier sizes and seed.

`generate(areas, dropoffs, primaries, seed)` returns an instance dict in the
JSON layout `rlnd.io.instance_from_dict` reads (2 products, 3 materials and
2 secondaries unless told otherwise).  The same arguments always give the
same dict: every draw comes from one `random.Random` seeded with a string,
which Python hashes the same way in every process.

Scales follow the bundled two-area example.  Capacities are drawn so that
each tier needs more than one open facility but the whole network can
always carry its supply, which keeps the models feasible and gives the
branch and bound real choices to make.
"""

from __future__ import annotations

import math
import random


def _coords(rng: random.Random, names: list[str], span: float) -> dict[str, tuple[float, float]]:
    return {n: (rng.uniform(0.0, span), rng.uniform(0.0, span)) for n in names}


def _km(a: tuple[float, float], b: tuple[float, float]) -> float:
    return round(10.0 + math.hypot(a[0] - b[0], a[1] - b[1]), 3)


def _shares(rng: random.Random, count: int, total: float) -> list[float]:
    """`count` nonnegative fractions summing to `total` (< 1)."""
    weights = [rng.uniform(0.2, 1.0) for _ in range(count)]
    scale = total / sum(weights)
    return [round(w * scale, 4) for w in weights]


def _capacities(rng: random.Random, facilities: list[str], need: float) -> dict[str, float]:
    """Per-facility capacities, each short of `need`, jointly >= 1.3 x need."""
    caps = {f: rng.uniform(0.35, 0.8) * need for f in facilities}
    lift = max(1.0, 1.3 * need / sum(caps.values()))
    return {f: round(c * lift, 3) for f, c in caps.items()}


def generate(areas: int, dropoffs: int, primaries: int, seed: int,
             products: int = 2, materials: int = 3, secondaries: int = 2) -> dict:
    """Instance dict for an areas x dropoffs x primaries network."""
    tier = f"{areas}x{dropoffs}x{primaries}x{products}x{materials}x{secondaries}"
    rng = random.Random(f"rlnd-netgen:{tier}:{seed}")
    prods = [f"prod{k}" for k in range(1, products + 1)]
    mats = [f"mat{k}" for k in range(1, materials + 1)]
    area_ids = [f"area{k}" for k in range(1, areas + 1)]
    drops = [f"drop{k}" for k in range(1, dropoffs + 1)]
    prims = [f"prim{k}" for k in range(1, primaries + 1)]
    secs = [f"sec{k}" for k in range(1, secondaries + 1)]

    where = _coords(rng, area_ids + drops + prims, 200.0)
    where.update({s: (rng.uniform(600.0, 3000.0), rng.uniform(0.0, 200.0)) for s in secs})

    mass = {i: {h: round(rng.uniform(300.0, 1200.0), 2) for h in area_ids} for i in prods}
    supply = {i: sum(mass[i].values()) for i in prods}
    resale = {
        "dropoff": {i: round(rng.uniform(0.05, 0.2), 4) for i in prods},
        "primary": {i: round(rng.uniform(0.01, 0.15), 4) for i in prods},
        "secondary": {j: round(rng.uniform(0.03, 0.08), 4) for j in mats},
    }
    fractions = {i: _shares(rng, materials, rng.uniform(0.3, 0.9)) for i in prods}
    composition = {j: {i: fractions[i][k] for i in prods} for k, j in enumerate(mats)}

    downstream = {i: (1.0 - resale["dropoff"][i]) * supply[i] for i in prods}
    material_flow = {j: sum(composition[j][i] * (1.0 - resale["primary"][i]) * downstream[i]
                            for i in prods) for j in mats}

    def entry(base_cost: float, base_credit: float, base_emission: float,
              base_offset: float, capacity: float) -> dict:
        jitter = lambda v: round(v * rng.uniform(0.7, 1.3), 5)
        return {"cost": jitter(base_cost), "credit": jitter(base_credit),
                "emission": jitter(base_emission), "offset": jitter(base_offset),
                "capacity": capacity}

    drop_caps = {i: _capacities(rng, drops, supply[i]) for i in prods}
    prim_caps = {i: _capacities(rng, prims, downstream[i]) for i in prods}
    sec_caps = {j: _capacities(rng, secs, material_flow[j]) for j in mats}
    processing = {
        "dropoff": {c: {i: entry(0.24, 3.5, 0.011, 6.0, drop_caps[i][c]) for i in prods}
                    for c in drops},
        "primary": {p: {i: entry(0.45, 0.8, 0.04, 3.0, prim_caps[i][p]) for i in prods}
                    for p in prims},
        "secondary": {s: {j: entry(0.06, 4.0, 0.2, 0.6, sec_caps[j][s]) for j in mats}
                      for s in secs},
        "resale": resale,
        "fixed_cost": {**{c: round(rng.uniform(50.0, 300.0), 2) for c in drops},
                       **{p: round(rng.uniform(100.0, 500.0), 2) for p in prims},
                       **{s: round(rng.uniform(0.0, 200.0), 2) for s in secs}},
        "min_open": {"dropoff": 1, "primary": 1, "secondary": 1},
        "composition": composition,
        "efficiency": {},
        "total_capacity": {},
    }

    def lanes(tails: list[str], heads: list[str], cost: float, emission: float) -> dict:
        return {a: {b: {"distance": _km(where[a], where[b]),
                        "cost": round(cost * rng.uniform(0.8, 1.2), 5),
                        "emission": round(emission * rng.uniform(0.8, 1.2), 5)}
                    for b in heads} for a in tails}

    return {
        "name": f"gen-{areas}x{dropoffs}x{primaries}-s{seed}",
        "description": f"generated network {tier}, seed {seed}",
        "sets": {"products": prods, "materials": mats, "areas": area_ids,
                 "dropoffs": drops, "primaries": prims, "secondaries": secs},
        "supply": {
            "mass": mass,
            "trips_per_year": 500.0,
            "dedicated_fraction": {c: round(rng.uniform(0.3, 0.8), 4) for c in drops},
            "trip_factor": {h: 1.0 for h in area_ids},
        },
        "processing": processing,
        "arcs": {
            "res_drop": lanes(area_ids, drops, 0.348, 0.23),
            "drop_pri": lanes(drops, prims, 0.115, 0.152),
            "pri_sec": lanes(prims, secs, 0.003, 0.0036),
        },
        "policy": None,
    }
