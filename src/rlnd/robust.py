"""Budgeted-uncertainty (row-wise) robust counterparts.

Each protected row carries a budget: of its uncertain coefficients, at most
`gamma` may drift to their worst value simultaneously (the last unit may be
fractional).  The counterpart stays linear — one dual variable per row, one
per uncertain coefficient — and its optimum is immunized against every
realization inside the budget.  With gamma 0 the counterpart is the nominal
model; with gamma equal to the number of uncertain coefficients it is the
full worst case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .builders import ModelArtifacts
from .milp import LinExpr, MilpModel, ModelError, Row, RowTag

_ABS_PREFIX = "ABS"


@dataclass
class RowUncertainty:
    """Budget and per-coefficient deviations for one row, keyed by variable."""

    gamma: float
    deviations: dict[str, float] = field(default_factory=dict)

    def validate(self, label: str) -> None:
        for var, dev in self.deviations.items():
            if not math.isfinite(dev) or dev < 0:
                raise ValueError(f"{label}: deviation for {var!r} must be "
                                 f"finite and nonnegative, got {dev!r}")
        if not math.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"{label}: gamma must be finite and nonnegative, "
                             f"got {self.gamma!r}")
        if self.gamma > len(self.deviations):
            raise ValueError(f"{label}: gamma {self.gamma:g} exceeds the "
                             f"{len(self.deviations)} uncertain coefficients")


@dataclass
class UncertaintySpec:
    """Per-row uncertainty, keyed by the row tag's string form."""

    rows: dict[str, RowUncertainty] = field(default_factory=dict)

    def validate(self) -> None:
        for key, row in self.rows.items():
            row.validate(key)

    def to_dict(self) -> dict:
        return {"rows": {key: {"gamma": row.gamma, "deviations": dict(row.deviations)}
                         for key, row in self.rows.items()}}

    @classmethod
    def from_dict(cls, data: Mapping) -> "UncertaintySpec":
        rows = {key: RowUncertainty(float(entry["gamma"]),
                                    {v: float(d) for v, d in entry["deviations"].items()})
                for key, entry in data["rows"].items()}
        spec = cls(rows)
        spec.validate()
        return spec

    def with_gamma(self, gamma: float) -> "UncertaintySpec":
        """Same deviations with every budget set to min(gamma, row size)."""
        return UncertaintySpec({
            key: RowUncertainty(min(gamma, len(row.deviations)), dict(row.deviations))
            for key, row in self.rows.items()})


def load_uncertainty_spec(path: str | Path) -> UncertaintySpec:
    with open(path, "r", encoding="utf-8") as f:
        return UncertaintySpec.from_dict(json.load(f))


def save_uncertainty_spec(spec: UncertaintySpec, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(spec.to_dict(), f, indent=2)
        f.write("\n")


# ----------------------------------------------------------------------
# the counterpart transformation
# ----------------------------------------------------------------------

def _copy_model(model: MilpModel, name: str) -> MilpModel:
    out = MilpModel(name)
    for var in model.variables.values():
        out.add_variable(var.name, var.lb, var.ub, var.binary)
    out.set_objective(model.objective)
    out.warnings.extend(model.warnings)
    return out


def _magnitude_var(model: MilpModel, var_name: str,
                   created: dict[str, str]) -> str:
    """A variable bounding |x| for x that can be negative; x itself if not."""
    var = model.variables[var_name]
    if var.lb >= 0.0:
        return var_name
    if var_name in created:
        return created[var_name]
    mag = model.add_variable(f"{_ABS_PREFIX}[{var_name}]", 0.0)
    expr_pos = LinExpr({mag: 1.0, var_name: -1.0})
    expr_neg = LinExpr({mag: 1.0, var_name: 1.0})
    model.add_row(expr_pos, ">=", 0.0, RowTag("robust-abs", (var_name, "+")))
    model.add_row(expr_neg, ">=", 0.0, RowTag("robust-abs", (var_name, "-")))
    created[var_name] = mag
    return mag


def robustify(model: MilpModel, spec: UncertaintySpec,
              name: str | None = None) -> MilpModel:
    """Build the robust counterpart of `model` under `spec`.

    Rows not named in the spec are copied unchanged.  A named equality row is
    rejected: protecting only one side flips the row's meaning.  Split it
    into a pair of inequalities first (see :func:`split_equality_rows`) and
    protect the side that matters.
    """
    spec.validate()
    known = {str(row.tag) for row in model.rows}
    unknown = sorted(set(spec.rows) - known)
    if unknown:
        raise ModelError(f"uncertainty spec names rows not in the model: {unknown}; "
                         f"model rows are tagged {sorted(known)}")
    for key, entry in spec.rows.items():
        missing = sorted(set(entry.deviations) - set(model.variables))
        if missing:
            raise ModelError(f"{key}: deviations name unknown variables {missing}")

    out = _copy_model(model, name or f"{model.name}:robust")
    abs_vars: dict[str, str] = {}
    counter = 0
    for row in model.rows:
        key = str(row.tag)
        entry = spec.rows.get(key)
        if entry is None or not entry.deviations:
            out.add_row(row.expr, row.relation, row.rhs, row.tag)
            continue
        if row.relation == "==":
            raise ModelError(
                f"cannot protect equality row {key}; split it into <= and >= "
                f"(split_equality_rows) and protect the binding side")
        flip = -1.0 if row.relation == ">=" else 1.0
        expr = row.expr.scaled(flip)
        rhs = row.rhs * flip

        budget = out.add_variable(f"GAMMA[{counter}|{key}]", 0.0)
        expr.add(budget, entry.gamma)
        for var_name in sorted(entry.deviations):
            deviation = entry.deviations[var_name]
            spread = out.add_variable(f"DEV[{counter}|{key}|{var_name}]", 0.0)
            expr.add(spread, 1.0)
            dual = LinExpr({budget: 1.0, spread: 1.0})
            dual.add(_magnitude_var(out, var_name, abs_vars), -deviation)
            out.add_row(dual, ">=", 0.0, RowTag("robust-dual", (key, var_name)))
        out.add_row(expr, "<=", rhs, row.tag)
        counter += 1
    return out


def robustify_artifacts(artifacts: ModelArtifacts, spec: UncertaintySpec) -> ModelArtifacts:
    """Counterpart of a built model, keeping its interpretation maps."""
    model = robustify(artifacts.model, spec)
    return ModelArtifacts(model, artifacts.vars, artifacts.stages)


def split_equality_rows(model: MilpModel, keys: set[str] | None = None,
                        name: str | None = None) -> MilpModel:
    """Replace == rows (all, or those whose tag string is in `keys`) by a
    <=/>= pair tagged with `le`/`ge` suffixes, so each side can be protected
    independently."""
    out = _copy_model(model, name or f"{model.name}:split")
    for row in model.rows:
        if row.relation == "==" and (keys is None or str(row.tag) in keys):
            le = RowTag(row.tag.family, row.tag.scope + ("le",))
            ge = RowTag(row.tag.family, row.tag.scope + ("ge",))
            out.add_row(row.expr, "<=", row.rhs, le)
            out.add_row(row.expr, ">=", row.rhs, ge)
        else:
            out.add_row(row.expr, row.relation, row.rhs, row.tag)
    return out


# ----------------------------------------------------------------------
# analysis helpers
# ----------------------------------------------------------------------

def protection_value(entry: RowUncertainty, values: Mapping[str, float],
                     gamma: float | None = None) -> float:
    """Worst-case extra row activity at a fixed point under the budget.

    Greedy: spend whole budget units on the largest deviation impacts, then
    the fractional remainder on the next one.  This equals the optimum of
    the inner maximization, so no LP is needed.
    """
    g = entry.gamma if gamma is None else gamma
    g = max(0.0, min(g, len(entry.deviations)))
    impacts = sorted((dev * abs(values.get(var, 0.0))
                      for var, dev in entry.deviations.items()), reverse=True)
    whole = int(math.floor(g))
    total = sum(impacts[:whole])
    fraction = g - whole
    if fraction > 0.0 and whole < len(impacts):
        total += fraction * impacts[whole]
    return total


def violation_bound(gamma: float, n: int) -> float:
    """Probability bound that a row protected with budget `gamma` out of `n`
    independent symmetric deviations is still violated: 1 - Phi((gamma-1)/sqrt(n))."""
    if n <= 0:
        raise ValueError("n must be a positive coefficient count")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    z = (gamma - 1.0) / math.sqrt(n)
    return 1.0 - 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def capacity_preset(artifacts: ModelArtifacts, fraction: float = 0.1,
                    gamma: float = 1.0) -> UncertaintySpec:
    """Mark every capacity row's data coefficients as uncertain by +-fraction.

    On collection-tier rows that is the per-trip collection rates (the RTD
    coefficients); on every capacity row it includes the capacity itself (the
    open-indicator coefficient).  Unit mass-flow coefficients are structural
    and stay exact.  Budgets are min(gamma, row size).
    """
    if not 0.0 <= fraction:
        raise ValueError("fraction must be nonnegative")
    vars = artifacts.vars
    indicators = set(vars.x.values()) | set(vars.y.values()) | set(vars.r.values())
    rtd_names = set(vars.rtd.values())
    rows: dict[str, RowUncertainty] = {}
    for row in artifacts.model.rows:
        if row.tag.family != "capacity" or row.relation == "==":
            continue
        deviations = {var: fraction * abs(coeff)
                      for var, coeff in row.expr.terms.items()
                      if (var in indicators or var in rtd_names) and coeff}
        if deviations:
            rows[str(row.tag)] = RowUncertainty(min(gamma, len(deviations)), deviations)
    return UncertaintySpec(rows)
